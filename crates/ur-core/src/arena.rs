//! The shared, sharded intern arena for core terms.
//!
//! Every canonical [`Con`], [`Expr`], and name string in the process lives
//! in one global arena. Handles ([`ConId`], [`ExprId`], [`IStr`]) are
//! `Copy + Send + Sync` `u32`s that deref to `'static` references, so:
//!
//! * `==` on handles *is* structural equality (hash-consing gives each
//!   shallow key exactly one id), replacing the `Rc::ptr_eq` fast paths;
//! * terms cross threads freely — `ur-serve`'s pool workers share one
//!   arena, with no per-worker re-interning and no portable mirror layer.
//!
//! ## Sharding and lock discipline
//!
//! The arena is split into [`NUM_SHARDS`] shards selected by the top bits
//! of the shallow-key hash. Each shard holds a `RwLock`ed hash-cons map
//! plus a set of append-only storage segments whose slots never move:
//! segment capacities grow geometrically and segments are never freed, so
//! a `&Slot` taken from a published index is valid for the life of the
//! process (or until an explicit quiescent [`try_reset`]). Lookups take a
//! read lock; only a miss takes the write lock. `try_*` is attempted
//! first and failures bump a contention counter, which `:stats` surfaces.
//!
//! An id is `shard << SHARD_SHIFT | index`; deref loads the shard's
//! `published` watermark with `Acquire` and indexes the segment directly,
//! so the hot read path after a hit is lock-free. Publication order is:
//! write the slot, `Release`-store the watermark, then insert into the
//! map and return the id — any thread that can *name* an id observed it
//! via a synchronizing edge (the map's lock, a channel send, a mutex),
//! which carries the slot contents with it.
//!
//! ## Growth bound
//!
//! Hash-consing bounds growth by the number of *distinct* shallow keys,
//! and [`try_reset`] provides the generation story: a [`Session`]-scoped
//! [`ArenaLease`] counts live users, and when the count is zero the arena
//! may be drained in place (slots dropped, maps cleared, generation
//! bumped; the string table survives because `IStr`s may outlive terms in
//! diagnostics). See `tests/arena_growth.rs` for the 100-cycle bound.

use crate::con::Con;
use crate::expr::{Expr, Lit};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of shards; must be a power of two.
pub const NUM_SHARDS: usize = 16;
/// Bits of an id reserved for the within-shard index.
const SHARD_SHIFT: u32 = 28;
const INDEX_MASK: u32 = (1 << SHARD_SHIFT) - 1;
/// Slots in segment 0; segment `s` holds `SEG_BASE << s` slots.
const SEG_BASE: usize = 1 << 10;
/// Enough segments to cover the 28-bit index space.
const NUM_SEGS: usize = 20;

/// Identity of a canonical (interned) constructor node. `==` on `ConId` is
/// O(1) structural equality of the underlying trees; the handle derefs to
/// the canonical `Con` (with `'static` lifetime via [`ConId::get`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConId(pub u32);

/// Identity of a canonical (interned) expression node; same contract as
/// [`ConId`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// An interned string handle (record labels, symbol names, string
/// literals). `==` is O(1); derefs to `&'static str`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IStr(u32);

/// Precomputed per-node facts, OR-ed bottom-up over children at intern
/// time. All three are *syntactic* and conservative: `HAS_VAR` counts bound
/// occurrences too, and `HAS_META` means a `Con::Meta` node is physically
/// present (whether or not it is solved in some `MetaCx`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Flags(pub(crate) u8);

impl Flags {
    pub(crate) const HAS_VAR: u8 = 1;
    pub(crate) const HAS_META: u8 = 1 << 1;
    pub(crate) const HAS_KMETA: u8 = 1 << 2;

    /// Contains a `Con::Var` node (free *or* bound).
    pub fn has_var(self) -> bool {
        self.0 & Flags::HAS_VAR != 0
    }

    /// Contains a `Con::Meta` node.
    pub fn has_meta(self) -> bool {
        self.0 & Flags::HAS_META != 0
    }

    /// Contains a `Kind::Meta` inside an embedded kind annotation.
    pub fn has_kmeta(self) -> bool {
        self.0 & Flags::HAS_KMETA != 0
    }

    /// No variables and no (constructor or kind) metavariables anywhere.
    pub fn is_closed(self) -> bool {
        self.0 == 0
    }
}

// ---------------------------------------------------------------------------
// Generic sharded store
// ---------------------------------------------------------------------------

struct Slot<T> {
    val: T,
    hash: u64,
    flags: u8,
}

struct Shard<T: 'static> {
    /// Hash-cons map from shallow key to within-shard index. The key type
    /// is a wrapper so `Expr` can hash float literals by bit pattern.
    map: RwLock<HashMap<KeyWrap<T>, u32>>,
    /// Append-only storage segments; slot addresses are stable for the
    /// life of the process (segments are allocated once and reused across
    /// resets).
    segs: [AtomicPtr<Slot<T>>; NUM_SEGS],
    /// Number of fully initialized slots, `Release`-published after each
    /// slot write so lock-free readers see initialized memory.
    published: AtomicU32,
}

/// Map key wrapper: hashes/compares via [`ArenaVal::key_hash`] /
/// [`ArenaVal::key_eq`] so `Expr` float literals use bit equality (a NaN
/// literal still hash-conses to a single node).
struct KeyWrap<T> {
    hash: u64,
    val: T,
}

impl<T: ArenaVal> PartialEq for KeyWrap<T> {
    fn eq(&self, other: &KeyWrap<T>) -> bool {
        self.hash == other.hash && self.val.key_eq(&other.val)
    }
}
impl<T: ArenaVal> Eq for KeyWrap<T> {}
impl<T: ArenaVal> Hash for KeyWrap<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Values storable in a sharded intern store. `key_hash`/`key_eq` define
/// the *shallow* structural key: children are already ids, so both are
/// O(arity) and never walk the tree.
pub(crate) trait ArenaVal: Clone + 'static {
    fn key_hash(&self) -> u64;
    fn key_eq(&self, other: &Self) -> bool;
}

impl ArenaVal for Con {
    fn key_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
    fn key_eq(&self, other: &Con) -> bool {
        self == other
    }
}

impl ArenaVal for Expr {
    fn key_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        hash_expr_shallow(self, &mut h);
        h.finish()
    }
    fn key_eq(&self, other: &Expr) -> bool {
        match (self, other) {
            // Bit equality on float literals so the key is Eq-lawful
            // (NaN == NaN here; -0.0 and 0.0 get distinct nodes).
            (Expr::Lit(Lit::Float(a)), Expr::Lit(Lit::Float(b))) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

fn hash_expr_shallow<H: Hasher>(e: &Expr, h: &mut H) {
    std::mem::discriminant(e).hash(h);
    match e {
        Expr::Var(s) => s.hash(h),
        Expr::Lit(l) => {
            match l {
                Lit::Int(n) => {
                    0u8.hash(h);
                    n.hash(h);
                }
                Lit::Float(x) => {
                    1u8.hash(h);
                    x.to_bits().hash(h);
                }
                Lit::Str(s) => {
                    2u8.hash(h);
                    s.hash(h);
                }
                Lit::Bool(b) => {
                    3u8.hash(h);
                    b.hash(h);
                }
                Lit::Unit => 4u8.hash(h),
            };
        }
        Expr::App(a, b) | Expr::RecCat(a, b) => {
            a.hash(h);
            b.hash(h);
        }
        Expr::Lam(s, t, b) => {
            s.hash(h);
            t.hash(h);
            b.hash(h);
        }
        Expr::CApp(e1, c) => {
            e1.hash(h);
            c.hash(h);
        }
        Expr::CLam(s, k, b) => {
            s.hash(h);
            k.hash(h);
            b.hash(h);
        }
        Expr::RecNil | Expr::DApp(_) => {
            if let Expr::DApp(e1) = e {
                e1.hash(h);
            }
        }
        Expr::RecOne(c, e1) => {
            c.hash(h);
            e1.hash(h);
        }
        Expr::Proj(e1, c) | Expr::Cut(e1, c) => {
            e1.hash(h);
            c.hash(h);
        }
        Expr::DLam(c1, c2, b) => {
            c1.hash(h);
            c2.hash(h);
            b.hash(h);
        }
        Expr::Let(s, t, e1, e2) => {
            s.hash(h);
            t.hash(h);
            e1.hash(h);
            e2.hash(h);
        }
        Expr::If(c, t, f) => {
            c.hash(h);
            t.hash(h);
            f.hash(h);
        }
    }
}

/// Locate within-shard index `idx` as `(segment, offset)`.
#[inline]
fn locate(idx: u32) -> (usize, usize) {
    let chunk = (idx as usize / SEG_BASE) + 1;
    let seg = (usize::BITS - 1 - chunk.leading_zeros()) as usize;
    let off = idx as usize - SEG_BASE * ((1 << seg) - 1);
    (seg, off)
}

struct Store<T: ArenaVal> {
    shards: Vec<Shard<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
}

impl<T: ArenaVal> Store<T> {
    fn new() -> Store<T> {
        let shards = (0..NUM_SHARDS)
            .map(|_| Shard {
                map: RwLock::new(HashMap::new()),
                segs: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
                published: AtomicU32::new(0),
            })
            .collect();
        Store {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contention: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(hash: u64) -> usize {
        (hash >> 60) as usize & (NUM_SHARDS - 1)
    }

    /// Interns `val` (with caller-computed `flags`), returning its global
    /// id. Read-locks on the hit path; write-locks only on a miss.
    fn intern(&self, val: T, flags: u8) -> u32 {
        let hash = val.key_hash();
        let si = Store::<T>::shard_of(hash);
        let shard = &self.shards[si];
        let probe = KeyWrap { hash, val };
        {
            let map = match shard.map.try_read() {
                Ok(g) => g,
                Err(std::sync::TryLockError::WouldBlock) => {
                    self.contention.fetch_add(1, Ordering::Relaxed);
                    match shard.map.read() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    }
                }
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            };
            if let Some(&idx) = map.get(&probe) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return compose(si, idx);
            }
        }
        let mut map = match shard.map.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                match shard.map.write() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                }
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        // Re-check: another thread may have interned between our read
        // unlock and write lock.
        if let Some(&idx) = map.get(&probe) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return compose(si, idx);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = shard.published.load(Ordering::Relaxed);
        debug_assert!(idx <= INDEX_MASK, "arena shard overflow");
        let (seg, off) = locate(idx);
        let mut base = shard.segs[seg].load(Ordering::Acquire);
        if base.is_null() {
            // Allocate the segment (only writers reach here, and we hold
            // the shard's write lock, so there is no allocation race).
            let cap = SEG_BASE << seg;
            let mut v: Vec<Slot<T>> = Vec::with_capacity(cap);
            base = v.as_mut_ptr();
            std::mem::forget(v);
            shard.segs[seg].store(base, Ordering::Release);
        }
        let slot = Slot {
            val: probe.val.clone(),
            hash,
            flags,
        };
        // Safety: `off` is within the segment's reserved capacity; the
        // slot is uninitialized (indices are handed out exactly once per
        // generation, and reset drops all initialized slots first).
        unsafe {
            ptr::write(base.add(off), slot);
        }
        shard.published.store(idx + 1, Ordering::Release);
        map.insert(probe, idx);
        compose(si, idx)
    }

    /// Resolves a global id to its slot; `None` for forged/stale ids.
    #[inline]
    fn slot(&self, id: u32) -> Option<&'static Slot<T>> {
        let si = (id >> SHARD_SHIFT) as usize;
        let idx = id & INDEX_MASK;
        let shard = self.shards.get(si)?;
        if idx >= shard.published.load(Ordering::Acquire) {
            return None;
        }
        let (seg, off) = locate(idx);
        let base = shard.segs[seg].load(Ordering::Acquire);
        if base.is_null() {
            return None;
        }
        // Safety: `idx < published` implies the slot was fully written
        // before the Release store we just Acquire-loaded; slots are never
        // moved or freed (reset drops in place only when no ids are live,
        // and even then the memory remains allocated).
        unsafe { Some(&*base.add(off)) }
    }

    fn nodes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.published.load(Ordering::Relaxed) as u64)
            .sum()
    }

    fn per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.published.load(Ordering::Relaxed) as u64)
            .collect()
    }

    /// Approximate resident bytes: slot storage plus one key copy per map
    /// entry (the hash-cons map owns a shallow clone of each node).
    fn bytes(&self) -> u64 {
        let per_node = std::mem::size_of::<Slot<T>>() + std::mem::size_of::<KeyWrap<T>>() + 16;
        self.nodes() * per_node as u64
    }

    /// Drops all slots in place and clears the maps. Caller must hold the
    /// arena-wide quiescence guarantee (no live ids).
    fn drain(&self) {
        for shard in &self.shards {
            let mut map = match shard.map.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let len = shard.published.load(Ordering::Relaxed);
            // Unpublish first so a racing (buggy) reader sees "stale id"
            // rather than a dropped slot.
            shard.published.store(0, Ordering::Release);
            for idx in 0..len {
                let (seg, off) = locate(idx);
                let base = shard.segs[seg].load(Ordering::Acquire);
                if !base.is_null() {
                    // Safety: each idx < len was initialized exactly once
                    // and is dropped exactly once here.
                    unsafe {
                        ptr::drop_in_place(base.add(off));
                    }
                }
            }
            map.clear();
        }
    }
}

#[inline]
fn compose(shard: usize, idx: u32) -> u32 {
    ((shard as u32) << SHARD_SHIFT) | idx
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

struct StrStore {
    shards: Vec<RwLock<HashMap<&'static str, u32>>>,
    /// Global slot table mapping `IStr` index -> leaked string.
    slots: RwLock<Vec<&'static str>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StrStore {
    fn new() -> StrStore {
        StrStore {
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            slots: RwLock::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn intern(&self, s: &str) -> u32 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        let si = (h.finish() >> 60) as usize & (NUM_SHARDS - 1);
        {
            let map = match self.shards[si].read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if let Some(&id) = map.get(s) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return id;
            }
        }
        let mut map = match self.shards[si].write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some(&id) = map.get(s) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let mut slots = match self.slots.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let id = slots.len() as u32;
        slots.push(leaked);
        drop(slots);
        map.insert(leaked, id);
        id
    }

    fn get(&self, id: u32) -> &'static str {
        let slots = match self.slots.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slots.get(id as usize).copied().unwrap_or("")
    }

    fn count(&self) -> u64 {
        let slots = match self.slots.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slots.len() as u64
    }

    fn bytes(&self) -> u64 {
        let slots = match self.slots.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slots
            .iter()
            .map(|s| s.len() as u64 + 24)
            .sum::<u64>()
    }
}

// ---------------------------------------------------------------------------
// The arena singleton
// ---------------------------------------------------------------------------

struct Arena {
    cons: Store<Con>,
    exprs: Store<Expr>,
    strs: StrStore,
    generation: AtomicU64,
    leases: AtomicUsize,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        cons: Store::new(),
        exprs: Store::new(),
        strs: StrStore::new(),
        generation: AtomicU64::new(0),
        leases: AtomicUsize::new(0),
    })
}

/// Interns a constructor whose children are already canonical ids,
/// computing flags bottom-up from the children. This is the single funnel
/// all `Con` smart constructors go through.
pub(crate) fn mk_con(con: Con) -> ConId {
    let flags = con_flags_shallow(&con);
    ConId(arena().cons.intern(con, flags))
}

fn kind_bit(k: &crate::kind::Kind) -> u8 {
    if k.is_ground() {
        0
    } else {
        Flags::HAS_KMETA
    }
}

fn con_flags_shallow(c: &Con) -> u8 {
    let child = |id: &ConId| -> u8 { id.flags().0 };
    match c {
        Con::Var(_) => Flags::HAS_VAR,
        Con::Meta(_) => Flags::HAS_META,
        Con::Prim(_) | Con::Name(_) => 0,
        Con::Arrow(a, b)
        | Con::App(a, b)
        | Con::RowOne(a, b)
        | Con::RowCat(a, b)
        | Con::Pair(a, b) => child(a) | child(b),
        Con::Poly(_, k, t) | Con::Lam(_, k, t) => child(t) | kind_bit(k),
        Con::Guarded(a, b, t) => child(a) | child(b) | child(t),
        Con::Record(r) | Con::Fst(r) | Con::Snd(r) => child(r),
        Con::RowNil(k) | Con::Folder(k) => kind_bit(k),
        Con::Map(k1, k2) => kind_bit(k1) | kind_bit(k2),
    }
}

/// Interns an expression whose children are already canonical ids.
pub(crate) fn mk_expr(e: Expr) -> ExprId {
    ExprId(arena().exprs.intern(e, 0))
}

/// Interns a string, returning its handle.
pub fn istr(s: &str) -> IStr {
    IStr(arena().strs.intern(s))
}

static UNIT_CON: OnceLock<ConId> = OnceLock::new();
static UNIT_EXPR: OnceLock<ExprId> = OnceLock::new();

impl ConId {
    /// The canonical node, with the arena's `'static` lifetime. Forged or
    /// stale (post-reset) ids resolve to the canonical `unit` type rather
    /// than panicking; debug builds assert instead.
    #[inline]
    pub fn get(self) -> &'static Con {
        if let Some(slot) = arena().cons.slot(self.0) {
            &slot.val
        } else {
            debug_assert!(false, "dangling ConId {:#x}", self.0);
            let fallback = *UNIT_CON
                .get_or_init(|| mk_con(Con::Prim(crate::con::PrimType::Unit)));
            match arena().cons.slot(fallback.0) {
                Some(slot) => &slot.val,
                // Unreachable: the fallback was interned one line above.
                None => loop {
                    std::hint::spin_loop();
                },
            }
        }
    }

    /// Precomputed flags (has-var / has-meta / has-kmeta).
    #[inline]
    pub fn flags(self) -> Flags {
        match arena().cons.slot(self.0) {
            Some(slot) => Flags(slot.flags),
            None => Flags::default(),
        }
    }

    /// The stable structural hash computed once at intern time.
    #[inline]
    pub fn node_hash(self) -> u64 {
        match arena().cons.slot(self.0) {
            Some(slot) => slot.hash,
            None => 0,
        }
    }
}

impl Deref for ConId {
    type Target = Con;
    #[inline]
    fn deref(&self) -> &Con {
        self.get()
    }
}

impl ExprId {
    /// The canonical node, with the arena's `'static` lifetime; same
    /// forged-id contract as [`ConId::get`].
    #[inline]
    pub fn get(self) -> &'static Expr {
        if let Some(slot) = arena().exprs.slot(self.0) {
            &slot.val
        } else {
            debug_assert!(false, "dangling ExprId {:#x}", self.0);
            let fallback = *UNIT_EXPR.get_or_init(|| mk_expr(Expr::Lit(Lit::Unit)));
            match arena().exprs.slot(fallback.0) {
                Some(slot) => &slot.val,
                None => loop {
                    std::hint::spin_loop();
                },
            }
        }
    }

    /// The stable structural hash computed once at intern time.
    #[inline]
    pub fn node_hash(self) -> u64 {
        match arena().exprs.slot(self.0) {
            Some(slot) => slot.hash,
            None => 0,
        }
    }
}

impl Deref for ExprId {
    type Target = Expr;
    #[inline]
    fn deref(&self) -> &Expr {
        self.get()
    }
}

impl IStr {
    #[inline]
    pub fn as_str(self) -> &'static str {
        arena().strs.get(self.0)
    }

    /// The raw slot index (used by the disk codec).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl Deref for IStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &IStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    /// Lexicographic on the underlying strings (so sorted label lists are
    /// deterministic across processes, not dependent on intern order).
    fn cmp(&self, other: &IStr) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::fmt::Display for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl std::fmt::Debug for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        istr(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        istr(&s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        istr(s)
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

// ---------------------------------------------------------------------------
// Leases, reset, generation
// ---------------------------------------------------------------------------

/// RAII token counting a live arena user (a `Session`, a worker pool).
/// While any lease is outstanding, [`try_reset`] refuses to run.
pub struct ArenaLease(());

impl ArenaLease {
    fn acquire() -> ArenaLease {
        arena().leases.fetch_add(1, Ordering::AcqRel);
        ArenaLease(())
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        arena().leases.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Takes a lease on the arena; hold it for as long as ids minted during
/// the lease may be dereferenced.
pub fn lease() -> ArenaLease {
    ArenaLease::acquire()
}

/// Number of outstanding leases.
pub fn lease_count() -> usize {
    arena().leases.load(Ordering::Acquire)
}

/// The current arena generation; bumped by every successful [`try_reset`].
pub fn generation() -> u64 {
    arena().generation.load(Ordering::Acquire)
}

/// Drains the term arena if no leases are outstanding: drops every `Con`
/// and `Expr` slot in place, clears the hash-cons maps, and bumps the
/// generation. The string table survives (labels are tiny and may be
/// cached in diagnostics). Returns whether the reset ran.
///
/// This is deliberately opt-in: callers must guarantee no `ConId`/`ExprId`
/// minted before the reset is dereferenced after it. The embedding
/// `Session` ties a lease to its lifetime, so "no live sessions" is the
/// quiescence condition.
pub fn try_reset() -> bool {
    let a = arena();
    if a.leases.load(Ordering::Acquire) != 0 {
        return false;
    }
    a.cons.drain();
    a.exprs.drain();
    a.generation.fetch_add(1, Ordering::AcqRel);
    true
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Snapshot of the shared arena's size, composition, and lock behaviour.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Canonical constructor nodes.
    pub con_nodes: u64,
    /// Canonical expression nodes.
    pub expr_nodes: u64,
    /// Interned strings (labels, symbol names, string literals).
    pub strings: u64,
    /// Approximate resident bytes across all three stores.
    pub bytes: u64,
    /// Constructor nodes per shard (length [`NUM_SHARDS`]).
    pub con_per_shard: Vec<u64>,
    /// Intern requests answered by an existing node (cons + exprs).
    pub hits: u64,
    /// Intern requests that allocated (cons + exprs).
    pub misses: u64,
    /// String-intern hits.
    pub str_hits: u64,
    /// String-intern misses.
    pub str_misses: u64,
    /// Times a shard lock was contended (try-lock failed and the caller
    /// had to block).
    pub contention: u64,
    /// Arena generation (bumped by [`try_reset`]).
    pub generation: u64,
    /// Outstanding [`ArenaLease`]s.
    pub leases: u64,
}

impl ArenaStats {
    /// Hash-cons hit rate over term interning, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Current global arena statistics.
pub fn stats() -> ArenaStats {
    let a = arena();
    ArenaStats {
        con_nodes: a.cons.nodes(),
        expr_nodes: a.exprs.nodes(),
        strings: a.strs.count(),
        bytes: a.cons.bytes() + a.exprs.bytes() + a.strs.bytes(),
        con_per_shard: a.cons.per_shard(),
        hits: a.cons.hits.load(Ordering::Relaxed) + a.exprs.hits.load(Ordering::Relaxed),
        misses: a.cons.misses.load(Ordering::Relaxed) + a.exprs.misses.load(Ordering::Relaxed),
        str_hits: a.strs.hits.load(Ordering::Relaxed),
        str_misses: a.strs.misses.load(Ordering::Relaxed),
        contention: a.cons.contention.load(Ordering::Relaxed)
            + a.exprs.contention.load(Ordering::Relaxed),
        generation: a.generation.load(Ordering::Relaxed),
        leases: a.leases.load(Ordering::Relaxed) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::{Con, PrimType};

    #[test]
    fn locate_covers_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate((SEG_BASE - 1) as u32), (0, SEG_BASE - 1));
        assert_eq!(locate(SEG_BASE as u32), (1, 0));
        assert_eq!(locate((3 * SEG_BASE - 1) as u32), (1, 2 * SEG_BASE - 1));
        assert_eq!(locate((3 * SEG_BASE) as u32), (2, 0));
        // Round-trip a spread of indices.
        for idx in [0u32, 1, 1023, 1024, 4096, 100_000, 1_000_000] {
            let (seg, off) = locate(idx);
            let start: usize = SEG_BASE * ((1usize << seg) - 1);
            assert_eq!(start + off, idx as usize, "idx {idx}");
            assert!(off < SEG_BASE << seg, "idx {idx} overflows its segment");
        }
    }

    #[test]
    fn istr_interning_shares_ids() {
        let a = istr("hello-arena");
        let b = istr(&String::from("hello-arena"));
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello-arena");
        let c = istr("other");
        assert_ne!(a, c);
    }

    #[test]
    fn istr_orders_lexicographically() {
        // Intern in reverse order so slot order disagrees with lex order.
        let b = istr("zz-lex-b");
        let a = istr("aa-lex-a");
        assert!(a < b);
    }

    #[test]
    fn con_interning_is_canonical() {
        let a = mk_con(Con::Prim(PrimType::Int));
        let b = mk_con(Con::Prim(PrimType::Int));
        assert_eq!(a, b);
        assert!(matches!(*a, Con::Prim(PrimType::Int)));
    }

    #[test]
    fn expr_float_nan_hash_conses() {
        let a = mk_expr(Expr::Lit(Lit::Float(f64::NAN)));
        let b = mk_expr(Expr::Lit(Lit::Float(f64::NAN)));
        assert_eq!(a, b, "NaN literals must share one node");
        let c = mk_expr(Expr::Lit(Lit::Float(1.5)));
        assert_ne!(a, c);
    }

    #[test]
    fn stats_report_nodes_and_hits() {
        let before = stats();
        let _ = mk_con(Con::Prim(PrimType::Bool));
        let _ = mk_con(Con::Prim(PrimType::Bool));
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.con_nodes >= before.con_nodes);
        assert!(after.bytes > 0);
        assert_eq!(after.con_per_shard.len(), NUM_SHARDS);
        assert_eq!(after.con_per_shard.iter().sum::<u64>(), after.con_nodes);
    }

    #[test]
    fn leases_block_reset() {
        let l = lease();
        assert!(lease_count() >= 1);
        assert!(!try_reset(), "reset must refuse while a lease is live");
        drop(l);
    }
}
