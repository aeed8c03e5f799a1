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
//! of the node hash. Each shard holds a `RwLock`ed hash-cons `Table`
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
//! write the slot, `Release`-store the watermark, then insert the index
//! into the table and return the id — any thread that can *name* an id
//! observed it via a synchronizing edge (the table's lock, a channel
//! send, a mutex), which carries the slot contents with it.
//!
//! ## Hash-cons tables
//!
//! Each intern hashes its node once, with SipHash keyed by a
//! `RandomState` every store draws once per process. The hash's top bits
//! pick the shard; its low 32 bits pick the table position and are the
//! only part kept. A shard's table is open-addressed with triangular
//! probing, and its buckets hold no node: a bucket is one `u64`, those 32
//! hash bits above the within-shard index + 1 (0 is empty). A probe
//! derefs a slot only when the bucket's hash bits match, then compares
//! the shallow key (the node's own `Eq`); a miss moves the node into its
//! slot. Growth doubles the bucket array under the write lock and
//! re-places every bucket from the hash bits it carries, reading no slot.
//! The per-process key keeps inputs from choosing nodes that share one
//! shard or one probe run; no hash is stable across processes, and
//! nothing needs one to be.
//!
//! ## Growth bound
//!
//! Hash-consing bounds growth by the number of *distinct* shallow keys,
//! and [`try_reset`] provides the generation story: a [`Session`]-scoped
//! [`ArenaLease`] counts live users, and when the count is zero the arena
//! may be drained in place (slots dropped, tables emptied and their
//! bucket arrays released, generation bumped; the string table survives because `IStr`s may
//! outlive terms in diagnostics). See `tests/arena_growth.rs` for the
//! 100-cycle bound.

use crate::con::Con;
use crate::expr::{Expr, Lit};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
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
    flags: u8,
}

struct Shard<T: 'static> {
    /// Hash-cons index over this shard's slots.
    table: RwLock<Table>,
    /// Append-only storage segments; slot addresses are stable for the
    /// life of the process (segments are allocated once and reused across
    /// resets).
    segs: [AtomicPtr<Slot<T>>; NUM_SEGS],
    /// Number of fully initialized slots, `Release`-published after each
    /// slot write so lock-free readers see initialized memory.
    published: AtomicU32,
}

impl<T> Shard<T> {
    /// The slot at within-shard index `idx`; `None` unless published.
    #[inline]
    fn slot(&self, idx: u32) -> Option<&'static Slot<T>> {
        if idx >= self.published.load(Ordering::Acquire) {
            return None;
        }
        let (seg, off) = locate(idx);
        let base = self.segs[seg].load(Ordering::Acquire);
        if base.is_null() {
            return None;
        }
        // Safety: `idx < published` implies the slot was fully written
        // before the Release store we just Acquire-loaded; slots are never
        // moved or freed (reset drops in place only when no ids are live,
        // and even then the memory remains allocated).
        unsafe { Some(&*base.add(off)) }
    }
}

/// Buckets a shard table allocates for its first entry.
const TABLE_MIN_BUCKETS: usize = 64;

/// An open-addressed hash-cons index over a power-of-two bucket array,
/// kept at most 7/8 full. Probes step 1, 2, 3, ... buckets (triangular
/// numbers visit every bucket of a power-of-two table), which keeps
/// probe runs short at that load. A bucket packs a node's 32-bit table
/// hash (high half) above its within-shard index plus one (low half), so
/// 0 marks an empty bucket. The table never holds a node: callers
/// resolve an index to its slot to compare keys.
#[derive(Default)]
struct Table {
    buckets: Vec<u64>,
    len: usize,
}

impl Table {
    /// The index stored under `hash` that `is_key` accepts. `is_key` is
    /// asked only about indices whose bucket carries `hash`.
    fn find(&self, hash: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut pos = hash as usize & mask;
        for step in 1.. {
            let b = self.buckets[pos];
            if b == 0 {
                break;
            }
            let idx = (b as u32).wrapping_sub(1);
            if (b >> 32) as u32 == hash && is_key(idx) {
                return Some(idx);
            }
            pos = (pos + step) & mask;
        }
        None
    }

    /// Adds `idx` under `hash`; the caller has checked that no stored
    /// index is the same key. Doubling re-places every bucket from the
    /// hash it carries.
    fn insert(&mut self, hash: u32, idx: u32) {
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            let cap = (self.buckets.len() * 2).max(TABLE_MIN_BUCKETS);
            let old = std::mem::replace(&mut self.buckets, vec![0; cap]);
            for b in old.into_iter().filter(|&b| b != 0) {
                self.place(b);
            }
        }
        self.place((u64::from(hash) << 32) | (u64::from(idx) + 1));
        self.len += 1;
    }

    fn place(&mut self, bucket: u64) {
        let mask = self.buckets.len() - 1;
        let mut pos = (bucket >> 32) as usize & mask;
        let mut step = 0;
        while self.buckets[pos] != 0 {
            step += 1;
            pos = (pos + step) & mask;
        }
        self.buckets[pos] = bucket;
    }

    /// Empties the table and releases its bucket array, so it regrows
    /// from [`TABLE_MIN_BUCKETS`] as a fresh table does.
    fn clear(&mut self) {
        *self = Table::default();
    }

    fn bytes(&self) -> u64 {
        (self.buckets.len() * std::mem::size_of::<u64>()) as u64
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

/// A sharded intern store. A node value is its own *shallow* key:
/// children are already ids, so hashing and comparing it are O(arity)
/// and never walk the tree.
struct Store<T: Hash + Eq + 'static> {
    shards: Vec<Shard<T>>,
    /// Keys every node hash; drawn once, when the store is created.
    keys: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
}

impl<T: Hash + Eq + 'static> Store<T> {
    fn new() -> Store<T> {
        let shards = (0..NUM_SHARDS)
            .map(|_| Shard {
                table: RwLock::new(Table::default()),
                segs: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
                published: AtomicU32::new(0),
            })
            .collect();
        Store {
            shards,
            keys: RandomState::new(),
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
        let full = self.keys.hash_one(&val);
        let si = Store::<T>::shard_of(full);
        let shard = &self.shards[si];
        // The shard came from the top bits; the table keeps the low 32.
        let hash = full as u32;
        let is_val = |idx: u32| shard.slot(idx).is_some_and(|s| s.val == val);
        {
            let table = match shard.table.try_read() {
                Ok(g) => g,
                Err(std::sync::TryLockError::WouldBlock) => {
                    self.contention.fetch_add(1, Ordering::Relaxed);
                    match shard.table.read() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    }
                }
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            };
            if let Some(idx) = table.find(hash, is_val) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return compose(si, idx);
            }
        }
        let mut table = match shard.table.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                match shard.table.write() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                }
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        // Re-check: another thread may have interned between our read
        // unlock and write lock.
        if let Some(idx) = table.find(hash, is_val) {
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
        let slot = Slot { val, flags };
        // Safety: `off` is within the segment's reserved capacity; the
        // slot is uninitialized (indices are handed out exactly once per
        // generation, and reset drops all initialized slots first).
        unsafe {
            ptr::write(base.add(off), slot);
        }
        shard.published.store(idx + 1, Ordering::Release);
        table.insert(hash, idx);
        compose(si, idx)
    }

    /// Resolves a global id to its slot; `None` for forged/stale ids.
    #[inline]
    fn slot(&self, id: u32) -> Option<&'static Slot<T>> {
        let shard = self.shards.get((id >> SHARD_SHIFT) as usize)?;
        shard.slot(id & INDEX_MASK)
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

    /// Bytes the store holds: the slots of published nodes plus every
    /// shard table's bucket array.
    fn bytes(&self) -> u64 {
        let slots = self.nodes() * std::mem::size_of::<Slot<T>>() as u64;
        let tables: u64 = self
            .shards
            .iter()
            .map(|s| match s.table.read() {
                Ok(t) => t.bytes(),
                Err(poisoned) => poisoned.into_inner().bytes(),
            })
            .sum();
        slots + tables
    }

    /// Drops all slots in place and empties the tables. Caller must hold
    /// the arena-wide quiescence guarantee (no live ids).
    fn drain(&self) {
        for shard in &self.shards {
            let mut table = match shard.table.write() {
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
            table.clear();
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
    /// Bytes the three stores hold: for terms, the slots of published
    /// nodes plus every shard table's bucket array; for strings, their
    /// lengths plus a 24-byte entry each.
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

/// Current global arena statistics. The constructor count is the sum
/// of the per-shard counts read in the same pass, so the two agree even
/// while other threads intern.
pub fn stats() -> ArenaStats {
    let a = arena();
    let con_per_shard = a.cons.per_shard();
    ArenaStats {
        con_nodes: con_per_shard.iter().sum(),
        expr_nodes: a.exprs.nodes(),
        strings: a.strs.count(),
        bytes: a.cons.bytes() + a.exprs.bytes() + a.strs.bytes(),
        con_per_shard,
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
    use crate::con::{Con, MetaId, PrimType};
    use crate::kind::{KMetaId, Kind};
    use crate::sym::Sym;

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
    fn distinct_terms_get_distinct_ids() {
        let a = Con::arrow(Con::int(), Con::string());
        let b = Con::arrow(Con::string(), Con::int());
        assert_ne!(a, b);
    }

    #[test]
    fn binders_with_distinct_syms_do_not_collide() {
        let (x, y) = (Sym::fresh("x"), Sym::fresh("y"));
        let lx = Con::lam(x, Kind::Type, Con::var(&x));
        let ly = Con::lam(y, Kind::Type, Con::var(&y));
        assert_ne!(lx, ly);
        // ... but rebuilding the *same* binder does collide.
        let lx2 = Con::lam(x, Kind::Type, Con::var(&x));
        assert_eq!(lx, lx2);
    }

    #[test]
    fn flags_track_vars_and_metas() {
        let closed = Con::arrow(Con::int(), Con::string());
        assert!(closed.flags().is_closed());

        let v = Con::var(&Sym::fresh("a"));
        assert!(v.flags().has_var());
        assert!(!v.flags().has_meta());

        let m = Con::meta(MetaId(901_000));
        assert!(m.flags().has_meta());

        let nested = Con::pair(Con::int(), m);
        assert!(nested.flags().has_meta());
        assert!(!nested.is_meta());

        let kmeta = Con::row_nil(Kind::Meta(KMetaId(901_001)));
        assert!(kmeta.flags().has_kmeta());
        assert!(!kmeta.flags().is_closed());
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

    /// Buckets a table holds for `nodes` entries: it starts at
    /// [`TABLE_MIN_BUCKETS`] and doubles past 7/8 full.
    fn buckets_for(nodes: u64) -> u64 {
        if nodes == 0 {
            return 0;
        }
        let mut cap = TABLE_MIN_BUCKETS as u64;
        while nodes * 8 > cap * 7 {
            cap *= 2;
        }
        cap
    }

    #[test]
    fn colliding_hashes_stay_distinct_and_findable() {
        // Keys whose synthetic hashes share one bucket position and one
        // full hash, next to keys that share only the position.
        let keys: Vec<String> = (0..300).map(|i| format!("k{i}")).collect();
        let hash = |k: &str| {
            let n: u32 = k[1..].parse().unwrap();
            if n.is_multiple_of(3) {
                0xABC0_0005
            } else {
                (n << 20) | 5
            }
        };
        let mut table = Table::default();
        for (i, k) in keys.iter().enumerate() {
            let h = hash(k);
            assert_eq!(table.find(h, |j| keys[j as usize] == *k), None);
            table.insert(h, i as u32);
        }
        assert_eq!(table.len, keys.len());
        assert_eq!(table.buckets.len(), buckets_for(keys.len() as u64) as usize);
        for (i, k) in keys.iter().enumerate() {
            let found = table.find(hash(k), |j| {
                // Only indices whose bucket carries the same hash.
                assert_eq!(hash(&keys[j as usize]), hash(k));
                keys[j as usize] == *k
            });
            assert_eq!(found, Some(i as u32), "{k}");
        }
        assert_eq!(table.find(hash("k3"), |_| false), None);
    }

    #[test]
    fn growing_a_shard_keeps_every_id() {
        let store: Store<Con> = Store::new();
        let meta = |i: u32| Con::Meta(MetaId(i));
        let first = store.intern(meta(0), 0);
        let shard = &store.shards[(first >> SHARD_SHIFT) as usize];
        let buckets = || shard.table.read().unwrap().buckets.len();
        assert_eq!(buckets(), TABLE_MIN_BUCKETS);
        let mut ids = vec![first];
        // Three doublings of the first node's shard table.
        while buckets() < TABLE_MIN_BUCKETS * 8 {
            ids.push(store.intern(meta(ids.len() as u32), 0));
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(store.intern(meta(i as u32), 0), id);
            assert_eq!(store.slot(id).unwrap().val, meta(i as u32));
        }
    }

    #[test]
    fn drain_then_reintern_derefs_correctly() {
        let store: Store<Con> = Store::new();
        let vals: Vec<Con> = (0..500).map(|i| Con::Meta(MetaId(i))).collect();
        let ids: Vec<u32> = vals.iter().map(|v| store.intern(v.clone(), 0)).collect();
        store.drain();
        assert_eq!(store.nodes(), 0);
        assert!(store.slot(ids[0]).is_none(), "drained ids are stale");
        for shard in &store.shards {
            let table = shard.table.read().unwrap();
            assert_eq!(table.len, 0);
            assert!(table.buckets.iter().all(|&b| b == 0));
        }
        // Re-intern in reverse so indices land on different slots.
        for v in vals.iter().rev() {
            let id = store.intern(v.clone(), 0);
            assert_eq!(&store.slot(id).unwrap().val, v);
            assert_eq!(store.intern(v.clone(), 0), id);
        }
        assert_eq!(store.nodes(), vals.len() as u64);
    }

    #[test]
    fn bytes_count_slots_and_buckets() {
        let store: Store<Con> = Store::new();
        const N: u32 = 1000;
        for i in 0..N {
            store.intern(Con::Meta(MetaId(i)), 0);
        }
        let tables: u64 = store
            .per_shard()
            .into_iter()
            .map(|n| buckets_for(n) * 8)
            .sum();
        let slots = u64::from(N) * std::mem::size_of::<Slot<Con>>() as u64;
        assert_eq!(store.bytes(), slots + tables);
    }

    #[test]
    fn a_drained_store_holds_what_a_fresh_one_does() {
        let store: Store<Con> = Store::new();
        for i in 0..5_000 {
            store.intern(Con::Meta(MetaId(i)), 0);
        }
        assert!(store.bytes() > Store::<Con>::new().bytes());
        store.drain();
        assert_eq!(store.bytes(), Store::<Con>::new().bytes());
        // The tables regrow from the minimum, as a fresh store's do.
        store.intern(Con::Meta(MetaId(0)), 0);
        assert_eq!(
            store.bytes(),
            std::mem::size_of::<Slot<Con>>() as u64 + 8 * TABLE_MIN_BUCKETS as u64
        );
    }

    #[test]
    fn leases_block_reset() {
        let l = lease();
        assert!(lease_count() >= 1);
        assert!(!try_reset(), "reset must refuse while a lease is live");
        drop(l);
    }
}
