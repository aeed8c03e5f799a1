//! Symbol linking: process-independent encoding of elaboration outcomes.
//!
//! A cached outcome ([`ur_infer::Outcome`]) is full of [`Sym`] ids, and
//! sym ids come from a process-global counter — an id persisted by one
//! `urc` run aliases a completely unrelated symbol in the next. Before
//! an outcome can live in the on-disk cache, every sym occurrence must
//! be rewritten into a *linked* form ([`LSym`]) that names symbols by
//! role rather than by id. This codec serves only the disk layer: the
//! engine's memory layer keeps live outcomes, whose ids are valid for
//! the process's lifetime (see [`crate::engine`]). The linked forms:
//!
//! * [`LSym::BaseCon`]/[`LSym::BaseVal`] — the *ord*-th constructor/value
//!   binding of the base (post-prelude) environment, enumerated in sym-id
//!   order. Id order is creation order, so the enumeration is identical
//!   in every process that elaborated the same prelude (the cache's
//!   environment fingerprint guarantees exactly that).
//! * [`LSym::DeclOf`] — the declaration symbol of the dependency whose
//!   input fingerprint is `fp`.
//! * [`LSym::ExtraOf`] — the *ord*-th extra `con` binding (a `let`-local
//!   constructor that escaped into the global environment) of the
//!   dependency with input fingerprint `fp`.
//! * [`LSym::Local`] — a symbol minted during this declaration's own
//!   elaboration (its own decl sym, binders, escaped locals). Numbered by
//!   first appearance; decoding mints a fresh sym per number, which is
//!   exactly alpha-renaming and therefore invisible to every downstream
//!   consumer (sym equality is id-based and ids are never compared across
//!   declarations except through the environment, which the decoder
//!   rebuilds consistently).
//!
//! Soundness of the `Local` fallback: a free sym in an outcome can only
//! refer to something in the environment the declaration elaborated
//! against — the base environment plus its dependency closure's
//! contributions — and all of those are in the link table. Anything not
//! in the table was minted during the declaration's own elaboration, so
//! it is local by construction.
//!
//! ## Wire format: flat node tables
//!
//! Terms are arena handles ([`RCon`]/[`RExpr`]), i.e. DAGs with `Copy`
//! ids, so the payload is a *node table* rather than a recursive term
//! dump: three tables (kinds, then constructors, then expressions) where
//! every entry's children are `u32` indices of **earlier** entries, then
//! a root section referencing the tables. Both directions are plain
//! loops — no recursion, no depth cap (the `Rc`-era codec needed a
//! `MAX_LINK_DEPTH` guard to stay inside the thread stack; a 5,000-deep
//! term is now just 5,000 table rows) — and sharing survives the trip:
//! a subterm the arena deduplicated is encoded once and re-interned
//! once.
//!
//! Decoding is the mirror image and is total: any reference the
//! [`ResolveTable`] cannot satisfy, any out-of-range table index, or any
//! truncated/corrupt byte makes the whole entry undecodable (`None`),
//! and the engine treats the declaration as red.

use std::collections::HashMap;
use ur_core::codec::{ByteReader, ByteWriter};
use ur_core::con::{Con, MetaId, PrimType, RCon};
use ur_core::expr::{Expr, Lit, RExpr};
use ur_core::kind::{KMetaId, Kind};
use ur_core::sym::Sym;
use ur_infer::{ConBind, ElabDecl, Outcome};

/// A linked (process-independent) symbol reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LSym {
    /// Minted during the owning declaration's elaboration; `ord` numbers
    /// locals by first appearance in the encoded payload.
    Local(u32),
    /// The `ord`-th constructor binding of the base environment (sym-id
    /// order).
    BaseCon(u32),
    /// The `ord`-th value binding of the base environment (sym-id order).
    BaseVal(u32),
    /// The declaration symbol of the dependency with input fingerprint
    /// `fp`.
    DeclOf(u64),
    /// The `ord`-th extra constructor binding of the dependency with
    /// input fingerprint `fp`.
    ExtraOf(u64, u32),
}

/// Store-direction context: sym id → linked reference, for everything
/// visible to a declaration from outside (base bindings and dependency
/// contributions). Ids absent from the table encode as [`LSym::Local`].
#[derive(Debug, Default)]
pub struct LinkTable {
    map: HashMap<u32, LSym>,
}

impl LinkTable {
    /// Builds the base layer from the base environment's bindings,
    /// pre-sorted by sym id (see [`ResolveTable::new`] for the mirror).
    pub fn new(base_cons: &[Sym], base_vals: &[Sym]) -> LinkTable {
        let mut map = HashMap::new();
        for (ord, s) in base_cons.iter().enumerate() {
            map.insert(s.id(), LSym::BaseCon(ord as u32));
        }
        for (ord, s) in base_vals.iter().enumerate() {
            map.insert(s.id(), LSym::BaseVal(ord as u32));
        }
        LinkTable { map }
    }

    /// Records one processed declaration's contributions so later
    /// declarations can reference them. Call in source order, *after*
    /// encoding the declaration itself (its own sym must encode as
    /// local, not as a reference to itself).
    pub fn add_decl(&mut self, fp: u64, outcome: &Outcome) {
        if let Some(d) = &outcome.decl {
            let sym = match d {
                ElabDecl::Con { sym, .. } | ElabDecl::Val { sym, .. } => *sym,
            };
            self.map.insert(sym.id(), LSym::DeclOf(fp));
        }
        for (ord, b) in outcome.extra_cons.iter().enumerate() {
            self.map.insert(b.sym.id(), LSym::ExtraOf(fp, ord as u32));
        }
    }
}

/// Load-direction context: the inverse of [`LinkTable`], mapping linked
/// references back to live symbols of the current process.
#[derive(Debug, Default)]
pub struct ResolveTable {
    base_cons: Vec<Sym>,
    base_vals: Vec<Sym>,
    decls: HashMap<u64, (Option<Sym>, Vec<Sym>)>,
}

impl ResolveTable {
    /// Builds the base layer; the slices must enumerate the same
    /// bindings in the same (sym-id) order as the [`LinkTable`] that
    /// encoded the entries being resolved.
    pub fn new(base_cons: Vec<Sym>, base_vals: Vec<Sym>) -> ResolveTable {
        ResolveTable {
            base_cons,
            base_vals,
            decls: HashMap::new(),
        }
    }

    /// Records a green declaration's resolved contributions. Call in
    /// source order as seeds are accepted; red declarations contribute
    /// nothing (no green declaration can depend on them).
    pub fn add_decl(&mut self, fp: u64, outcome: &Outcome) {
        let sym = outcome.decl.as_ref().map(|d| match d {
            ElabDecl::Con { sym, .. } | ElabDecl::Val { sym, .. } => *sym,
        });
        let extra = outcome.extra_cons.iter().map(|b| b.sym).collect();
        self.decls.insert(fp, (sym, extra));
    }

    fn resolve(&self, l: &LSym) -> Option<Sym> {
        match l {
            LSym::Local(_) => None, // handled by the decoder's mint table
            LSym::BaseCon(ord) => self.base_cons.get(*ord as usize).copied(),
            LSym::BaseVal(ord) => self.base_vals.get(*ord as usize).copied(),
            LSym::DeclOf(fp) => self.decls.get(fp).and_then(|(s, _)| *s),
            LSym::ExtraOf(fp, ord) => self
                .decls
                .get(fp)
                .and_then(|(_, extra)| extra.get(*ord as usize).copied()),
        }
    }
}

/// Writes one sym occurrence: a linked reference when the table knows
/// the id, otherwise a local ordinal (assigned by first appearance)
/// plus the display name. A free function so entry serializers can
/// borrow the destination writer and the locals map independently.
fn put_sym(table: &LinkTable, locals: &mut HashMap<u32, u32>, w: &mut ByteWriter, s: Sym) {
    match table.map.get(&s.id()) {
        Some(LSym::BaseCon(ord)) => {
            w.put_u8(1);
            w.put_u32(*ord);
        }
        Some(LSym::BaseVal(ord)) => {
            w.put_u8(2);
            w.put_u32(*ord);
        }
        Some(LSym::DeclOf(fp)) => {
            w.put_u8(3);
            w.put_u64(*fp);
        }
        Some(LSym::ExtraOf(fp, ord)) => {
            w.put_u8(4);
            w.put_u64(*fp);
            w.put_u32(*ord);
        }
        Some(LSym::Local(_)) | None => {
            let next = locals.len() as u32;
            let ord = *locals.entry(s.id()).or_insert(next);
            w.put_u8(0);
            w.put_u32(ord);
            w.put_str(s.name());
        }
    }
}

fn put_prim(w: &mut ByteWriter, p: PrimType) {
    w.put_u8(match p {
        PrimType::Int => 0,
        PrimType::Float => 1,
        PrimType::String => 2,
        PrimType::Bool => 3,
        PrimType::Unit => 4,
    });
}

// ---------------- encoder ----------------

/// Flat-table encoder. Each node space (kinds / cons / exprs) gets its
/// own append-only entry stream and a dedup map; `idx_*` returns the
/// table index of a node, serializing it (and its so-far-unseen
/// descendants, children first) on first sight. The root section is
/// written to `dw` and references the tables by index.
struct Enc<'a> {
    table: &'a LinkTable,
    /// Sym id → local ordinal, assigned by first appearance in the
    /// payload. Shared across all tables and the root section: the
    /// decoder's mint table is keyed by ordinal, so section order does
    /// not matter, only that equal ids get equal ordinals.
    locals: HashMap<u32, u32>,
    kw: ByteWriter,
    kcount: u32,
    /// Structural dedup for kinds: (tag, child, child) → index. Kinds
    /// are plain `Arc` trees (not arena-interned), so the flat key is
    /// how sharing is recovered.
    kmap: HashMap<(u8, u32, u32), u32>,
    cw: ByteWriter,
    ccount: u32,
    cmap: HashMap<RCon, u32>,
    ew: ByteWriter,
    ecount: u32,
    emap: HashMap<RExpr, u32>,
    dw: ByteWriter,
}

enum Walk<T> {
    Enter(T),
    Exit(T),
}

impl<'a> Enc<'a> {
    fn new(table: &'a LinkTable) -> Enc<'a> {
        Enc {
            table,
            locals: HashMap::new(),
            kw: ByteWriter::new(),
            kcount: 0,
            kmap: HashMap::new(),
            cw: ByteWriter::new(),
            ccount: 0,
            cmap: HashMap::new(),
            ew: ByteWriter::new(),
            ecount: 0,
            emap: HashMap::new(),
            dw: ByteWriter::new(),
        }
    }

    /// Indexes a kind, serializing unseen sub-kinds in post-order. The
    /// value stack mirrors the children of the frame being exited.
    fn idx_kind(&mut self, root: &Kind) -> u32 {
        let mut stack: Vec<Walk<&Kind>> = vec![Walk::Enter(root)];
        let mut vals: Vec<u32> = Vec::new();
        while let Some(f) = stack.pop() {
            match f {
                Walk::Enter(k) => {
                    stack.push(Walk::Exit(k));
                    match k {
                        Kind::Arrow(a, b) | Kind::Pair(a, b) => {
                            stack.push(Walk::Enter(b));
                            stack.push(Walk::Enter(a));
                        }
                        Kind::Row(a) => stack.push(Walk::Enter(a)),
                        Kind::Type | Kind::Name | Kind::Meta(_) => {}
                    }
                }
                Walk::Exit(k) => {
                    let key = match k {
                        Kind::Type => (0u8, 0u32, 0u32),
                        Kind::Name => (1, 0, 0),
                        Kind::Arrow(_, _) => {
                            let b = vals.pop().unwrap_or(0);
                            let a = vals.pop().unwrap_or(0);
                            (2, a, b)
                        }
                        Kind::Row(_) => (3, vals.pop().unwrap_or(0), 0),
                        Kind::Pair(_, _) => {
                            let b = vals.pop().unwrap_or(0);
                            let a = vals.pop().unwrap_or(0);
                            (4, a, b)
                        }
                        Kind::Meta(m) => (5, m.0, 0),
                    };
                    let idx = match self.kmap.get(&key) {
                        Some(&i) => i,
                        None => {
                            let i = self.kcount;
                            self.kcount += 1;
                            self.kw.put_u8(key.0);
                            match key.0 {
                                2 | 4 => {
                                    self.kw.put_u32(key.1);
                                    self.kw.put_u32(key.2);
                                }
                                3 | 5 => self.kw.put_u32(key.1),
                                _ => {}
                            }
                            self.kmap.insert(key, i);
                            i
                        }
                    };
                    vals.push(idx);
                }
            }
        }
        vals.pop().unwrap_or(0)
    }

    /// Indexes a constructor, serializing unseen descendants children
    /// first. Children are `Copy` handles, so the dedup map key is the
    /// handle itself and every child of an exiting node is already
    /// indexed.
    fn idx_con(&mut self, root: RCon) -> u32 {
        if let Some(&i) = self.cmap.get(&root) {
            return i;
        }
        let mut stack = vec![Walk::Enter(root)];
        while let Some(f) = stack.pop() {
            match f {
                Walk::Enter(c) => {
                    if self.cmap.contains_key(&c) {
                        continue;
                    }
                    stack.push(Walk::Exit(c));
                    match &*c {
                        Con::Arrow(a, b)
                        | Con::App(a, b)
                        | Con::RowOne(a, b)
                        | Con::RowCat(a, b)
                        | Con::Pair(a, b) => {
                            stack.push(Walk::Enter(*a));
                            stack.push(Walk::Enter(*b));
                        }
                        Con::Guarded(a, b, t) => {
                            stack.push(Walk::Enter(*a));
                            stack.push(Walk::Enter(*b));
                            stack.push(Walk::Enter(*t));
                        }
                        Con::Poly(_, _, t)
                        | Con::Lam(_, _, t)
                        | Con::Record(t)
                        | Con::Fst(t)
                        | Con::Snd(t) => stack.push(Walk::Enter(*t)),
                        Con::Var(_)
                        | Con::Meta(_)
                        | Con::Prim(_)
                        | Con::Name(_)
                        | Con::RowNil(_)
                        | Con::Map(_, _)
                        | Con::Folder(_) => {}
                    }
                }
                Walk::Exit(c) => {
                    if self.cmap.contains_key(&c) {
                        continue;
                    }
                    self.put_con_entry(c);
                    let i = self.ccount;
                    self.ccount += 1;
                    self.cmap.insert(c, i);
                }
            }
        }
        self.cmap.get(&root).copied().unwrap_or(0)
    }

    /// Index of an already-visited con child (exists by post-order).
    fn cref(&self, c: RCon) -> u32 {
        debug_assert!(self.cmap.contains_key(&c), "child indexed before parent");
        self.cmap.get(&c).copied().unwrap_or(0)
    }

    fn eref(&self, e: RExpr) -> u32 {
        debug_assert!(self.emap.contains_key(&e), "child indexed before parent");
        self.emap.get(&e).copied().unwrap_or(0)
    }

    fn put_con_entry(&mut self, c: RCon) {
        match &*c {
            Con::Var(s) => {
                self.cw.put_u8(0);
                put_sym(self.table, &mut self.locals, &mut self.cw, *s);
            }
            Con::Meta(m) => {
                self.cw.put_u8(1);
                self.cw.put_u32(m.0);
            }
            Con::Prim(p) => {
                self.cw.put_u8(2);
                put_prim(&mut self.cw, *p);
            }
            Con::Arrow(a, b) => {
                let (a, b) = (self.cref(*a), self.cref(*b));
                self.cw.put_u8(3);
                self.cw.put_u32(a);
                self.cw.put_u32(b);
            }
            Con::Poly(s, k, t) => {
                let (k, t) = (self.idx_kind(k), self.cref(*t));
                self.cw.put_u8(4);
                put_sym(self.table, &mut self.locals, &mut self.cw, *s);
                self.cw.put_u32(k);
                self.cw.put_u32(t);
            }
            Con::Guarded(a, b, t) => {
                let (a, b, t) = (self.cref(*a), self.cref(*b), self.cref(*t));
                self.cw.put_u8(5);
                self.cw.put_u32(a);
                self.cw.put_u32(b);
                self.cw.put_u32(t);
            }
            Con::Lam(s, k, t) => {
                let (k, t) = (self.idx_kind(k), self.cref(*t));
                self.cw.put_u8(6);
                put_sym(self.table, &mut self.locals, &mut self.cw, *s);
                self.cw.put_u32(k);
                self.cw.put_u32(t);
            }
            Con::App(f, a) => {
                let (f, a) = (self.cref(*f), self.cref(*a));
                self.cw.put_u8(7);
                self.cw.put_u32(f);
                self.cw.put_u32(a);
            }
            Con::Name(n) => {
                self.cw.put_u8(8);
                self.cw.put_str(n);
            }
            Con::Record(t) => {
                let t = self.cref(*t);
                self.cw.put_u8(9);
                self.cw.put_u32(t);
            }
            Con::RowNil(k) => {
                let k = self.idx_kind(k);
                self.cw.put_u8(10);
                self.cw.put_u32(k);
            }
            Con::RowOne(n, v) => {
                let (n, v) = (self.cref(*n), self.cref(*v));
                self.cw.put_u8(11);
                self.cw.put_u32(n);
                self.cw.put_u32(v);
            }
            Con::RowCat(a, b) => {
                let (a, b) = (self.cref(*a), self.cref(*b));
                self.cw.put_u8(12);
                self.cw.put_u32(a);
                self.cw.put_u32(b);
            }
            Con::Map(k1, k2) => {
                let (k1, k2) = (self.idx_kind(k1), self.idx_kind(k2));
                self.cw.put_u8(13);
                self.cw.put_u32(k1);
                self.cw.put_u32(k2);
            }
            Con::Folder(k) => {
                let k = self.idx_kind(k);
                self.cw.put_u8(14);
                self.cw.put_u32(k);
            }
            Con::Pair(a, b) => {
                let (a, b) = (self.cref(*a), self.cref(*b));
                self.cw.put_u8(15);
                self.cw.put_u32(a);
                self.cw.put_u32(b);
            }
            Con::Fst(t) => {
                let t = self.cref(*t);
                self.cw.put_u8(16);
                self.cw.put_u32(t);
            }
            Con::Snd(t) => {
                let t = self.cref(*t);
                self.cw.put_u8(17);
                self.cw.put_u32(t);
            }
        }
    }

    fn idx_expr(&mut self, root: RExpr) -> u32 {
        if let Some(&i) = self.emap.get(&root) {
            return i;
        }
        let mut stack = vec![Walk::Enter(root)];
        while let Some(f) = stack.pop() {
            match f {
                Walk::Enter(e) => {
                    if self.emap.contains_key(&e) {
                        continue;
                    }
                    stack.push(Walk::Exit(e));
                    match &*e {
                        Expr::App(a, b) | Expr::RecCat(a, b) | Expr::Let(_, _, a, b) => {
                            stack.push(Walk::Enter(*a));
                            stack.push(Walk::Enter(*b));
                        }
                        Expr::Lam(_, _, b)
                        | Expr::CLam(_, _, b)
                        | Expr::DLam(_, _, b)
                        | Expr::RecOne(_, b)
                        | Expr::CApp(b, _)
                        | Expr::Proj(b, _)
                        | Expr::Cut(b, _)
                        | Expr::DApp(b) => stack.push(Walk::Enter(*b)),
                        Expr::If(c, t, e2) => {
                            stack.push(Walk::Enter(*c));
                            stack.push(Walk::Enter(*t));
                            stack.push(Walk::Enter(*e2));
                        }
                        Expr::Var(_) | Expr::Lit(_) | Expr::RecNil => {}
                    }
                }
                Walk::Exit(e) => {
                    if self.emap.contains_key(&e) {
                        continue;
                    }
                    self.put_expr_entry(e);
                    let i = self.ecount;
                    self.ecount += 1;
                    self.emap.insert(e, i);
                }
            }
        }
        self.emap.get(&root).copied().unwrap_or(0)
    }

    fn put_expr_entry(&mut self, e: RExpr) {
        match &*e {
            Expr::Var(s) => {
                self.ew.put_u8(0);
                put_sym(self.table, &mut self.locals, &mut self.ew, *s);
            }
            Expr::Lit(l) => {
                self.ew.put_u8(1);
                match l {
                    Lit::Int(n) => {
                        self.ew.put_u8(0);
                        self.ew.put_i64(*n);
                    }
                    Lit::Float(x) => {
                        self.ew.put_u8(1);
                        self.ew.put_f64(*x);
                    }
                    Lit::Str(s) => {
                        self.ew.put_u8(2);
                        self.ew.put_str(s);
                    }
                    Lit::Bool(b) => {
                        self.ew.put_u8(3);
                        self.ew.put_bool(*b);
                    }
                    Lit::Unit => self.ew.put_u8(4),
                }
            }
            Expr::App(f, a) => {
                let (f, a) = (self.eref(*f), self.eref(*a));
                self.ew.put_u8(2);
                self.ew.put_u32(f);
                self.ew.put_u32(a);
            }
            Expr::Lam(x, t, b) => {
                let (t, b) = (self.idx_con(*t), self.eref(*b));
                self.ew.put_u8(3);
                put_sym(self.table, &mut self.locals, &mut self.ew, *x);
                self.ew.put_u32(t);
                self.ew.put_u32(b);
            }
            Expr::CApp(e1, c) => {
                let (e1, c) = (self.eref(*e1), self.idx_con(*c));
                self.ew.put_u8(4);
                self.ew.put_u32(e1);
                self.ew.put_u32(c);
            }
            Expr::CLam(a, k, b) => {
                let (k, b) = (self.idx_kind(k), self.eref(*b));
                self.ew.put_u8(5);
                put_sym(self.table, &mut self.locals, &mut self.ew, *a);
                self.ew.put_u32(k);
                self.ew.put_u32(b);
            }
            Expr::RecNil => self.ew.put_u8(6),
            Expr::RecOne(n, e1) => {
                let (n, e1) = (self.idx_con(*n), self.eref(*e1));
                self.ew.put_u8(7);
                self.ew.put_u32(n);
                self.ew.put_u32(e1);
            }
            Expr::RecCat(a, b) => {
                let (a, b) = (self.eref(*a), self.eref(*b));
                self.ew.put_u8(8);
                self.ew.put_u32(a);
                self.ew.put_u32(b);
            }
            Expr::Proj(e1, c) => {
                let (e1, c) = (self.eref(*e1), self.idx_con(*c));
                self.ew.put_u8(9);
                self.ew.put_u32(e1);
                self.ew.put_u32(c);
            }
            Expr::Cut(e1, c) => {
                let (e1, c) = (self.eref(*e1), self.idx_con(*c));
                self.ew.put_u8(10);
                self.ew.put_u32(e1);
                self.ew.put_u32(c);
            }
            Expr::DLam(c1, c2, b) => {
                let (c1, c2, b) = (self.idx_con(*c1), self.idx_con(*c2), self.eref(*b));
                self.ew.put_u8(11);
                self.ew.put_u32(c1);
                self.ew.put_u32(c2);
                self.ew.put_u32(b);
            }
            Expr::DApp(e1) => {
                let e1 = self.eref(*e1);
                self.ew.put_u8(12);
                self.ew.put_u32(e1);
            }
            Expr::Let(x, t, bound, body) => {
                let (t, bound, body) = (self.idx_con(*t), self.eref(*bound), self.eref(*body));
                self.ew.put_u8(13);
                put_sym(self.table, &mut self.locals, &mut self.ew, *x);
                self.ew.put_u32(t);
                self.ew.put_u32(bound);
                self.ew.put_u32(body);
            }
            Expr::If(c, t, e2) => {
                let (c, t, e2) = (self.eref(*c), self.eref(*t), self.eref(*e2));
                self.ew.put_u8(14);
                self.ew.put_u32(c);
                self.ew.put_u32(t);
                self.ew.put_u32(e2);
            }
        }
    }

    fn root_sym(&mut self, s: Sym) {
        put_sym(self.table, &mut self.locals, &mut self.dw, s);
    }

    fn root_opt_con(&mut self, c: &Option<RCon>) {
        match c {
            Some(c) => {
                let i = self.idx_con(*c);
                self.dw.put_bool(true);
                self.dw.put_u32(i);
            }
            None => self.dw.put_bool(false),
        }
    }

    fn outcome(&mut self, o: &Outcome) {
        match &o.decl {
            Some(ElabDecl::Con { name, sym, kind, def }) => {
                self.dw.put_bool(true);
                self.dw.put_u8(0);
                self.dw.put_str(name);
                self.root_sym(*sym);
                let k = self.idx_kind(kind);
                self.dw.put_u32(k);
                self.root_opt_con(def);
            }
            Some(ElabDecl::Val { name, sym, ty, body }) => {
                self.dw.put_bool(true);
                self.dw.put_u8(1);
                self.dw.put_str(name);
                self.root_sym(*sym);
                let t = self.idx_con(*ty);
                self.dw.put_u32(t);
                match body {
                    Some(e) => {
                        let i = self.idx_expr(*e);
                        self.dw.put_bool(true);
                        self.dw.put_u32(i);
                    }
                    None => self.dw.put_bool(false),
                }
            }
            None => self.dw.put_bool(false),
        }
        self.dw.put_u32(o.extra_cons.len() as u32);
        for b in &o.extra_cons {
            self.root_sym(b.sym);
            let k = self.idx_kind(&b.kind);
            self.dw.put_u32(k);
            self.root_opt_con(&b.def);
        }
    }
}

// ---------------- decoder ----------------

/// Flat-table decoder. Tables are rebuilt front to back — every child
/// reference must point at an already-built entry, which doubles as the
/// acyclicity check — and terms re-intern into this process's arena via
/// the ordinary smart constructors.
struct Dec<'a> {
    table: &'a ResolveTable,
    /// Local ordinal → freshly minted symbol (one mint per ordinal).
    locals: HashMap<u32, Sym>,
    kinds: Vec<Kind>,
    cons: Vec<RCon>,
    exprs: Vec<RExpr>,
}

impl<'a> Dec<'a> {
    fn sym(&mut self, r: &mut ByteReader) -> Option<Sym> {
        match r.get_u8()? {
            0 => {
                let ord = r.get_u32()?;
                let name = r.get_str()?;
                Some(*self.locals.entry(ord).or_insert_with(|| Sym::fresh(name)))
            }
            1 => self.table.resolve(&LSym::BaseCon(r.get_u32()?)),
            2 => self.table.resolve(&LSym::BaseVal(r.get_u32()?)),
            3 => self.table.resolve(&LSym::DeclOf(r.get_u64()?)),
            4 => {
                let fp = r.get_u64()?;
                let ord = r.get_u32()?;
                self.table.resolve(&LSym::ExtraOf(fp, ord))
            }
            _ => None,
        }
    }

    fn kind_ref(&self, r: &mut ByteReader) -> Option<Kind> {
        self.kinds.get(r.get_u32()? as usize).cloned()
    }

    fn con_ref(&self, r: &mut ByteReader) -> Option<RCon> {
        self.cons.get(r.get_u32()? as usize).copied()
    }

    fn expr_ref(&self, r: &mut ByteReader) -> Option<RExpr> {
        self.exprs.get(r.get_u32()? as usize).copied()
    }

    fn kind_entry(&mut self, r: &mut ByteReader) -> Option<()> {
        let k = match r.get_u8()? {
            0 => Kind::Type,
            1 => Kind::Name,
            2 => Kind::arrow(self.kind_ref(r)?, self.kind_ref(r)?),
            3 => Kind::row(self.kind_ref(r)?),
            4 => Kind::pair(self.kind_ref(r)?, self.kind_ref(r)?),
            5 => Kind::Meta(KMetaId(r.get_u32()?)),
            _ => return None,
        };
        self.kinds.push(k);
        Some(())
    }

    fn prim(&self, r: &mut ByteReader) -> Option<PrimType> {
        Some(match r.get_u8()? {
            0 => PrimType::Int,
            1 => PrimType::Float,
            2 => PrimType::String,
            3 => PrimType::Bool,
            4 => PrimType::Unit,
            _ => return None,
        })
    }

    fn con_entry(&mut self, r: &mut ByteReader) -> Option<()> {
        let c = match r.get_u8()? {
            0 => Con::var(&self.sym(r)?),
            1 => Con::meta(MetaId(r.get_u32()?)),
            2 => Con::prim(self.prim(r)?),
            3 => Con::arrow(self.con_ref(r)?, self.con_ref(r)?),
            4 => Con::poly(self.sym(r)?, self.kind_ref(r)?, self.con_ref(r)?),
            5 => Con::guarded(self.con_ref(r)?, self.con_ref(r)?, self.con_ref(r)?),
            6 => Con::lam(self.sym(r)?, self.kind_ref(r)?, self.con_ref(r)?),
            7 => Con::app(self.con_ref(r)?, self.con_ref(r)?),
            8 => Con::name(r.get_str()?),
            9 => Con::record(self.con_ref(r)?),
            10 => Con::row_nil(self.kind_ref(r)?),
            11 => Con::row_one(self.con_ref(r)?, self.con_ref(r)?),
            12 => Con::row_cat(self.con_ref(r)?, self.con_ref(r)?),
            13 => Con::map_c(self.kind_ref(r)?, self.kind_ref(r)?),
            14 => Con::folder(self.kind_ref(r)?),
            15 => Con::pair(self.con_ref(r)?, self.con_ref(r)?),
            16 => Con::fst(self.con_ref(r)?),
            17 => Con::snd(self.con_ref(r)?),
            _ => return None,
        };
        self.cons.push(c);
        Some(())
    }

    fn lit(&self, r: &mut ByteReader) -> Option<Lit> {
        Some(match r.get_u8()? {
            0 => Lit::Int(r.get_i64()?),
            1 => Lit::Float(r.get_f64()?),
            2 => Lit::Str(r.get_str()?.into()),
            3 => Lit::Bool(r.get_bool()?),
            4 => Lit::Unit,
            _ => return None,
        })
    }

    fn expr_entry(&mut self, r: &mut ByteReader) -> Option<()> {
        let e = match r.get_u8()? {
            0 => Expr::var(&self.sym(r)?),
            1 => Expr::lit(self.lit(r)?),
            2 => Expr::app(self.expr_ref(r)?, self.expr_ref(r)?),
            3 => Expr::lam(self.sym(r)?, self.con_ref(r)?, self.expr_ref(r)?),
            4 => Expr::capp(self.expr_ref(r)?, self.con_ref(r)?),
            5 => Expr::clam(self.sym(r)?, self.kind_ref(r)?, self.expr_ref(r)?),
            6 => Expr::rec_nil(),
            7 => Expr::rec_one(self.con_ref(r)?, self.expr_ref(r)?),
            8 => Expr::rec_cat(self.expr_ref(r)?, self.expr_ref(r)?),
            9 => Expr::proj(self.expr_ref(r)?, self.con_ref(r)?),
            10 => Expr::cut(self.expr_ref(r)?, self.con_ref(r)?),
            11 => Expr::dlam(self.con_ref(r)?, self.con_ref(r)?, self.expr_ref(r)?),
            12 => Expr::dapp(self.expr_ref(r)?),
            13 => Expr::let_(
                self.sym(r)?,
                self.con_ref(r)?,
                self.expr_ref(r)?,
                self.expr_ref(r)?,
            ),
            14 => Expr::if_(self.expr_ref(r)?, self.expr_ref(r)?, self.expr_ref(r)?),
            _ => return None,
        };
        self.exprs.push(e);
        Some(())
    }

    fn opt_con(&self, r: &mut ByteReader) -> Option<Option<RCon>> {
        if r.get_bool()? {
            Some(Some(self.con_ref(r)?))
        } else {
            Some(None)
        }
    }

    fn outcome(&mut self, r: &mut ByteReader) -> Option<Outcome> {
        let decl = if r.get_bool()? {
            Some(match r.get_u8()? {
                0 => {
                    let name = r.get_str()?;
                    let sym = self.sym(r)?;
                    let kind = self.kind_ref(r)?;
                    let def = self.opt_con(r)?;
                    ElabDecl::Con { name, sym, kind, def }
                }
                1 => {
                    let name = r.get_str()?;
                    let sym = self.sym(r)?;
                    let ty = self.con_ref(r)?;
                    let body = if r.get_bool()? {
                        Some(self.expr_ref(r)?)
                    } else {
                        None
                    };
                    ElabDecl::Val { name, sym, ty, body }
                }
                _ => return None,
            })
        } else {
            None
        };
        let n = r.get_u32()?;
        // Sanity: each extra binding needs at least a few bytes; a corrupt
        // count must not drive a huge loop.
        if n as usize > r.remaining() {
            return None;
        }
        let mut extra_cons = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let sym = self.sym(r)?;
            let kind = self.kind_ref(r)?;
            let def = self.opt_con(r)?;
            extra_cons.push(ConBind { sym, kind, def });
        }
        Some(Outcome { decl, extra_cons })
    }

    /// Reads one framed node table: entry count, then a length-prefixed
    /// body that must contain exactly `count` entries.
    fn read_table(
        &mut self,
        r: &mut ByteReader,
        entry: fn(&mut Dec<'a>, &mut ByteReader) -> Option<()>,
    ) -> Option<()> {
        let count = r.get_u32()?;
        let body = r.get_bytes()?;
        // Every entry is at least one tag byte, so a corrupt count can
        // never drive a loop past the framed body.
        if count as usize > body.len() {
            return None;
        }
        let mut tr = ByteReader::new(body);
        for _ in 0..count {
            entry(self, &mut tr)?;
        }
        if !tr.is_empty() {
            return None; // trailing garbage inside the table
        }
        Some(())
    }
}

// ---------------- cache-entry payloads ----------------

/// A diagnostic in declaration-relative form: the primary span is stored
/// as a line delta from the declaration's own span, so the replayed
/// diagnostic lands correctly after unrelated edits shift the
/// declaration vertically. (A purely horizontal move of the declaration
/// within its line is not compensated — but such a move changes the
/// declaration's printed form only if its text changed, which makes it
/// red anyway.) Notes carry no spans, so they replay verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelDiag {
    pub dline: i64,
    pub col: u32,
    pub code: String,
    pub message: String,
    pub notes: Vec<String>,
}

/// Encodes one cache entry: the linked outcome plus its (optional)
/// declaration-relative diagnostic. The flat tables impose no depth
/// limit, so every outcome encodes; the `Option` return survives for
/// API stability (the `Rc`-era codec refused terms past its depth cap).
pub fn encode_entry(
    outcome: &Outcome,
    diag: Option<&RelDiag>,
    table: &LinkTable,
) -> Option<Vec<u8>> {
    let mut enc = Enc::new(table);
    enc.outcome(outcome);
    match diag {
        Some(d) => {
            enc.dw.put_bool(true);
            enc.dw.put_i64(d.dline);
            enc.dw.put_u32(d.col);
            enc.dw.put_str(&d.code);
            enc.dw.put_str(&d.message);
            enc.dw.put_u32(d.notes.len() as u32);
            for n in &d.notes {
                enc.dw.put_str(n);
            }
        }
        None => enc.dw.put_bool(false),
    }
    let mut w = ByteWriter::new();
    w.put_u32(enc.kcount);
    w.put_bytes(&enc.kw.into_bytes());
    w.put_u32(enc.ccount);
    w.put_bytes(&enc.cw.into_bytes());
    w.put_u32(enc.ecount);
    w.put_bytes(&enc.ew.into_bytes());
    w.put_bytes(&enc.dw.into_bytes());
    Some(w.into_bytes())
}

/// Decodes a cache entry against the current process's resolve table.
/// `None` means the payload is corrupt or references a dependency the
/// table does not know — either way the declaration must recompute.
pub fn decode_entry(bytes: &[u8], table: &ResolveTable) -> Option<(Outcome, Option<RelDiag>)> {
    let mut r = ByteReader::new(bytes);
    let mut dec = Dec {
        table,
        locals: HashMap::new(),
        kinds: Vec::new(),
        cons: Vec::new(),
        exprs: Vec::new(),
    };
    dec.read_table(&mut r, Dec::kind_entry)?;
    dec.read_table(&mut r, Dec::con_entry)?;
    dec.read_table(&mut r, Dec::expr_entry)?;
    let body = r.get_bytes()?;
    if !r.is_empty() {
        return None; // trailing garbage
    }
    let mut dr = ByteReader::new(body);
    let outcome = dec.outcome(&mut dr)?;
    let diag = if dr.get_bool()? {
        let dline = dr.get_i64()?;
        let col = dr.get_u32()?;
        let code = dr.get_str()?;
        let message = dr.get_str()?;
        let n = dr.get_u32()?;
        if n as usize > dr.remaining() {
            return None;
        }
        let mut notes = Vec::with_capacity(n as usize);
        for _ in 0..n {
            notes.push(dr.get_str()?);
        }
        Some(RelDiag {
            dline,
            col,
            code,
            message,
            notes,
        })
    } else {
        None
    };
    if !dr.is_empty() {
        return None; // trailing garbage
    }
    Some((outcome, diag))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome(own: Sym, base_int: Sym, dep: Sym) -> Outcome {
        // val own : base_int -> dep  (a type referencing one base and one
        // dependency symbol), with one extra local con binding.
        let local = Sym::fresh("t");
        Outcome {
            decl: Some(ElabDecl::Val {
                name: own.name().to_string(),
                sym: own,
                ty: Con::arrow(Con::var(&base_int), Con::var(&dep)),
                body: Some(Expr::lam(
                    Sym::fresh("x"),
                    Con::var(&base_int),
                    Expr::var(&local),
                )),
            }),
            extra_cons: vec![ConBind {
                sym: local,
                kind: Kind::Type,
                def: Some(Con::int()),
            }],
        }
    }

    fn con_decl_outcome(sym: Sym) -> Outcome {
        Outcome {
            decl: Some(ElabDecl::Con {
                name: sym.name().to_string(),
                sym,
                kind: Kind::Type,
                def: None,
            }),
            extra_cons: vec![],
        }
    }

    #[test]
    fn entry_round_trips_with_relinked_symbols() {
        let base_con = Sym::fresh("int_t");
        let base_val = Sym::fresh("plus");
        let dep_sym = Sym::fresh("helper");
        let own = Sym::fresh("f");
        let dep_fp = 0xfeed_beef_u64;

        // Store side: dep contributes its decl sym under dep_fp.
        let mut ltab = LinkTable::new(
            std::slice::from_ref(&base_con),
            std::slice::from_ref(&base_val),
        );
        ltab.add_decl(dep_fp, &con_decl_outcome(dep_sym));
        let outcome = sample_outcome(own, base_con, dep_sym);
        let diag = RelDiag {
            dline: 2,
            col: 5,
            code: "E0400".to_string(),
            message: "mismatch".to_string(),
            notes: vec!["note a".to_string()],
        };
        let bytes = encode_entry(&outcome, Some(&diag), &ltab).expect("encodes");

        // Load side in a "new process": different base sym ids, same
        // enumeration order.
        let new_base_con = Sym::fresh("int_t");
        let new_base_val = Sym::fresh("plus");
        let new_dep = Sym::fresh("helper");
        let mut rtab = ResolveTable::new(vec![new_base_con], vec![new_base_val]);
        rtab.add_decl(dep_fp, &con_decl_outcome(new_dep));
        let (back, rdiag) = decode_entry(&bytes, &rtab).expect("decodes");
        assert_eq!(rdiag, Some(diag));
        let Some(ElabDecl::Val { sym, ty, body, .. }) = &back.decl else {
            panic!("expected val decl");
        };
        // The decl's own sym was minted fresh (local)...
        assert_ne!(sym.id(), own.id());
        assert_eq!(sym.name(), "f");
        // ...base and dep references resolve to the *new* process's syms...
        let Con::Arrow(a, b) = &**ty else { panic!("arrow") };
        assert_eq!(*a, Con::var(&new_base_con));
        assert_eq!(*b, Con::var(&new_dep));
        // ...and the body's reference to the extra local con shares the
        // freshly minted sym recorded in extra_cons.
        assert_eq!(back.extra_cons.len(), 1);
        let Some(body) = body else { panic!("has body") };
        let Expr::Lam(_, lam_ty, lam_body) = &**body else {
            panic!("lam body")
        };
        assert_eq!(*lam_ty, Con::var(&new_base_con));
        assert_eq!(*lam_body, Expr::var(&back.extra_cons[0].sym));
    }

    #[test]
    fn unknown_dependency_reference_fails_decode() {
        let own = Sym::fresh("g");
        let dep = Sym::fresh("missing");
        let mut ltab = LinkTable::new(&[], &[]);
        ltab.add_decl(7, &con_decl_outcome(dep));
        let outcome = Outcome {
            decl: Some(ElabDecl::Val {
                name: own.name().to_string(),
                sym: own,
                ty: Con::var(&dep),
                body: None,
            }),
            extra_cons: vec![],
        };
        let bytes = encode_entry(&outcome, None, &ltab).expect("encodes");
        // A resolve table that never saw dependency 7 must reject.
        let rtab = ResolveTable::new(vec![], vec![]);
        assert!(decode_entry(&bytes, &rtab).is_none());
    }

    #[test]
    fn sharing_survives_the_round_trip() {
        // `int -> int` appears twice in the type; the arena deduplicates
        // it, so the codec must encode the shared node once and decode
        // back to the same handle.
        let own = Sym::fresh("twice");
        let ii = Con::arrow(Con::int(), Con::int());
        let outcome = Outcome {
            decl: Some(ElabDecl::Val {
                name: "twice".to_string(),
                sym: own,
                ty: Con::arrow(ii, ii),
                body: None,
            }),
            extra_cons: vec![],
        };
        let ltab = LinkTable::new(&[], &[]);
        let bytes = encode_entry(&outcome, None, &ltab).expect("encodes");
        let rtab = ResolveTable::new(vec![], vec![]);
        let (back, _) = decode_entry(&bytes, &rtab).expect("decodes");
        let Some(ElabDecl::Val { ty, .. }) = &back.decl else {
            panic!("val");
        };
        let Con::Arrow(a, b) = &**ty else { panic!("arrow") };
        assert_eq!(a, b, "shared subterm decodes to one handle");
        assert_eq!(*a, ii);
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_panicking() {
        let own = Sym::fresh("h");
        let ltab = LinkTable::new(&[], &[]);
        let outcome = Outcome {
            decl: Some(ElabDecl::Val {
                name: own.name().to_string(),
                sym: own,
                ty: Con::int(),
                body: Some(Expr::lit(Lit::Int(3))),
            }),
            extra_cons: vec![],
        };
        let bytes = encode_entry(&outcome, None, &ltab).expect("encodes");
        let rtab = ResolveTable::new(vec![], vec![]);
        assert!(decode_entry(&bytes, &rtab).is_some(), "clean decodes");
        // Truncations at every length.
        for cut in 0..bytes.len() {
            let _ = decode_entry(&bytes[..cut], &rtab);
        }
        // Single-byte corruption at every position either decodes to
        // *something* or is rejected; it must never panic.
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let _ = decode_entry(&bad, &rtab);
        }
        // Trailing garbage is rejected outright.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_entry(&padded, &rtab).is_none());
    }

    #[test]
    fn deep_terms_encode_without_recursion() {
        // The Rc-era codec capped nesting at MAX_LINK_DEPTH = 200 and
        // refused to cache anything deeper. The flat table has no such
        // limit: a 5,000-deep term is 5,000 rows, and both codec
        // directions are loops, so neither overflows the stack.
        let mut ty = Con::int();
        for _ in 0..5_000 {
            ty = Con::record(ty);
        }
        let own = Sym::fresh("deep");
        let outcome = Outcome {
            decl: Some(ElabDecl::Val {
                name: "deep".to_string(),
                sym: own,
                ty,
                body: None,
            }),
            extra_cons: vec![],
        };
        let ltab = LinkTable::new(&[], &[]);
        let bytes = encode_entry(&outcome, None, &ltab).expect("deep terms encode");
        let rtab = ResolveTable::new(vec![], vec![]);
        let (back, _) = decode_entry(&bytes, &rtab).expect("deep terms decode");
        let Some(ElabDecl::Val { ty: back_ty, .. }) = &back.decl else {
            panic!("val");
        };
        let mut depth = 0u32;
        let mut cur = *back_ty;
        while let Con::Record(inner) = &*cur {
            depth += 1;
            cur = *inner;
        }
        assert_eq!(depth, 5_000);
        assert_eq!(cur, Con::int());
    }
}
