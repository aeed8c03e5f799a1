//! Lowering elaborated core terms to flat bytecode.
//!
//! A [`Chunk`] is the unit of compilation: one flat `Vec<Op>` per function
//! body (and one for the top-level expression), with side tables for
//! literals (deduplicated constant pool), static field names (interned
//! [`IStr`]s — record construction, projection, and cut on a closed name
//! skip all runtime constructor normalization), runtime constructors
//! (anything mentioning a constructor variable still resolves through the
//! type-passing machinery, exactly like the interpreter), referenced
//! globals, and nested sub-chunks.
//!
//! Variables become direct frame-slot indices at compile time: parameters,
//! captured values, and `let` bindings each own a slot, so the VM never
//! performs a name lookup for locals and never clones an environment when
//! it enters a binder — the two costs that dominate the tree-walking
//! interpreter. Free variables of a function are *captured by value* when
//! the closure is created (the same semantics as the interpreter's
//! environment clone); variables free at the top of the compilation unit
//! are resolved against the runtime global environment and the builtin
//! registry, in that order, exactly as `Expr::Var` does.
//!
//! Chunks contain only `Copy + Send` data (`IStr`/`ConId`/`ExprId` arena
//! handles), so a compiled declaration can be cached and shared across
//! threads.

use std::collections::HashMap;
use std::sync::Arc;
use ur_core::arena::IStr;
use ur_core::con::{Con, RCon};
use ur_core::env::Env;
use ur_core::expr::{Expr, Lit, RExpr};
use ur_core::hnf::hnf;
use ur_core::sym::Sym;
use ur_core::Cx;

/// One bytecode instruction. Operands index the owning chunk's side
/// tables ([`Chunk::consts`], [`Chunk::names`], [`Chunk::cons`],
/// [`Chunk::syms`], [`Chunk::subs`]) or name frame slots / jump targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u32),
    /// Push a clone of frame slot `i`.
    Local(u32),
    /// Pop into frame slot `i`.
    SetLocal(u32),
    /// Pop and discard.
    Pop,
    /// Push the value of global `syms[i]`: the runtime global
    /// environment first, then the builtin registry (a nullary builtin
    /// runs immediately, like `Expr::Var`).
    Global(u32),
    /// Pop `arg` then `f`; push `f arg`.
    Call,
    /// Pop `b`, then `a`, then `f`; push `(f a) b`. Emitted for a
    /// two-argument application spine so a saturated two-argument
    /// builtin runs directly, without materializing the partial
    /// application `f a` — but only when evaluating `b` is statically
    /// unobservable (a literal, a binder, or a local variable). The
    /// interpreter performs the inner application *before* evaluating
    /// `b`, and `f a` can itself be observable (an arity-1 builtin
    /// saturating, a closure body with effects between binders), so
    /// hoisting `b` across it is only sound for arguments that cannot
    /// error, effect, or diverge. Every other spine compiles as two
    /// [`Op::Call`]s in interpreter order.
    Call2,
    /// Make a value closure from `subs[i]`, capturing frame slots.
    Closure(u32),
    /// Make a constructor closure from `subs[i]`.
    CClosure(u32),
    /// Make a suspended guard body from `subs[i]`.
    Susp(u32),
    /// Pop `f`; push `f [cons[i]]` where `cons[i]` is already closed and
    /// head-normal (resolved at compile time).
    CApplyStatic(u32),
    /// Pop `f`; resolve `cons[i]` against the runtime constructor
    /// bindings, then push `f [c]`.
    CApplyDyn(u32),
    /// Pop a suspended guard and run it (`e !`); other values pass
    /// through (builtins erase guards).
    Force,
    /// Push the empty record.
    RecNil,
    /// Pop `v`; push the singleton record `{names[i] = v}`.
    RecOneStatic(u32),
    /// Resolve `cons[i]` to a literal field name and push it as a
    /// string. Emitted *before* the value/record operand so effects and
    /// errors keep the interpreter's order.
    NameDyn(u32),
    /// Pop `v` then a name pushed by [`Op::NameDyn`]; push `{name = v}`.
    RecOneDynTop,
    /// Pop `b` then `a`; push `a ++ b` (duplicate fields are a runtime
    /// error, as in the interpreter).
    RecCat,
    /// Pop a record; push its `names[i]` field.
    ProjStatic(u32),
    /// Pop a record then a [`Op::NameDyn`] name; push the named field.
    ProjDynTop,
    /// Pop a record; push it minus its `names[i]` field.
    CutStatic(u32),
    /// Pop a record then a [`Op::NameDyn`] name; push it minus the field.
    CutDynTop,
    /// Jump to op index `t`.
    Jump(u32),
    /// Pop a bool; jump to `t` when false.
    JumpIfFalse(u32),
    /// Pop the result and return it.
    Ret,
}

/// A compiled function body (or top-level expression).
#[derive(Clone, Debug, PartialEq)]
pub struct Chunk {
    /// Debug label (declaration name, or a position inside it).
    pub label: String,
    /// Whether slot 0 is a value parameter (`Lam` bodies).
    pub has_param: bool,
    /// The constructor parameter bound at constructor application
    /// (`CLam` bodies).
    pub cparam: Option<Sym>,
    /// Frame size in slots.
    pub n_slots: u32,
    /// Captures: `(parent_slot, self_slot)` — the creating frame copies
    /// its `parent_slot` into the closure, and a call copies captured
    /// value `i` into `self_slot`.
    pub caps: Vec<(u32, u32)>,
    pub ops: Vec<Op>,
    /// Deduplicated literal pool.
    pub consts: Vec<Lit>,
    /// Static field names (closed constructors pre-reduced to `#name`).
    pub names: Vec<IStr>,
    /// Constructors that still need runtime resolution.
    pub cons: Vec<RCon>,
    /// Globals referenced by [`Op::Global`].
    pub syms: Vec<Sym>,
    /// Nested function bodies.
    pub subs: Vec<Arc<Chunk>>,
}

impl Chunk {
    /// Total instructions including sub-chunks (reporting/debugging).
    pub fn total_ops(&self) -> usize {
        self.ops.len() + self.subs.iter().map(|s| s.total_ops()).sum::<usize>()
    }
}

/// Constant-pool key: literals hashed by shape ([`Lit`] itself has no
/// `Eq`/`Hash` because of floats, which are keyed by their bits here).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Float(u64),
    Str(u32),
    Bool(bool),
    Unit,
}

fn const_key(l: &Lit) -> ConstKey {
    match l {
        Lit::Int(n) => ConstKey::Int(*n),
        Lit::Float(x) => ConstKey::Float(x.to_bits()),
        Lit::Str(s) => ConstKey::Str(s.raw()),
        Lit::Bool(b) => ConstKey::Bool(*b),
        Lit::Unit => ConstKey::Unit,
    }
}

/// Per-function compile state (one per nesting level).
#[derive(Default)]
struct Frame {
    label: String,
    has_param: bool,
    cparam: Option<Sym>,
    /// Lexical value binders currently in scope: `(sym, slot)`,
    /// innermost last (searched from the back, so shadowing works).
    scope: Vec<(Sym, u32)>,
    next_slot: u32,
    n_slots: u32,
    caps: Vec<(u32, u32)>,
    /// Captured syms already assigned a slot in this frame.
    cap_map: HashMap<Sym, u32>,
    ops: Vec<Op>,
    consts: Vec<Lit>,
    const_map: HashMap<ConstKey, u32>,
    names: Vec<IStr>,
    name_map: HashMap<u32, u32>,
    cons: Vec<RCon>,
    con_map: HashMap<RCon, u32>,
    syms: Vec<Sym>,
    sym_map: HashMap<Sym, u32>,
    subs: Vec<Arc<Chunk>>,
}

impl Frame {
    fn new(label: String) -> Frame {
        Frame {
            label,
            ..Frame::default()
        }
    }

    fn alloc_slot(&mut self) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.n_slots = self.n_slots.max(self.next_slot);
        s
    }

    fn emit(&mut self, op: Op) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    fn const_idx(&mut self, l: &Lit) -> u32 {
        let key = const_key(l);
        if let Some(i) = self.const_map.get(&key) {
            return *i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(l.clone());
        self.const_map.insert(key, i);
        i
    }

    fn name_idx(&mut self, is: IStr) -> u32 {
        if let Some(i) = self.name_map.get(&is.raw()) {
            return *i;
        }
        let i = self.names.len() as u32;
        self.names.push(is);
        self.name_map.insert(is.raw(), i);
        i
    }

    fn con_idx(&mut self, c: RCon) -> u32 {
        if let Some(i) = self.con_map.get(&c) {
            return *i;
        }
        let i = self.cons.len() as u32;
        self.cons.push(c);
        self.con_map.insert(c, i);
        i
    }

    fn sym_idx(&mut self, x: Sym) -> u32 {
        if let Some(i) = self.sym_map.get(&x) {
            return *i;
        }
        let i = self.syms.len() as u32;
        self.syms.push(x);
        self.sym_map.insert(x, i);
        i
    }

    fn finish(self) -> Arc<Chunk> {
        Arc::new(Chunk {
            label: self.label,
            has_param: self.has_param,
            cparam: self.cparam,
            n_slots: self.n_slots,
            caps: self.caps,
            ops: self.ops,
            consts: self.consts,
            names: self.names,
            cons: self.cons,
            syms: self.syms,
            subs: self.subs,
        })
    }
}

struct Compiler<'a> {
    genv: &'a Env,
    cx: &'a mut Cx,
    frames: Vec<Frame>,
}

/// Compiles an elaborated core expression to a chunk. Infallible: any
/// well-formed core term lowers (constructs the interpreter cannot
/// pre-resolve fall back to runtime resolution ops).
pub fn compile(genv: &Env, cx: &mut Cx, e: &RExpr, label: &str) -> Arc<Chunk> {
    let mut c = Compiler {
        genv,
        cx,
        frames: vec![Frame::new(label.to_string())],
    };
    c.expr(0, e);
    c.frames[0].emit(Op::Ret);
    let frame = c.frames.remove(0);
    frame.finish()
}

impl Compiler<'_> {
    /// The frame slot of `x` in frame `fi`, threading captures through
    /// every intermediate function. `None` means "free at the root":
    /// resolved at runtime against globals + builtins.
    fn var_loc(&mut self, fi: usize, x: Sym) -> Option<u32> {
        if let Some(slot) = self.frames[fi]
            .scope
            .iter()
            .rev()
            .find(|(s, _)| *s == x)
            .map(|(_, slot)| *slot)
        {
            return Some(slot);
        }
        if let Some(slot) = self.frames[fi].cap_map.get(&x) {
            return Some(*slot);
        }
        if fi == 0 {
            return None;
        }
        let parent_slot = self.var_loc(fi - 1, x)?;
        let f = &mut self.frames[fi];
        let self_slot = f.alloc_slot();
        f.caps.push((parent_slot, self_slot));
        f.cap_map.insert(x, self_slot);
        Some(self_slot)
    }

    /// A constructor with no variables or metavariables reduces at
    /// compile time; the result is the same head-normal form the
    /// interpreter would compute at every execution.
    fn static_con(&mut self, c: &RCon) -> Option<RCon> {
        let fl = c.flags();
        if fl.has_var() || fl.has_meta() || fl.has_kmeta() {
            return None;
        }
        Some(hnf(self.genv, self.cx, c))
    }

    /// A closed constructor in field-name position, pre-reduced to its
    /// literal name.
    fn static_name(&mut self, c: &RCon) -> Option<IStr> {
        match &*self.static_con(c)? {
            Con::Name(is) => Some(*is),
            _ => None,
        }
    }

    /// Compiles a nested function body as a sub-chunk of frame `fi`.
    fn sub_fn(
        &mut self,
        fi: usize,
        label: &str,
        param: Option<Sym>,
        cparam: Option<Sym>,
        body: &RExpr,
    ) -> u32 {
        let mut f = Frame::new(format!("{}.{label}", self.frames[fi].label));
        f.has_param = param.is_some();
        f.cparam = cparam;
        if let Some(x) = param {
            let slot = f.alloc_slot();
            f.scope.push((x, slot));
        }
        self.frames.push(f);
        let child = self.frames.len() - 1;
        self.expr(child, body);
        self.frames[child].emit(Op::Ret);
        let done = match self.frames.pop() {
            Some(frame) => frame.finish(),
            // Unreachable: we pushed just above.
            None => Frame::new(String::new()).finish(),
        };
        let parent = &mut self.frames[fi];
        parent.subs.push(done);
        (parent.subs.len() - 1) as u32
    }

    /// Whether `x` is bound by an enclosing binder (parameter, `let`,
    /// or an already-threaded capture) rather than free at the root.
    /// Read-only: unlike [`Compiler::var_loc`] it threads no captures.
    fn is_local(&self, fi: usize, x: Sym) -> bool {
        (0..=fi).rev().any(|i| {
            let f = &self.frames[i];
            f.scope.iter().any(|(s, _)| *s == x) || f.cap_map.contains_key(&x)
        })
    }

    /// Whether evaluating `e` is statically unobservable: no effects, no
    /// errors, no divergence. Only such expressions may move across an
    /// application in [`Op::Call2`] (see its doc). Global variables are
    /// excluded — resolution can raise `UnboundVar` and runs nullary
    /// builtins; record/projection forms are excluded — they can error.
    fn pure_operand(&self, fi: usize, e: &RExpr) -> bool {
        match &**e {
            Expr::Lit(_)
            | Expr::Lam(..)
            | Expr::CLam(..)
            | Expr::DLam(..)
            | Expr::RecNil => true,
            Expr::Var(x) => self.is_local(fi, *x),
            _ => false,
        }
    }

    /// Emits code that resolves a field-name constructor: static names
    /// become a table index, everything else becomes a [`Op::NameDyn`]
    /// push (before the operand, preserving interpreter effect order).
    /// Returns the static index when the fast path applies.
    fn name_or_push(&mut self, fi: usize, c: &RCon) -> Option<u32> {
        if let Some(is) = self.static_name(c) {
            return Some(self.frames[fi].name_idx(is));
        }
        let i = self.frames[fi].con_idx(*c);
        self.frames[fi].emit(Op::NameDyn(i));
        None
    }

    fn expr(&mut self, fi: usize, e: &RExpr) {
        match &**e {
            Expr::Var(x) => {
                if let Some(slot) = self.var_loc(fi, *x) {
                    self.frames[fi].emit(Op::Local(slot));
                } else {
                    let i = self.frames[fi].sym_idx(*x);
                    self.frames[fi].emit(Op::Global(i));
                }
            }
            Expr::Lit(l) => {
                let i = self.frames[fi].const_idx(l);
                self.frames[fi].emit(Op::Const(i));
            }
            Expr::App(f, a) => match &**f {
                // Two-argument spine `g a1 a` whose outer argument is
                // statically pure: evaluate `g`, `a1`, `a`, then apply
                // both at once so saturated binary builtins skip the
                // intermediate partial application. The interpreter
                // applies `g a1` *before* evaluating `a`; hoisting `a`
                // across that application is unobservable only because
                // `pure_operand` guarantees `a` cannot error or effect.
                Expr::App(g, a1) if self.pure_operand(fi, a) => {
                    self.expr(fi, g);
                    self.expr(fi, a1);
                    self.expr(fi, a);
                    self.frames[fi].emit(Op::Call2);
                }
                _ => {
                    self.expr(fi, f);
                    self.expr(fi, a);
                    self.frames[fi].emit(Op::Call);
                }
            },
            Expr::Lam(x, _, body) => {
                let sub = self.sub_fn(fi, "fn", Some(*x), None, body);
                self.frames[fi].emit(Op::Closure(sub));
            }
            Expr::CApp(f, c) => {
                self.expr(fi, f);
                match self.static_con(c) {
                    Some(norm) => {
                        let i = self.frames[fi].con_idx(norm);
                        self.frames[fi].emit(Op::CApplyStatic(i));
                    }
                    None => {
                        let i = self.frames[fi].con_idx(*c);
                        self.frames[fi].emit(Op::CApplyDyn(i));
                    }
                }
            }
            Expr::CLam(a, _, body) => {
                let sub = self.sub_fn(fi, "cfn", None, Some(*a), body);
                self.frames[fi].emit(Op::CClosure(sub));
            }
            Expr::RecNil => {
                self.frames[fi].emit(Op::RecNil);
            }
            Expr::RecOne(n, v) => match self.name_or_push(fi, n) {
                Some(i) => {
                    self.expr(fi, v);
                    self.frames[fi].emit(Op::RecOneStatic(i));
                }
                None => {
                    self.expr(fi, v);
                    self.frames[fi].emit(Op::RecOneDynTop);
                }
            },
            Expr::RecCat(a, b) => {
                self.expr(fi, a);
                self.expr(fi, b);
                self.frames[fi].emit(Op::RecCat);
            }
            Expr::Proj(r, c) => match self.name_or_push(fi, c) {
                Some(i) => {
                    self.expr(fi, r);
                    self.frames[fi].emit(Op::ProjStatic(i));
                }
                None => {
                    self.expr(fi, r);
                    self.frames[fi].emit(Op::ProjDynTop);
                }
            },
            Expr::Cut(r, c) => match self.name_or_push(fi, c) {
                Some(i) => {
                    self.expr(fi, r);
                    self.frames[fi].emit(Op::CutStatic(i));
                }
                None => {
                    self.expr(fi, r);
                    self.frames[fi].emit(Op::CutDynTop);
                }
            },
            Expr::DLam(_, _, body) => {
                let sub = self.sub_fn(fi, "guard", None, None, body);
                self.frames[fi].emit(Op::Susp(sub));
            }
            Expr::DApp(e) => {
                self.expr(fi, e);
                self.frames[fi].emit(Op::Force);
            }
            Expr::Let(x, _, bound, body) => {
                self.expr(fi, bound);
                let slot = self.frames[fi].alloc_slot();
                self.frames[fi].emit(Op::SetLocal(slot));
                self.frames[fi].scope.push((*x, slot));
                self.expr(fi, body);
                self.frames[fi].scope.pop();
            }
            Expr::If(c, t, el) => {
                self.expr(fi, c);
                let jf = self.frames[fi].emit(Op::JumpIfFalse(0));
                self.expr(fi, t);
                let jend = self.frames[fi].emit(Op::Jump(0));
                let else_at = self.frames[fi].ops.len() as u32;
                self.frames[fi].ops[jf as usize] = Op::JumpIfFalse(else_at);
                self.expr(fi, el);
                let end_at = self.frames[fi].ops.len() as u32;
                self.frames[fi].ops[jend as usize] = Op::Jump(end_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ur_core::con::Con;
    use ur_core::kind::Kind;

    fn compile_simple(e: &RExpr) -> Arc<Chunk> {
        let genv = Env::new();
        let mut cx = Cx::new();
        compile(&genv, &mut cx, e, "test")
    }

    #[test]
    fn chunks_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Chunk>();
    }

    #[test]
    fn literal_compiles_to_const_ret() {
        let c = compile_simple(&Expr::lit(Lit::Int(7)));
        assert_eq!(c.ops, vec![Op::Const(0), Op::Ret]);
        assert_eq!(c.consts, vec![Lit::Int(7)]);
    }

    #[test]
    fn constant_pool_dedups_repeated_literals() {
        // (1 + 1) shape without builtins: if true then 1 else 1, plus a
        // repeated string in both branches.
        let one = Expr::lit(Lit::Int(1));
        let e = Expr::if_(Expr::lit(Lit::Bool(true)), one, one);
        let c = compile_simple(&e);
        assert_eq!(c.consts.len(), 2, "true + a single 1: {:?}", c.consts);
    }

    #[test]
    fn floats_dedup_by_bits() {
        let x = Expr::lit(Lit::Float(1.5));
        let e = Expr::if_(Expr::lit(Lit::Bool(false)), x, x);
        let c = compile_simple(&e);
        assert_eq!(c.consts.len(), 2);
    }

    #[test]
    fn static_field_names_use_the_name_table() {
        let rec = Expr::record(vec![
            (Con::name("A"), Expr::lit(Lit::Int(1))),
            (Con::name("B"), Expr::lit(Lit::Int(2))),
        ]);
        let c = compile_simple(&Expr::proj(rec, Con::name("B")));
        assert!(c.cons.is_empty(), "closed names must not need runtime cons");
        assert_eq!(c.names.len(), 2);
        assert!(c.ops.iter().any(|o| matches!(o, Op::ProjStatic(_))));
    }

    #[test]
    fn variable_field_names_stay_dynamic() {
        let nm = Sym::fresh("nm");
        let x = Sym::fresh("x");
        let body = Expr::lam(
            x,
            Con::record(Con::row_one(Con::var(&nm), Con::int())),
            Expr::proj(Expr::var(&x), Con::var(&nm)),
        );
        let c = compile_simple(&Expr::clam(nm, Kind::Name, body));
        let lam = &c.subs[0].subs[0];
        assert_eq!(lam.cons.len(), 1, "projection under a name variable");
        assert!(lam.ops.iter().any(|o| matches!(o, Op::NameDyn(_))));
    }

    #[test]
    fn let_binds_a_slot() {
        let x = Sym::fresh("x");
        let e = Expr::let_(x, Con::int(), Expr::lit(Lit::Int(5)), Expr::var(&x));
        let c = compile_simple(&e);
        assert_eq!(
            c.ops,
            vec![Op::Const(0), Op::SetLocal(0), Op::Local(0), Op::Ret]
        );
        assert_eq!(c.n_slots, 1);
    }

    #[test]
    fn free_variables_capture_through_nested_functions() {
        // fn a => fn b => a  — inner chunk captures a from the outer.
        let a = Sym::fresh("a");
        let b = Sym::fresh("b");
        let e = Expr::lam(a, Con::int(), Expr::lam(b, Con::int(), Expr::var(&a)));
        let c = compile_simple(&e);
        let outer = &c.subs[0];
        let inner = &outer.subs[0];
        assert_eq!(inner.caps, vec![(0, 1)], "capture a from outer slot 0");
        assert!(inner.ops.contains(&Op::Local(1)));
    }

    #[test]
    fn root_free_variables_become_globals() {
        let g = Sym::fresh("g");
        let c = compile_simple(&Expr::var(&g));
        assert_eq!(c.syms, vec![g]);
        assert_eq!(c.ops, vec![Op::Global(0), Op::Ret]);
    }

    #[test]
    fn if_jumps_are_patched() {
        let e = Expr::if_(
            Expr::lit(Lit::Bool(true)),
            Expr::lit(Lit::Int(1)),
            Expr::lit(Lit::Int(2)),
        );
        let c = compile_simple(&e);
        // const(true) jf const(1) jmp const(2) ret
        assert_eq!(c.ops[1], Op::JumpIfFalse(4));
        assert_eq!(c.ops[3], Op::Jump(5));
        assert_eq!(c.ops[5], Op::Ret);
    }

    #[test]
    fn call2_only_fires_on_pure_second_arguments() {
        let g = Sym::fresh("g");
        let h = Sym::fresh("h");
        // Literal second argument: superinstruction.
        let pure = Expr::app(
            Expr::app(Expr::var(&g), Expr::lit(Lit::Int(1))),
            Expr::lit(Lit::Int(2)),
        );
        let c = compile_simple(&pure);
        assert!(c.ops.contains(&Op::Call2), "{:?}", c.ops);

        // An application as the second argument can error or effect
        // before the inner application the interpreter performs first:
        // two ordinary calls in interpreter order.
        let impure = Expr::app(
            Expr::app(Expr::var(&g), Expr::lit(Lit::Int(1))),
            Expr::app(Expr::var(&h), Expr::lit(Lit::Int(3))),
        );
        let c = compile_simple(&impure);
        assert!(!c.ops.contains(&Op::Call2), "{:?}", c.ops);
        assert_eq!(
            c.ops.iter().filter(|o| matches!(o, Op::Call)).count(),
            3,
            "{:?}",
            c.ops
        );

        // A global second argument resolves at runtime (may raise
        // UnboundVar or run a nullary builtin): not pure either.
        let global_arg = Expr::app(
            Expr::app(Expr::var(&g), Expr::lit(Lit::Int(1))),
            Expr::var(&h),
        );
        let c = compile_simple(&global_arg);
        assert!(!c.ops.contains(&Op::Call2), "{:?}", c.ops);

        // A local second argument is pure: superinstruction.
        let x = Sym::fresh("x");
        let local_arg = Expr::lam(
            x,
            Con::int(),
            Expr::app(
                Expr::app(Expr::var(&g), Expr::lit(Lit::Int(1))),
                Expr::var(&x),
            ),
        );
        let c = compile_simple(&local_arg);
        assert!(c.subs[0].ops.contains(&Op::Call2), "{:?}", c.subs[0].ops);
    }
}
