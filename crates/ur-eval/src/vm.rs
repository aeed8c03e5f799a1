//! The bytecode VM: a stack machine over [`crate::compile::Chunk`]s.
//!
//! Execution reuses the interpreter's value representation
//! ([`crate::value::Value`]) and its [`Interp`] for everything effectful
//! — builtins, constructor normalization, world state — so the two
//! engines agree observationally by construction wherever they share
//! code, and the differential suites check everything else.
//!
//! Locals live in a flat frame (`Vec<Value>`), indexed directly by slots
//! assigned at compile time; entering a binder never clones an
//! environment. Compiled closures capture *by value* exactly like the
//! interpreter's environment clone, but copy only the slots the body
//! actually mentions. Values from the two engines mix freely: `Op::Call`
//! on a tree closure drops into [`Interp::apply`], and the interpreter
//! applying a [`Value::VmClosure`] re-enters [`call`] here, so
//! higher-order builtins (`foldList` and friends) work across engines.
//!
//! Constructor bindings (from constructor application of compiled
//! `CLam`s) are a persistent linked list — they are rare and shallow,
//! unlike value bindings — and dynamic field-name resolution mirrors
//! [`Interp::resolve_con`] against that list.

use crate::compile::{Chunk, Op};
use crate::error::{EvalError, EvalErrorKind};
use crate::interp::Interp;
use crate::value::{VEnv, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use ur_core::arena::IStr;
use ur_core::con::RCon;
use ur_core::expr::Lit;
use ur_core::hnf::hnf;
use ur_core::subst::resolve_bound;
use ur_core::sym::Sym;

/// Counters a VM dispatch loop accumulates on its [`Interp`]; the
/// embedder folds them into session-wide [`ur_core::stats::Stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    /// Bytecode instructions executed.
    pub vm_ops: u64,
    /// Wall-clock nanoseconds inside top-level [`run`] calls.
    pub dispatch_ns: u64,
    /// Steps charged by top-level [`run`] calls, summed.
    pub steps: u64,
}

/// One runtime constructor binding (introduced by constructor
/// application of a compiled `CLam`).
#[derive(Debug)]
pub struct ConsFrame {
    pub sym: Sym,
    pub con: RCon,
    pub next: ConsEnv,
}

/// A persistent stack of constructor bindings. `None` is empty.
pub type ConsEnv = Option<Rc<ConsFrame>>;

fn cons_lookup(env: &ConsEnv, x: Sym) -> Option<RCon> {
    let mut cur = env;
    while let Some(f) = cur {
        if f.sym == x {
            return Some(f.con);
        }
        cur = &f.next;
    }
    None
}

/// A compiled function value: a chunk plus everything its body needs
/// from the creation site. One struct serves value closures, constructor
/// closures, and guard suspensions (the chunk's `has_param`/`cparam`
/// say which entry protocol applies).
pub struct VmFn {
    pub chunk: Arc<Chunk>,
    /// Captured values, in `chunk.caps` order.
    pub captured: Box<[Value]>,
    /// Constructor bindings visible at the creation site.
    pub cons: ConsEnv,
    /// The global environment of the enclosing top-level run.
    pub globals: Rc<VEnv>,
    /// Lazily materialized `Rc<str>` forms of `chunk.names` — one
    /// allocation per name per closure instead of per record operation.
    name_cache: RefCell<Box<[Option<Rc<str>>]>>,
    /// The last constructor-application frame, reused when the same
    /// constructor argument arrives again. Metaprograms instantiated in
    /// a loop pass identical arguments every iteration; reusing the
    /// frame keeps the extended environment pointer-stable, which is
    /// what lets [`Interp::resolve_memo`] hit across iterations.
    last_capply: RefCell<Option<(RCon, ConsEnv)>>,
    /// Precomputed shortcut for the curried two-argument shape
    /// `fn x => fn y => e`: when the body is exactly `[Closure(0), Ret]`,
    /// [`Op::Call2`] can run the inner chunk directly, skipping both the
    /// outer frame and the intermediate closure allocation.
    curried: Option<CurriedInner>,
}

/// Where an inner capture of a curried function comes from when the
/// outer frame is skipped: the outer argument, or one of the outer
/// function's own captures.
#[derive(Clone, Copy)]
enum CapSrc {
    Arg,
    Cap(usize),
}

/// The precomputed inner-chunk entry for a curried two-argument
/// function (see [`VmFn::curried`]).
struct CurriedInner {
    chunk: Arc<Chunk>,
    /// One source per `chunk.caps` entry.
    srcs: Box<[CapSrc]>,
    name_cache: RefCell<Box<[Option<Rc<str>>]>>,
}

/// Detects the `fn x => fn y => e` shape: a value-parameter chunk whose
/// whole body makes closure 0 and returns it, where every capture of the
/// inner chunk is either the outer argument or an outer capture. (A
/// capture of another slot cannot arise from that shape, but a corrupt
/// decoded chunk could claim one — then the shortcut simply stays off.)
fn curried_inner(chunk: &Chunk) -> Option<CurriedInner> {
    if !(chunk.has_param && chunk.cparam.is_none()) {
        return None;
    }
    if chunk.ops.as_slice() != [Op::Closure(0), Op::Ret] {
        return None;
    }
    let sub = chunk.subs.first()?;
    if !(sub.has_param && sub.cparam.is_none()) {
        return None;
    }
    let mut srcs = Vec::with_capacity(sub.caps.len());
    for (parent_slot, _) in &sub.caps {
        if *parent_slot == 0 {
            srcs.push(CapSrc::Arg);
        } else {
            let j = chunk.caps.iter().position(|(_, self_slot)| self_slot == parent_slot)?;
            srcs.push(CapSrc::Cap(j));
        }
    }
    Some(CurriedInner {
        chunk: Arc::clone(sub),
        srcs: srcs.into_boxed_slice(),
        name_cache: RefCell::new(vec![None; sub.names.len()].into_boxed_slice()),
    })
}

impl Drop for VmFn {
    fn drop(&mut self) {
        crate::value::drop_flat(self.take_captured());
    }
}

impl VmFn {
    /// Moves the captured values out, leaving none.
    pub(crate) fn take_captured(&mut self) -> std::vec::IntoIter<Value> {
        std::mem::take(&mut self.captured).into_vec().into_iter()
    }

    fn new(chunk: Arc<Chunk>, captured: Box<[Value]>, cons: ConsEnv, globals: Rc<VEnv>) -> VmFn {
        let name_cache = RefCell::new(vec![None; chunk.names.len()].into_boxed_slice());
        let curried = curried_inner(&chunk);
        VmFn {
            chunk,
            captured,
            cons,
            globals,
            name_cache,
            last_capply: RefCell::new(None),
            curried,
        }
    }
}

impl fmt::Debug for VmFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<vmfn {}>", self.chunk.label)
    }
}

fn corrupt(chunk: &Chunk, what: &str) -> EvalError {
    EvalError::new(format!("corrupt chunk {}: {what}", chunk.label))
}

/// Applies `f` to two arguments at once ([`Op::Call2`]), charging the two
/// steps its two applications would. A builtin that exactly these two
/// arguments saturate runs directly — no intermediate partial-application
/// value is built — which is where curried arithmetic spends its time.
/// Everything else (closures, unsaturated or over-applied builtins) falls
/// back to two ordinary applications.
pub(crate) fn call2(
    interp: &mut Interp<'_>,
    f: Value,
    a: Value,
    b: Value,
) -> Result<Value, EvalError> {
    if let Value::VmClosure(vf) = &f {
        if let Some(inner) = &vf.curried {
            interp.charge(2)?;
            // `fn x => fn y => e` applied to both arguments at once: run
            // the inner chunk directly. The outer body would only have
            // built the intermediate closure, so skipping it is
            // unobservable — and the per-call closure allocation is
            // exactly what row-at-a-time loops spend their time on.
            let mut cap = interp.take_vec();
            for s in &inner.srcs {
                cap.push(match s {
                    CapSrc::Arg => a.clone(),
                    CapSrc::Cap(j) => vf.captured[*j].clone(),
                });
            }
            let r = exec(
                interp,
                &inner.chunk,
                Some(b),
                &cap,
                &vf.cons,
                &vf.globals,
                &inner.name_cache,
            );
            interp.give_vec(cap);
            return r;
        }
    }
    if let Value::Builtin(app) = &f {
        if app.cons.len() >= app.spec.con_arity && app.args.len() + 2 == app.spec.arity {
            interp.charge(2)?;
            let spec = Rc::clone(&app.spec);
            if app.args.is_empty() {
                return (spec.run)(interp, &app.cons, &[a, b]);
            }
            let mut args = interp.take_vec();
            args.extend_from_slice(&app.args);
            args.push(a);
            args.push(b);
            let r = (spec.run)(interp, &app.cons, &args);
            interp.give_vec(args);
            return r;
        }
    }
    let g = interp.apply(f, a)?;
    interp.apply(g, b)
}

/// Resolves runtime constructor bindings into `c` and head-normalizes —
/// the VM-side mirror of [`Interp::resolve_con`].
///
/// Memoized on the interpreter by `(c, head pointer of cons)`: the
/// binding list is immutable and the memo entry pins its head `Rc`, so
/// a pointer match proves the environment is the same one the result
/// was computed under. Render loops re-resolve the same names under the
/// same environments every iteration; after the first, resolution is
/// one hash lookup instead of a substitution + normalization pass.
fn resolve_con(interp: &mut Interp<'_>, cons: &ConsEnv, c: RCon) -> RCon {
    let key = (c, cons.as_ref().map_or(0, |rc| Rc::as_ptr(rc) as usize));
    if let Some((_, out)) = interp.resolve_memo.get(&key) {
        return *out;
    }
    let out = resolve_bound(c, |v| cons_lookup(cons, v));
    let out = hnf(interp.genv, &mut interp.cx, &out);
    interp.memo_resolution(key, cons.clone(), out);
    out
}

fn resolve_name(interp: &mut Interp<'_>, cons: &ConsEnv, c: RCon) -> Result<Rc<str>, EvalError> {
    crate::interp::field_name(resolve_con(interp, cons, c))
}

fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(n) => Value::Int(*n),
        Lit::Float(x) => Value::Float(*x),
        Lit::Str(s) => Value::Str(Rc::from(s.as_str())),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Unit => Value::Unit,
    }
}

/// The static field name at `names[i]`, as a shared `Rc<str>` cached on
/// the function instance.
fn static_name(
    chunk: &Chunk,
    cache: &RefCell<Box<[Option<Rc<str>>]>>,
    i: u32,
) -> Result<Rc<str>, EvalError> {
    let mut slots = cache.borrow_mut();
    match slots.get_mut(i as usize) {
        Some(Some(rc)) => Ok(Rc::clone(rc)),
        Some(slot) => {
            let is: IStr = *chunk
                .names
                .get(i as usize)
                .ok_or_else(|| corrupt(chunk, "name index out of range"))?;
            let rc: Rc<str> = Rc::from(is.as_str());
            *slot = Some(Rc::clone(&rc));
            Ok(rc)
        }
        None => Err(corrupt(chunk, "name cache out of range")),
    }
}

/// Runs a chunk as a top-level expression against the global value
/// environment (the session's accumulated `val` bindings), with its step
/// count starting from zero. Times the whole dispatch into
/// [`EvalStats::dispatch_ns`].
///
/// # Errors
///
/// Exactly the failures the interpreter reports: builtin errors and
/// invariant violations — plus corrupt-chunk errors, which only
/// hand-crafted or truncated chunks can trigger.
pub fn run(
    interp: &mut Interp<'_>,
    chunk: &Arc<Chunk>,
    globals: &VEnv,
) -> Result<Value, EvalError> {
    let (g, cons) = share_globals(globals);
    run_shared(interp, chunk, &g, &cons)
}

/// Builds the shared form [`run_shared`] consumes: the globals behind
/// an `Rc` plus the root constructor-binding list. Embedders that
/// evaluate many bodies against the same globals (a session, a render
/// loop) should build this once and reuse it — [`run`] rebuilds it per
/// call, which clones every top-level value.
pub fn share_globals(globals: &VEnv) -> (Rc<VEnv>, ConsEnv) {
    let mut cons: ConsEnv = None;
    for (sym, con) in &globals.cons {
        cons = Some(Rc::new(ConsFrame {
            sym: *sym,
            con: *con,
            next: cons,
        }));
    }
    (Rc::new(globals.clone()), cons)
}

/// [`run`] against a pre-shared global environment — the fast path:
/// no per-run clone of the top-level bindings.
///
/// # Errors
///
/// As [`run`].
pub fn run_shared(
    interp: &mut Interp<'_>,
    chunk: &Arc<Chunk>,
    globals: &Rc<VEnv>,
    cons: &ConsEnv,
) -> Result<Value, EvalError> {
    let t0 = std::time::Instant::now();
    interp.steps = 0;
    let cache = RefCell::new(vec![None; chunk.names.len()].into_boxed_slice());
    let r = exec(interp, chunk, None, &[], cons, globals, &cache);
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    interp.eval_stats.dispatch_ns = interp.eval_stats.dispatch_ns.saturating_add(ns);
    interp.eval_stats.steps = interp.eval_stats.steps.saturating_add(interp.steps);
    r
}

/// Applies a compiled value closure. (Entry point for [`Interp::apply`].)
pub fn call(interp: &mut Interp<'_>, f: &VmFn, arg: Value) -> Result<Value, EvalError> {
    exec(
        interp,
        &f.chunk,
        Some(arg),
        &f.captured,
        &f.cons,
        &f.globals,
        &f.name_cache,
    )
}

/// Applies a compiled constructor closure to a constructor argument.
/// (Entry point for [`Interp::capply`].)
pub fn capply(interp: &mut Interp<'_>, f: &VmFn, c: RCon) -> Result<Value, EvalError> {
    let cons = match f.chunk.cparam {
        Some(a) => {
            let mut memo = f.last_capply.borrow_mut();
            match &*memo {
                Some((prev, env)) if *prev == c => env.clone(),
                _ => {
                    let env = Some(Rc::new(ConsFrame {
                        sym: a,
                        con: c,
                        next: f.cons.clone(),
                    }));
                    *memo = Some((c, env.clone()));
                    env
                }
            }
        }
        None => f.cons.clone(),
    };
    exec(
        interp,
        &f.chunk,
        None,
        &f.captured,
        &cons,
        &f.globals,
        &f.name_cache,
    )
}

/// Forces a compiled guard suspension (`e !`). (Entry point for the
/// interpreter's `DApp` case.)
pub fn force(interp: &mut Interp<'_>, f: &VmFn) -> Result<Value, EvalError> {
    exec(
        interp,
        &f.chunk,
        None,
        &f.captured,
        &f.cons,
        &f.globals,
        &f.name_cache,
    )
}

fn exec(
    interp: &mut Interp<'_>,
    chunk: &Arc<Chunk>,
    arg: Option<Value>,
    captured: &[Value],
    cons: &ConsEnv,
    globals: &Rc<VEnv>,
    name_cache: &RefCell<Box<[Option<Rc<str>>]>>,
) -> Result<Value, EvalError> {
    interp.enter()?;
    let mut ops_run = 0u64;
    let mut frame = interp.take_vec();
    let mut stack = interp.take_vec();
    let r = dispatch(
        interp, chunk, arg, captured, cons, globals, name_cache, &mut frame, &mut stack,
        &mut ops_run,
    );
    interp.give_vec(frame);
    interp.give_vec(stack);
    interp.eval_stats.vm_ops = interp.eval_stats.vm_ops.saturating_add(ops_run);
    interp.leave();
    r
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn dispatch(
    interp: &mut Interp<'_>,
    chunk: &Arc<Chunk>,
    arg: Option<Value>,
    captured: &[Value],
    cons: &ConsEnv,
    globals: &Rc<VEnv>,
    name_cache: &RefCell<Box<[Option<Rc<str>>]>>,
    frame: &mut Vec<Value>,
    stack: &mut Vec<Value>,
    ops_run: &mut u64,
) -> Result<Value, EvalError> {
    frame.resize(chunk.n_slots as usize, Value::Unit);
    if chunk.has_param {
        match (arg, frame.first_mut()) {
            (Some(v), Some(slot)) => *slot = v,
            _ => return Err(corrupt(chunk, "missing parameter")),
        }
    }
    for (i, (_, self_slot)) in chunk.caps.iter().enumerate() {
        let v = captured
            .get(i)
            .ok_or_else(|| corrupt(chunk, "missing capture"))?
            .clone();
        match frame.get_mut(*self_slot as usize) {
            Some(slot) => *slot = v,
            None => return Err(corrupt(chunk, "capture slot out of range")),
        }
    }

    let mut pc = 0usize;

    macro_rules! pop {
        () => {
            stack
                .pop()
                .ok_or_else(|| corrupt(chunk, "operand stack underflow"))?
        };
    }
    macro_rules! sub_chunk {
        ($i:expr) => {
            chunk
                .subs
                .get($i as usize)
                .ok_or_else(|| corrupt(chunk, "sub-chunk index out of range"))?
        };
    }
    macro_rules! con_at {
        ($i:expr) => {
            chunk
                .cons
                .get($i as usize)
                .copied()
                .ok_or_else(|| corrupt(chunk, "con index out of range"))?
        };
    }

    // Creates a VmFn for `subs[i]`, capturing the listed frame slots.
    macro_rules! make_fn {
        ($i:expr) => {{
            let sub = sub_chunk!($i);
            let mut cap = Vec::with_capacity(sub.caps.len());
            for (parent_slot, _) in &sub.caps {
                cap.push(
                    frame
                        .get(*parent_slot as usize)
                        .ok_or_else(|| corrupt(chunk, "capture source out of range"))?
                        .clone(),
                );
            }
            Rc::new(VmFn::new(
                Arc::clone(sub),
                cap.into_boxed_slice(),
                cons.clone(),
                Rc::clone(globals),
            ))
        }};
    }

    loop {
        let Some(op) = chunk.ops.get(pc).copied() else {
            return Err(corrupt(chunk, "fell off the end of the code"));
        };
        *ops_run += 1;
        pc += 1;
        match op {
            Op::Const(i) => {
                let l = chunk
                    .consts
                    .get(i as usize)
                    .ok_or_else(|| corrupt(chunk, "constant index out of range"))?;
                stack.push(lit_value(l));
            }
            Op::Local(i) => {
                let v = frame
                    .get(i as usize)
                    .ok_or_else(|| corrupt(chunk, "local slot out of range"))?
                    .clone();
                stack.push(v);
            }
            Op::SetLocal(i) => {
                let v = pop!();
                match frame.get_mut(i as usize) {
                    Some(slot) => *slot = v,
                    None => return Err(corrupt(chunk, "local slot out of range")),
                }
            }
            Op::Pop => {
                let _ = pop!();
            }
            Op::Global(i) => {
                let x = chunk
                    .syms
                    .get(i as usize)
                    .copied()
                    .ok_or_else(|| corrupt(chunk, "global index out of range"))?;
                if let Some(v) = globals.vals.get(&x) {
                    stack.push(v.clone());
                } else if let Some(r) = interp.global_builtin(x) {
                    stack.push(r?);
                } else {
                    return Err(EvalError::of_kind(
                        EvalErrorKind::UnboundVar,
                        format!("unbound variable {x:?} at runtime"),
                    ));
                }
            }
            Op::Call => {
                let a = pop!();
                let f = pop!();
                let v = interp.apply(f, a)?;
                stack.push(v);
            }
            Op::Call2 => {
                let b = pop!();
                let a = pop!();
                let f = pop!();
                let v = call2(interp, f, a, b)?;
                stack.push(v);
            }
            Op::Closure(i) => stack.push(Value::VmClosure(make_fn!(i))),
            Op::CClosure(i) => stack.push(Value::VmCClosure(make_fn!(i))),
            Op::Susp(i) => stack.push(Value::VmDSusp(make_fn!(i))),
            Op::CApplyStatic(i) => {
                let c = con_at!(i);
                let f = pop!();
                let v = interp.capply(f, c)?;
                stack.push(v);
            }
            Op::CApplyDyn(i) => {
                let c = resolve_con(interp, cons, con_at!(i));
                let f = pop!();
                let v = interp.capply(f, c)?;
                stack.push(v);
            }
            Op::Force => {
                let v = pop!();
                interp.charge(1)?;
                let forced = match v {
                    Value::VmDSusp(s) => force(interp, &s)?,
                    Value::DSusp(s) => {
                        let env = s.env.clone();
                        interp.eval(&env, &s.body)?
                    }
                    // Builtins erase guards.
                    other => other,
                };
                stack.push(forced);
            }
            Op::RecNil => stack.push(Value::record(BTreeMap::new())),
            Op::RecOneStatic(i) => {
                let name = static_name(chunk, name_cache, i)?;
                let v = pop!();
                let mut map = BTreeMap::new();
                map.insert(name, v);
                stack.push(Value::record(map));
            }
            Op::NameDyn(i) => {
                let name = resolve_name(interp, cons, con_at!(i))?;
                stack.push(Value::Str(name));
            }
            Op::RecOneDynTop => {
                let v = pop!();
                let name = pop!().as_str()?;
                let mut map = BTreeMap::new();
                map.insert(name, v);
                stack.push(Value::record(map));
            }
            Op::RecCat => {
                let vb = pop!();
                let va = pop!();
                match (va, vb) {
                    (Value::Record(ra), Value::Record(rb)) => {
                        stack.push(Interp::rec_cat(ra, rb)?);
                    }
                    (a, b) => {
                        return Err(EvalError::of_kind(
                            EvalErrorKind::TypeMismatch,
                            format!("record concatenation of non-records {a} and {b}"),
                        ))
                    }
                }
            }
            Op::ProjStatic(i) => {
                let name = static_name(chunk, name_cache, i)?;
                let rv = pop!();
                let rec = rv.as_record()?;
                let v = rec.get(&name).cloned().ok_or_else(|| {
                    EvalError::of_kind(
                        EvalErrorKind::MissingField,
                        format!("record {rv} has no field {name}"),
                    )
                })?;
                stack.push(v);
            }
            Op::ProjDynTop => {
                let rv = pop!();
                let name = pop!().as_str()?;
                let rec = rv.as_record()?;
                let v = rec.get(&name).cloned().ok_or_else(|| {
                    EvalError::of_kind(
                        EvalErrorKind::MissingField,
                        format!("record {rv} has no field {name}"),
                    )
                })?;
                stack.push(v);
            }
            Op::CutStatic(i) => {
                let name = static_name(chunk, name_cache, i)?;
                let rv = pop!();
                let mut rec = rv.as_record()?.clone();
                if rec.remove(&name).is_none() {
                    return Err(EvalError::of_kind(
                        EvalErrorKind::MissingField,
                        format!("record {rv} has no field {name} to remove"),
                    ));
                }
                stack.push(Value::record(rec));
            }
            Op::CutDynTop => {
                let rv = pop!();
                let name = pop!().as_str()?;
                let mut rec = rv.as_record()?.clone();
                if rec.remove(&name).is_none() {
                    return Err(EvalError::of_kind(
                        EvalErrorKind::MissingField,
                        format!("record {rv} has no field {name} to remove"),
                    ));
                }
                stack.push(Value::record(rec));
            }
            Op::Jump(t) => pc = t as usize,
            Op::JumpIfFalse(t) => {
                if !pop!().as_bool()? {
                    pc = t as usize;
                }
            }
            Op::Ret => return Ok(pop!()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::interp::World;
    use crate::value::Builtin;
    use std::collections::HashMap;
    use ur_core::con::Con;
    use ur_core::env::Env;
    use ur_core::expr::{Expr, RExpr};
    use ur_core::kind::Kind;
    use ur_core::Cx;

    fn run_vm(e: &RExpr) -> Result<Value, EvalError> {
        let genv = Env::new();
        let mut cx = Cx::new();
        let chunk = compile(&genv, &mut cx, e, "test");
        let mut world = World::new();
        let builtins = HashMap::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        run(&mut interp, &chunk, &VEnv::new())
    }

    fn run_both(e: &RExpr) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
        let genv = Env::new();
        let builtins = HashMap::new();
        let mut world = World::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let tree = interp.eval(&VEnv::new(), e);
        (run_vm(e), tree)
    }

    fn assert_agree(e: &RExpr) {
        let (vm, tree) = run_both(e);
        match (&vm, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a.to_string(), b.to_string()),
            (Err(a), Err(b)) => assert_eq!(a.kind, b.kind, "vm {a:?} vs interp {b:?}"),
            other => panic!("engines disagree: {other:?}"),
        }
    }

    #[test]
    fn literals_and_if() {
        let e = Expr::if_(
            Expr::lit(Lit::Bool(false)),
            Expr::lit(Lit::Int(1)),
            Expr::lit(Lit::Int(2)),
        );
        assert!(matches!(run_vm(&e), Ok(Value::Int(2))));
        assert_agree(&e);
    }

    #[test]
    fn lambda_application_and_capture() {
        // (fn x => fn y => x) 41 1  ==>  41, via a real capture.
        let x = Sym::fresh("x");
        let y = Sym::fresh("y");
        let f = Expr::lam(
            x,
            Con::int(),
            Expr::lam(y, Con::int(), Expr::var(&x)),
        );
        let e = Expr::app(
            Expr::app(f, Expr::lit(Lit::Int(41))),
            Expr::lit(Lit::Int(1)),
        );
        assert!(matches!(run_vm(&e), Ok(Value::Int(41))));
        assert_agree(&e);
    }

    #[test]
    fn records_project_cut_concat() {
        let rec = Expr::record(vec![
            (Con::name("A"), Expr::lit(Lit::Int(1))),
            (Con::name("B"), Expr::lit(Lit::Int(2))),
            (Con::name("C"), Expr::lit(Lit::Int(3))),
        ]);
        assert_agree(&Expr::proj(rec, Con::name("B")));
        assert_agree(&Expr::cut(rec, Con::name("A")));
        assert_agree(&rec);
    }

    #[test]
    fn projection_by_constructor_variable() {
        // (fn [nm :: Name] => fn (x : $[nm = int]) => x.nm) [#A] {A = 7}
        let nm = Sym::fresh("nm");
        let x = Sym::fresh("x");
        let f = Expr::clam(
            nm,
            Kind::Name,
            Expr::lam(
                x,
                Con::record(Con::row_one(Con::var(&nm), Con::int())),
                Expr::proj(Expr::var(&x), Con::var(&nm)),
            ),
        );
        let e = Expr::app(
            Expr::capp(f, Con::name("A")),
            Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(7)))]),
        );
        assert!(matches!(run_vm(&e), Ok(Value::Int(7))));
        assert_agree(&e);
    }

    #[test]
    fn guard_suspends_and_forces() {
        let g = Expr::dlam(
            Con::row_nil(Kind::Type),
            Con::row_nil(Kind::Type),
            Expr::lit(Lit::Int(9)),
        );
        assert_agree(&Expr::dapp(g));
    }

    #[test]
    fn let_shadowing() {
        let x = Sym::fresh("x");
        let x2 = Sym::fresh("x");
        let e = Expr::let_(
            x,
            Con::int(),
            Expr::lit(Lit::Int(1)),
            Expr::let_(x2, Con::int(), Expr::lit(Lit::Int(2)), Expr::var(&x2)),
        );
        assert!(matches!(run_vm(&e), Ok(Value::Int(2))));
        assert_agree(&e);
    }

    #[test]
    fn missing_field_errors_match_kinds() {
        let rec = Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(1)))]);
        let (vm, tree) = run_both(&Expr::proj(rec, Con::name("Z")));
        assert_eq!(vm.unwrap_err().kind, EvalErrorKind::MissingField);
        assert_eq!(tree.unwrap_err().kind, EvalErrorKind::MissingField);
    }

    #[test]
    fn duplicate_field_concat_errors_match_kinds() {
        let r1 = Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(1)))]);
        let r2 = Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(2)))]);
        let (vm, tree) = run_both(&Expr::rec_cat(r1, r2));
        assert_eq!(vm.unwrap_err().kind, EvalErrorKind::DuplicateField);
        assert_eq!(tree.unwrap_err().kind, EvalErrorKind::DuplicateField);
    }

    #[test]
    fn globals_resolve_lazily_through_builtins() {
        let genv = Env::new();
        let mut cx = Cx::new();
        let mut builtins = HashMap::new();
        let plus = Sym::fresh("add");
        builtins.insert(
            plus,
            Rc::new(Builtin {
                name: "add".into(),
                con_arity: 0,
                arity: 2,
                run: Rc::new(|_, _, args| {
                    Ok(Value::Int(args[0].as_int()? + args[1].as_int()?))
                }),
            }),
        );
        let e = Expr::app(
            Expr::app(Expr::var(&plus), Expr::lit(Lit::Int(2))),
            Expr::lit(Lit::Int(3)),
        );
        let chunk = compile(&genv, &mut cx, &e, "test");
        let mut world = World::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let v = run(&mut interp, &chunk, &VEnv::new()).unwrap();
        assert!(matches!(v, Value::Int(5)));
        assert!(interp.eval_stats.vm_ops > 0, "dispatch loop counted ops");
    }

    #[test]
    fn globals_come_from_the_session_environment() {
        let genv = Env::new();
        let mut cx = Cx::new();
        let g = Sym::fresh("g");
        let chunk = compile(&genv, &mut cx, &Expr::var(&g), "test");
        let mut world = World::new();
        let builtins = HashMap::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let globals = VEnv::new().with_val(g, Value::Int(77));
        let v = run(&mut interp, &chunk, &globals).unwrap();
        assert!(matches!(v, Value::Int(77)));
        // And an unbound global is the interpreter's error, kind and all.
        let err = run(&mut interp, &chunk, &VEnv::new()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::UnboundVar);
    }

    #[test]
    fn vm_closures_flow_through_tree_interpreter_application() {
        // Compile `fn x => x`, then apply it FROM the interpreter.
        let x = Sym::fresh("x");
        let genv = Env::new();
        let mut cx = Cx::new();
        let chunk = compile(
            &genv,
            &mut cx,
            &Expr::lam(x, Con::int(), Expr::var(&x)),
            "id",
        );
        let mut world = World::new();
        let builtins = HashMap::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let f = run(&mut interp, &chunk, &VEnv::new()).unwrap();
        assert!(matches!(f, Value::VmClosure(_)));
        let v = interp.apply(f, Value::Int(13)).unwrap();
        assert!(matches!(v, Value::Int(13)));
    }
}
