//! The call-by-value interpreter over elaborated core terms.

use crate::error::{EvalError, EvalErrorKind};
use crate::value::{Builtin, BuiltinApp, CClosure, Closure, DSusp, VEnv, Value};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use ur_core::con::{Con, RCon};
use ur_core::env::Env;
use ur_core::expr::{Expr, Lit, RExpr};
use ur_core::hnf::hnf;
use ur_core::subst::resolve_bound;
use ur_core::sym::Sym;
use ur_core::Cx;

/// Mutable world state visible to effectful builtins. `Clone` backs
/// `Session::reelaborate`, which restores the world its first call
/// captured (database, sequences, SQL log, debug output) before every
/// rebuild.
#[derive(Clone, Default)]
pub struct World {
    /// The database backing the SQL builtins.
    pub db: ur_db::Db,
    /// Debug output collected by the `debug` builtin.
    pub out: Vec<String>,
}

impl World {
    pub fn new() -> World {
        World::default()
    }
}

/// The interpreter: world state, the global constructor environment (for
/// resolving type-level names at runtime), and the builtin registry.
pub struct Interp<'a> {
    pub world: &'a mut World,
    pub genv: &'a Env,
    pub builtins: &'a HashMap<Sym, Rc<Builtin>>,
    /// Scratch context for constructor normalization.
    pub cx: Cx,
    /// Counters accumulated by VM dispatch loops run through this
    /// interpreter (ops executed, wall-clock in the dispatch loop). The
    /// embedder folds them into its session-wide stats after each eval.
    pub eval_stats: crate::vm::EvalStats,
    /// VM-side resolution memo: `(constructor, cons-env head pointer)` →
    /// the resolved constructor. The entry pins the environment's head
    /// `Rc`, so while it is in the table no other allocation can take
    /// that address — pointer equality then implies the same immutable
    /// binding list. The tree-walker cannot use this table: its
    /// environments are cloned `HashMap`s with no stable identity,
    /// which is precisely the structural cost compilation removes.
    pub(crate) resolve_memo: HashMap<(RCon, usize), (crate::vm::ConsEnv, RCon)>,
    /// Unapplied-builtin wrapper values, allocated once per symbol
    /// instead of once per mention.
    builtin_vals: HashMap<Sym, Value>,
    /// Recycled VM frame and operand-stack buffers: a render loop
    /// enters thousands of chunks, and reusing the buffers keeps the
    /// dispatch loop off the allocator entirely for calls.
    pub(crate) vec_pool: Vec<Vec<Value>>,
    /// Recursive entries (`eval`, `apply`, the VM's `exec`) open on this
    /// evaluation, against [`MAX_EVAL_DEPTH`].
    depth: usize,
    /// Steps charged since the last top-level run, against
    /// [`Interp::max_steps`]: one per application of a value to an
    /// argument, to a constructor or to `!`, on either engine, and one
    /// per element a builtin copies or produces ([`Interp::charge`]).
    pub steps: u64,
    /// The step ceiling. Embedders set the `max_norm_steps` of the limits
    /// in force, so a request's deadline bounds its evaluation the way it
    /// bounds its elaboration; past it, evaluation fails with
    /// [`EvalErrorKind::OutOfFuel`].
    pub max_steps: u64,
}

/// The evaluation depth budget: nested [`Interp::eval`], [`Interp::apply`]
/// and VM `exec` entries one evaluation may have open. Evaluation runs
/// on the caller's thread, and the deepest admitted evaluation fits a
/// 2 MiB thread in a release build: one level costs at most about 1 KiB
/// of stack there (docs/ROBUSTNESS.md §1). Past the budget,
/// evaluation fails with [`EvalErrorKind::TooDeep`] instead of
/// overflowing the stack.
pub const MAX_EVAL_DEPTH: usize = 1_000;

/// The literal field name a resolved constructor must be.
pub(crate) fn field_name(c: RCon) -> Result<Rc<str>, EvalError> {
    match &*c {
        Con::Name(n) => Ok(Rc::from(n.as_str())),
        other => Err(EvalError::of_kind(
            EvalErrorKind::UnresolvedName,
            format!("field name did not reduce to a literal: {other}"),
        )),
    }
}

/// Bound on [`Interp::resolve_memo`]: adversarial workloads that keep
/// instantiating fresh constructor environments flush the table instead
/// of growing it without limit.
const RESOLVE_MEMO_CAP: usize = 1 << 16;

impl<'a> Interp<'a> {
    pub fn new(
        world: &'a mut World,
        genv: &'a Env,
        builtins: &'a HashMap<Sym, Rc<Builtin>>,
    ) -> Interp<'a> {
        Interp {
            world,
            genv,
            builtins,
            cx: Cx::new(),
            eval_stats: crate::vm::EvalStats::default(),
            resolve_memo: HashMap::new(),
            builtin_vals: HashMap::new(),
            vec_pool: Vec::new(),
            depth: 0,
            steps: 0,
            max_steps: ur_core::limits::Limits::default().max_norm_steps,
        }
    }

    /// Charges `n` steps against [`Interp::max_steps`]. The engines
    /// charge one per application; a builtin whose native work grows with
    /// its input charges one per element it copies or produces, before
    /// doing that work, so no step does unbounded work.
    ///
    /// # Errors
    ///
    /// [`EvalErrorKind::OutOfFuel`] once the ceiling is passed.
    #[inline]
    pub fn charge(&mut self, n: u64) -> Result<(), EvalError> {
        self.steps = self.steps.saturating_add(n);
        if self.steps > self.max_steps {
            return Err(self.out_of_fuel());
        }
        Ok(())
    }

    #[cold]
    fn out_of_fuel(&self) -> EvalError {
        EvalError::of_kind(
            EvalErrorKind::OutOfFuel,
            format!(
                "evaluation ran out of fuel: the step budget of {} steps is exhausted",
                self.max_steps
            ),
        )
    }

    /// Charges one level of [`MAX_EVAL_DEPTH`]; [`Interp::leave`] gives
    /// it back.
    pub(crate) fn enter(&mut self) -> Result<(), EvalError> {
        if self.depth >= MAX_EVAL_DEPTH {
            return Err(EvalError::of_kind(
                EvalErrorKind::TooDeep,
                format!(
                    "evaluation nested too deep: the depth budget of \
                     {MAX_EVAL_DEPTH} nested calls is exhausted"
                ),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    /// A cleared scratch buffer from the pool (or a fresh one).
    pub(crate) fn take_vec(&mut self) -> Vec<Value> {
        self.vec_pool.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool for reuse.
    pub(crate) fn give_vec(&mut self, mut v: Vec<Value>) {
        v.clear();
        if self.vec_pool.len() < 64 {
            self.vec_pool.push(v);
        }
    }

    /// Looks `x` up in the builtin registry and produces its value: a
    /// nullary builtin runs immediately (it may touch the world, so its
    /// result is never cached); anything else yields a shared
    /// unapplied-builtin wrapper.
    pub(crate) fn global_builtin(&mut self, x: Sym) -> Option<Result<Value, EvalError>> {
        if let Some(v) = self.builtin_vals.get(&x) {
            return Some(Ok(v.clone()));
        }
        let spec = Rc::clone(self.builtins.get(&x)?);
        let app = BuiltinApp {
            spec,
            cons: Vec::new(),
            args: Vec::new(),
        };
        if app.spec.arity == 0 && app.spec.con_arity == 0 {
            return Some(self.maybe_run_builtin(app));
        }
        let v = Value::Builtin(Rc::new(app));
        self.builtin_vals.insert(x, v.clone());
        Some(Ok(v))
    }

    /// Memo insert for [`crate::vm`]'s resolver, bounded by
    /// [`RESOLVE_MEMO_CAP`].
    pub(crate) fn memo_resolution(
        &mut self,
        key: (RCon, usize),
        pin: crate::vm::ConsEnv,
        out: RCon,
    ) {
        if self.resolve_memo.len() >= RESOLVE_MEMO_CAP {
            self.resolve_memo.clear();
        }
        self.resolve_memo.insert(key, (pin, out));
    }

    /// Substitutes the runtime constructor bindings of `venv` into `c` and
    /// head-normalizes.
    pub fn resolve_con(&mut self, venv: &VEnv, c: &RCon) -> RCon {
        let out = resolve_bound(*c, |v| venv.cons.get(&v).copied());
        hnf(self.genv, &mut self.cx, &out)
    }

    /// Resolves a constructor expected to be a field name to the literal
    /// name string.
    pub fn resolve_name(&mut self, venv: &VEnv, c: &RCon) -> Result<Rc<str>, EvalError> {
        field_name(self.resolve_con(venv, c))
    }

    /// Evaluates an expression in an environment.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on builtin failures or interpreter
    /// invariant violations (the latter indicate elaborator bugs).
    pub fn eval(&mut self, venv: &VEnv, e: &RExpr) -> Result<Value, EvalError> {
        self.enter()?;
        let r = self.eval_node(venv, e);
        self.leave();
        r
    }

    fn eval_node(&mut self, venv: &VEnv, e: &RExpr) -> Result<Value, EvalError> {
        match &**e {
            Expr::Var(x) => {
                if let Some(v) = venv.vals.get(x) {
                    return Ok(v.clone());
                }
                if let Some(r) = self.global_builtin(*x) {
                    return r;
                }
                Err(EvalError::of_kind(
                    EvalErrorKind::UnboundVar,
                    format!("unbound variable {x:?} at runtime"),
                ))
            }
            Expr::Lit(l) => Ok(match l {
                Lit::Int(n) => Value::Int(*n),
                Lit::Float(x) => Value::Float(*x),
                Lit::Str(s) => Value::Str(Rc::from(s.as_str())),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Unit => Value::Unit,
            }),
            Expr::App(f, a) => {
                let fv_ = self.eval(venv, f)?;
                let av = self.eval(venv, a)?;
                self.apply(fv_, av)
            }
            Expr::Lam(x, _, body) => Ok(Value::Closure(Rc::new(Closure {
                env: venv.clone(),
                param: *x,
                body: (*body),
            }))),
            Expr::CApp(f, c) => {
                let fv_ = self.eval(venv, f)?;
                let c = self.resolve_con(venv, c);
                self.capply(fv_, c)
            }
            Expr::CLam(a, _, body) => Ok(Value::CClosure(Rc::new(CClosure {
                env: venv.clone(),
                param: *a,
                body: (*body),
            }))),
            Expr::RecNil => Ok(Value::record(BTreeMap::new())),
            Expr::RecOne(n, v) => {
                let name = self.resolve_name(venv, n)?;
                let val = self.eval(venv, v)?;
                let mut map = BTreeMap::new();
                map.insert(name, val);
                Ok(Value::record(map))
            }
            Expr::RecCat(a, b) => {
                let va = self.eval(venv, a)?;
                let vb = self.eval(venv, b)?;
                match (va, vb) {
                    (Value::Record(ra), Value::Record(rb)) => Self::rec_cat(ra, rb),
                    (a, b) => Err(EvalError::of_kind(
                        EvalErrorKind::TypeMismatch,
                        format!("record concatenation of non-records {a} and {b}"),
                    )),
                }
            }
            Expr::Proj(r, c) => {
                let name = self.resolve_name(venv, c)?;
                let rv = self.eval(venv, r)?;
                let rec = rv.as_record()?;
                rec.get(&name).cloned().ok_or_else(|| {
                    EvalError::of_kind(
                        EvalErrorKind::MissingField,
                        format!("record {rv} has no field {name}"),
                    )
                })
            }
            Expr::Cut(r, c) => {
                let name = self.resolve_name(venv, c)?;
                let rv = self.eval(venv, r)?;
                let mut rec = rv.as_record()?.clone();
                if rec.remove(&name).is_none() {
                    return Err(EvalError::of_kind(
                        EvalErrorKind::MissingField,
                        format!("record {rv} has no field {name} to remove"),
                    ));
                }
                Ok(Value::record(rec))
            }
            Expr::DLam(_, _, body) => Ok(Value::DSusp(Rc::new(DSusp {
                env: venv.clone(),
                body: (*body),
            }))),
            Expr::DApp(e) => {
                let v = self.eval(venv, e)?;
                self.charge(1)?;
                match v {
                    Value::DSusp(s) => {
                        let env = s.env.clone();
                        self.eval(&env, &s.body)
                    }
                    Value::VmDSusp(s) => crate::vm::force(self, &s),
                    // Builtins erase guards.
                    other => Ok(other),
                }
            }
            Expr::Let(x, _, bound, body) => {
                let bv = self.eval(venv, bound)?;
                let env2 = venv.with_val(*x, bv);
                self.eval(&env2, body)
            }
            Expr::If(c, t, el) => {
                if self.eval(venv, c)?.as_bool()? {
                    self.eval(venv, t)
                } else {
                    self.eval(venv, el)
                }
            }
        }
    }

    /// Applies a function value to an argument. Dispatches on the value's
    /// engine: tree closures evaluate here, compiled closures run in the
    /// VM — so values from either engine mix freely (higher-order
    /// builtins apply whatever the program handed them).
    pub fn apply(&mut self, f: Value, arg: Value) -> Result<Value, EvalError> {
        self.charge(1)?;
        self.enter()?;
        let r = self.apply_value(f, arg);
        self.leave();
        r
    }

    fn apply_value(&mut self, f: Value, arg: Value) -> Result<Value, EvalError> {
        match f {
            Value::Closure(c) => {
                let env2 = c.env.with_val(c.param, arg);
                self.eval(&env2, &c.body)
            }
            Value::VmClosure(c) => crate::vm::call(self, &c, arg),
            Value::Builtin(b) => {
                let mut app = (*b).clone();
                app.args.push(arg);
                self.maybe_run_builtin(app)
            }
            other => Err(EvalError::of_kind(
                EvalErrorKind::NotAFunction,
                format!("application of non-function {other}"),
            )),
        }
    }

    /// Applies a function value to two arguments in sequence, `(f a) b`.
    /// Semantically identical to two [`Interp::apply`] calls; compiled
    /// curried functions and saturated binary builtins skip the
    /// intermediate value (see `vm::call2`), which is what higher-order
    /// builtins like `foldList` spend their per-element time on.
    pub fn apply2(&mut self, f: Value, a: Value, b: Value) -> Result<Value, EvalError> {
        crate::vm::call2(self, f, a, b)
    }

    /// Applies a value to a constructor argument.
    pub fn capply(&mut self, f: Value, c: RCon) -> Result<Value, EvalError> {
        self.charge(1)?;
        match f {
            Value::CClosure(cl) => {
                let env2 = cl.env.with_con(cl.param, c);
                self.eval(&env2, &cl.body)
            }
            Value::VmCClosure(cl) => crate::vm::capply(self, &cl, c),
            Value::Builtin(b) => {
                let mut app = (*b).clone();
                app.cons.push(c);
                self.maybe_run_builtin(app)
            }
            // Constructor application is erased on other values (a
            // monomorphic builtin result being instantiated).
            other => Ok(other),
        }
    }

    /// Concatenates two record maps (`a ++ b`), reusing either side's
    /// allocation when its `Rc` is unshared. Duplicate fields are a
    /// runtime error, mirroring the type system's disjointness
    /// obligation.
    pub(crate) fn rec_cat(
        ra: Rc<std::collections::BTreeMap<Rc<str>, Value>>,
        rb: Rc<std::collections::BTreeMap<Rc<str>, Value>>,
    ) -> Result<Value, EvalError> {
        let mut ra = Rc::try_unwrap(ra).unwrap_or_else(|rc| (*rc).clone());
        let rb = Rc::try_unwrap(rb).unwrap_or_else(|rc| (*rc).clone());
        for (k, v) in rb {
            if ra.insert(Rc::clone(&k), v).is_some() {
                return Err(EvalError::of_kind(
                    EvalErrorKind::DuplicateField,
                    format!(
                        "duplicate field {k} in record concatenation \
                         (type system should prevent this)"
                    ),
                ));
            }
        }
        Ok(Value::record(ra))
    }

    pub(crate) fn maybe_run_builtin(&mut self, app: BuiltinApp) -> Result<Value, EvalError> {
        if app.args.len() >= app.spec.arity && app.cons.len() >= app.spec.con_arity {
            let spec = app.spec;
            (spec.run)(self, &app.cons, &app.args)
        } else {
            Ok(Value::Builtin(Rc::new(app)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ur_core::kind::Kind;

    fn run(e: &RExpr) -> Value {
        let mut world = World::new();
        let genv = Env::new();
        let builtins = HashMap::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        interp.eval(&VEnv::new(), e).unwrap()
    }

    #[test]
    fn literals_and_if() {
        let e = Expr::if_(
            Expr::lit(Lit::Bool(true)),
            Expr::lit(Lit::Int(1)),
            Expr::lit(Lit::Int(2)),
        );
        assert!(matches!(run(&e), Value::Int(1)));
    }

    #[test]
    fn lambda_application() {
        let x = Sym::fresh("x");
        let f = Expr::lam(x, Con::int(), Expr::var(&x));
        let e = Expr::app(f, Expr::lit(Lit::Int(42)));
        assert!(matches!(run(&e), Value::Int(42)));
    }

    #[test]
    fn records_project_and_cut() {
        let rec = Expr::record(vec![
            (Con::name("A"), Expr::lit(Lit::Int(1))),
            (Con::name("B"), Expr::lit(Lit::Int(2))),
        ]);
        let proj = Expr::proj(rec, Con::name("B"));
        assert!(matches!(run(&proj), Value::Int(2)));
        let cut = Expr::cut(rec, Con::name("A"));
        match run(&cut) {
            Value::Record(r) => {
                assert_eq!(r.len(), 1);
                assert!(r.contains_key("B"));
            }
            other => panic!("unexpected {other}"),
        }
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
        assert!(matches!(run(&e), Value::Int(7)));
    }

    #[test]
    fn guard_suspends_and_forces() {
        let body = Expr::lit(Lit::Int(9));
        let g = Expr::dlam(
            Con::row_nil(Kind::Type),
            Con::row_nil(Kind::Type),
            body,
        );
        let forced = Expr::dapp(g);
        assert!(matches!(run(&forced), Value::Int(9)));
    }

    #[test]
    fn let_binds() {
        let x = Sym::fresh("x");
        let e = Expr::let_(
            x,
            Con::int(),
            Expr::lit(Lit::Int(5)),
            Expr::var(&x),
        );
        assert!(matches!(run(&e), Value::Int(5)));
    }

    #[test]
    fn builtin_partial_application() {
        let mut world = World::new();
        let genv = Env::new();
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
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let e = Expr::app(
            Expr::app(Expr::var(&plus), Expr::lit(Lit::Int(2))),
            Expr::lit(Lit::Int(3)),
        );
        let v = interp.eval(&VEnv::new(), &e).unwrap();
        assert!(matches!(v, Value::Int(5)));
        // Partial application yields a builtin value.
        let partial = interp
            .eval(&VEnv::new(), &Expr::app(Expr::var(&plus), Expr::lit(Lit::Int(1))))
            .unwrap();
        assert!(matches!(partial, Value::Builtin(_)));
    }

    #[test]
    fn duplicate_field_concat_is_runtime_error() {
        // Can only be reached by bypassing the type system.
        let r1 = Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(1)))]);
        let r2 = Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(2)))]);
        let mut world = World::new();
        let genv = Env::new();
        let builtins = HashMap::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let err = interp
            .eval(&VEnv::new(), &Expr::rec_cat(r1, r2))
            .unwrap_err();
        assert!(err.message.contains("duplicate field"));
    }
}
