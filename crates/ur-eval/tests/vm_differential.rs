//! Differential tests: the bytecode VM against the tree-walking
//! interpreter on the core-term edge cases the compiler has to get
//! right — shadowing, capture-by-value closures, empty records, folds
//! over the empty row, and concatenation chains deep enough to smoke
//! out accidental recursion in the dispatch loop. Plus constant-pool
//! behaviour, all through the crate's public API.

use std::collections::HashMap;
use std::rc::Rc;
use ur_core::con::Con;
use ur_core::env::Env;
use ur_core::expr::{Expr, Lit, RExpr};
use ur_core::sym::Sym;
use ur_core::Cx;
use ur_eval::{compile, vm, Builtin, EvalError, EvalErrorKind, Interp, VEnv, Value, World};

/// Runs `e` on both engines with the given builtins and returns
/// (vm result, interpreter result).
fn run_both_with(
    e: &RExpr,
    builtins: &HashMap<Sym, Rc<Builtin>>,
) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
    let genv = Env::new();
    let mut cx = Cx::new();
    let chunk = compile(&genv, &mut cx, e, "diff");
    let mut world = World::new();
    let mut interp = Interp::new(&mut world, &genv, builtins);
    let from_vm = vm::run(&mut interp, &chunk, &VEnv::new());
    let mut world2 = World::new();
    let mut interp2 = Interp::new(&mut world2, &genv, builtins);
    let from_tree = interp2.eval(&VEnv::new(), e);
    (from_vm, from_tree)
}

fn run_both(e: &RExpr) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
    run_both_with(e, &HashMap::new())
}

/// Asserts the engines agree: same rendering on success, same error
/// kind on failure.
fn assert_agree(e: &RExpr) -> Result<Value, EvalError> {
    let (from_vm, from_tree) = run_both(e);
    match (&from_vm, &from_tree) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_string(), b.to_string()),
        (Err(a), Err(b)) => assert_eq!(a.kind, b.kind, "vm {a:?} vs interp {b:?}"),
        other => panic!("engines disagree: {other:?}"),
    }
    from_vm
}

fn int(n: i64) -> RExpr {
    Expr::lit(Lit::Int(n))
}

#[test]
fn let_shadowing_inner_binding_wins() {
    // let x = 1 in let x = 2 in let x = 3 in x
    let (x1, x2, x3) = (Sym::fresh("x"), Sym::fresh("x"), Sym::fresh("x"));
    let e = Expr::let_(
        x1,
        Con::int(),
        int(1),
        Expr::let_(
            x2,
            Con::int(),
            int(2),
            Expr::let_(x3, Con::int(), int(3), Expr::var(&x3)),
        ),
    );
    let v = assert_agree(&e).unwrap();
    assert!(matches!(v, Value::Int(3)));
}

#[test]
fn parameter_shadowed_by_let_and_back() {
    // (fn x => let x2 = x + via-capture in x2) — the let shadows the
    // parameter; the bound expression still sees the parameter.
    let p = Sym::fresh("x");
    let inner = Sym::fresh("x");
    let body = Expr::let_(inner, Con::int(), Expr::var(&p), Expr::var(&inner));
    let e = Expr::app(Expr::lam(p, Con::int(), body), int(17));
    let v = assert_agree(&e).unwrap();
    assert!(matches!(v, Value::Int(17)));
}

#[test]
fn closures_capture_by_value_not_by_slot() {
    // let x = 1 in
    //   let f = fn _ => x in
    //     let x = 99 in f 0
    // Both engines must answer 1: the closure snapshots x at creation.
    let x1 = Sym::fresh("x");
    let f = Sym::fresh("f");
    let x2 = Sym::fresh("x");
    let dummy = Sym::fresh("d");
    let e = Expr::let_(
        x1,
        Con::int(),
        int(1),
        Expr::let_(
            f,
            Con::int(),
            Expr::lam(dummy, Con::int(), Expr::var(&x1)),
            Expr::let_(
                x2,
                Con::int(),
                int(99),
                Expr::app(Expr::var(&f), int(0)),
            ),
        ),
    );
    let v = assert_agree(&e).unwrap();
    assert!(matches!(v, Value::Int(1)));
}

#[test]
fn nested_closures_capture_transitively() {
    // (((fn a => fn b => fn c => a + picks only a) 5) 6) 7 — the inner
    // chunk reaches `a` through two closure hops.
    let (a, b, c) = (Sym::fresh("a"), Sym::fresh("b"), Sym::fresh("c"));
    let e = Expr::app(
        Expr::app(
            Expr::app(
                Expr::lam(
                    a,
                    Con::int(),
                    Expr::lam(b, Con::int(), Expr::lam(c, Con::int(), Expr::var(&a))),
                ),
                int(5),
            ),
            int(6),
        ),
        int(7),
    );
    let v = assert_agree(&e).unwrap();
    assert!(matches!(v, Value::Int(5)));
}

#[test]
fn empty_records_agree() {
    let empty = Expr::record(vec![]);
    // {} renders the same from both engines,
    let v = assert_agree(&empty).unwrap();
    assert!(matches!(&v, Value::Record(m) if m.is_empty()));
    // {} ++ {} is {},
    let _ = assert_agree(&Expr::rec_cat(empty, empty));
    // {} ++ {A = 1} is {A = 1},
    let one = Expr::record(vec![(Con::name("A"), int(1))]);
    let _ = assert_agree(&Expr::rec_cat(empty, one));
    let _ = assert_agree(&Expr::rec_cat(one, empty));
    // and projecting or cutting from {} is the same MissingField error.
    let (vm_p, tree_p) = run_both(&Expr::proj(empty, Con::name("A")));
    assert_eq!(vm_p.unwrap_err().kind, EvalErrorKind::MissingField);
    assert_eq!(tree_p.unwrap_err().kind, EvalErrorKind::MissingField);
    let (vm_c, tree_c) = run_both(&Expr::cut(empty, Con::name("A")));
    assert_eq!(vm_c.unwrap_err().kind, EvalErrorKind::MissingField);
    assert_eq!(tree_c.unwrap_err().kind, EvalErrorKind::MissingField);
}

/// A fold-over-record-fields builtin, standing in for the paper's fold
/// metaprograms: applies `f name value acc` over the fields in sorted
/// order. Over the empty row it must return `init` without ever
/// entering `f` — on either engine — and the closure it applies is a
/// *VM* closure when the VM compiled it, exercising the cross-engine
/// application path.
fn fold_fields_builtins() -> (HashMap<Sym, Rc<Builtin>>, Sym) {
    let sym = Sym::fresh("foldFields");
    let mut m = HashMap::new();
    m.insert(
        sym,
        Rc::new(Builtin {
            name: "foldFields".into(),
            con_arity: 0,
            arity: 3,
            run: Rc::new(|interp, _, args| {
                let f = args[0].clone();
                let mut acc = args[1].clone();
                for (name, v) in args[2].as_record()?.clone() {
                    let g = interp.apply(f.clone(), Value::Str(name))?;
                    let h = interp.apply(g, v.clone())?;
                    acc = interp.apply(h, acc)?;
                }
                Ok(acc)
            }),
        }),
    );
    (m, sym)
}

#[test]
fn fold_over_the_empty_row_returns_the_seed() {
    let (builtins, fold) = fold_fields_builtins();
    let (n, v, a) = (Sym::fresh("n"), Sym::fresh("v"), Sym::fresh("a"));
    let f = Expr::lam(
        n,
        Con::string(),
        Expr::lam(v, Con::int(), Expr::lam(a, Con::int(), Expr::var(&a))),
    );
    let e = Expr::app(
        Expr::app(Expr::app(Expr::var(&fold), f), int(42)),
        Expr::record(vec![]),
    );
    let (from_vm, from_tree) = run_both_with(&e, &builtins);
    let from_vm = from_vm.unwrap();
    assert!(matches!(from_vm, Value::Int(42)), "got {from_vm}");
    assert_eq!(from_vm.to_string(), from_tree.unwrap().to_string());
}

#[test]
fn fold_over_a_real_row_crosses_the_engine_boundary() {
    // f counts fields by returning acc + 1; the VM-compiled closure is
    // applied from inside the builtin (tree-interpreter territory).
    let (builtins, fold) = fold_fields_builtins();
    let (n, v, a) = (Sym::fresh("n"), Sym::fresh("v"), Sym::fresh("a"));
    let bump = Expr::lam(
        n,
        Con::string(),
        Expr::lam(
            v,
            Con::int(),
            Expr::lam(a, Con::int(), Expr::var(&a)),
        ),
    );
    let rec = Expr::record(vec![
        (Con::name("A"), int(1)),
        (Con::name("B"), int(2)),
        (Con::name("C"), int(3)),
    ]);
    let e = Expr::app(Expr::app(Expr::app(Expr::var(&fold), bump), int(0)), rec);
    let (from_vm, from_tree) = run_both_with(&e, &builtins);
    assert_eq!(
        from_vm.unwrap().to_string(),
        from_tree.unwrap().to_string()
    );
}

/// 300 singleton records concatenated left-nested:
/// `((r0 ++ r1) ++ r2) ++ …`. Field names are distinct so the result
/// has 300 fields; the chain stresses compile recursion and the
/// flat-loop dispatch equally on both engines.
#[test]
fn deep_left_nested_concatenation() {
    let mut e = Expr::record(vec![(Con::name("F000"), int(0))]);
    for i in 1..300 {
        let one = Expr::record(vec![(Con::name(format!("F{i:03}")), int(i))]);
        e = Expr::rec_cat(e, one);
    }
    let v = assert_agree(&e).unwrap();
    assert!(matches!(&v, Value::Record(m) if m.len() == 300));
}

/// The same 300 records nested to the right:
/// `r0 ++ (r1 ++ (r2 ++ …))`.
#[test]
fn deep_right_nested_concatenation() {
    let mut e = Expr::record(vec![(Con::name("F299"), int(299))]);
    for i in (0..299).rev() {
        let one = Expr::record(vec![(Con::name(format!("F{i:03}")), int(i))]);
        e = Expr::rec_cat(one, e);
    }
    let v = assert_agree(&e).unwrap();
    assert!(matches!(&v, Value::Record(m) if m.len() == 300));
}

/// 300 nested lets — the VM frame must size to the deepest chain
/// without the engines drifting on which binding is visible.
#[test]
fn deep_let_chains_agree() {
    let syms: Vec<Sym> = (0..300).map(|i| Sym::fresh(format!("v{i}"))).collect();
    let mut body = Expr::var(&syms[299]);
    for i in (0..300).rev() {
        let bound = if i == 0 {
            int(1)
        } else {
            Expr::var(&syms[i - 1])
        };
        body = Expr::let_(syms[i], Con::int(), bound, body);
    }
    let v = assert_agree(&body).unwrap();
    assert!(matches!(v, Value::Int(1)));
}

/// An arity-1 builtin that records its argument in the world's debug
/// log and returns it — the smallest observable first application.
fn note_builtins() -> (HashMap<Sym, Rc<Builtin>>, Sym) {
    let sym = Sym::fresh("note");
    let mut m = HashMap::new();
    m.insert(
        sym,
        Rc::new(Builtin {
            name: "note".into(),
            con_arity: 0,
            arity: 1,
            run: Rc::new(|interp, _, args| {
                interp.world.out.push(args[0].to_string());
                Ok(args[0].clone())
            }),
        }),
    );
    (m, sym)
}

/// Runs `e` on both engines, returning each engine's result *and* its
/// world's debug log, so effect ordering is comparable too.
#[allow(clippy::type_complexity)]
fn run_both_with_worlds(
    e: &RExpr,
    builtins: &HashMap<Sym, Rc<Builtin>>,
) -> (
    (Result<Value, EvalError>, Vec<String>),
    (Result<Value, EvalError>, Vec<String>),
) {
    let genv = Env::new();
    let mut cx = Cx::new();
    let chunk = compile(&genv, &mut cx, e, "order");
    let mut world = World::new();
    let mut interp = Interp::new(&mut world, &genv, builtins);
    let from_vm = vm::run(&mut interp, &chunk, &VEnv::new());
    drop(interp);
    let mut world2 = World::new();
    let mut interp2 = Interp::new(&mut world2, &genv, builtins);
    let from_tree = interp2.eval(&VEnv::new(), e);
    drop(interp2);
    ((from_vm, world.out), (from_tree, world2.out))
}

/// Regression: `(note 1) (note 2)` saturates the arity-1 builtin on the
/// *inner* application, so the interpreter logs "1" before it ever
/// evaluates the second argument. A `Call2` that hoisted the second
/// argument over that application logged "2" first — the compiler must
/// fall back to interpreter order when the argument is observable.
#[test]
fn observable_first_application_keeps_interpreter_effect_order() {
    let (builtins, note) = note_builtins();
    let e = Expr::app(
        Expr::app(Expr::var(&note), int(1)),
        Expr::app(Expr::var(&note), int(2)),
    );
    let ((from_vm, vm_out), (from_tree, tree_out)) = run_both_with_worlds(&e, &builtins);
    // Applying `1` to `2` is the same NotAFunction on both engines…
    assert_eq!(from_vm.unwrap_err().kind, EvalErrorKind::NotAFunction);
    assert_eq!(from_tree.unwrap_err().kind, EvalErrorKind::NotAFunction);
    // …and both logged the inner application's effect before the
    // argument's, in the interpreter's order.
    assert_eq!(tree_out, vec!["1".to_string(), "2".to_string()]);
    assert_eq!(vm_out, tree_out, "engines disagree on effect order");
}

/// Regression: effects of the inner application must land before an
/// error raised by the second argument, exactly as the interpreter
/// orders them.
#[test]
fn observable_first_application_keeps_interpreter_error_order() {
    let (builtins, note) = note_builtins();
    // The inner application logs and yields a non-function; the outer
    // argument is a projection that raises MissingField.
    let e = Expr::app(
        Expr::app(Expr::var(&note), int(7)),
        Expr::proj(Expr::record(vec![]), Con::name("Z")),
    );
    let ((from_vm, vm_out), (from_tree, tree_out)) = run_both_with_worlds(&e, &builtins);
    // The interpreter applies `note 7` (logging "7"), then evaluates
    // the argument, which raises MissingField before the outer apply.
    assert_eq!(from_tree.unwrap_err().kind, EvalErrorKind::MissingField);
    assert_eq!(from_vm.unwrap_err().kind, EvalErrorKind::MissingField);
    assert_eq!(tree_out, vec!["7".to_string()]);
    assert_eq!(vm_out, tree_out, "engines disagree on effects before the error");
}

/// Regression: when the inner application itself errors, both engines
/// must raise *that* error — the second argument (which would raise a
/// different kind) is never evaluated by the interpreter.
#[test]
fn erroring_first_application_wins_over_the_second_argument() {
    let boom = Sym::fresh("boom");
    let mut builtins = HashMap::new();
    builtins.insert(
        boom,
        Rc::new(Builtin {
            name: "boom".into(),
            con_arity: 0,
            arity: 1,
            run: Rc::new(|_, _, _| {
                Err(EvalError::of_kind(EvalErrorKind::TypeMismatch, "boom"))
            }),
        }),
    );
    // `boom 1` errors on the inner application; the argument would
    // raise MissingField if it were (wrongly) evaluated first.
    let e = Expr::app(
        Expr::app(Expr::var(&boom), int(1)),
        Expr::proj(Expr::record(vec![]), Con::name("Z")),
    );
    let (from_vm, from_tree) = run_both_with(&e, &builtins);
    assert_eq!(from_tree.unwrap_err().kind, EvalErrorKind::TypeMismatch);
    assert_eq!(
        from_vm.unwrap_err().kind,
        EvalErrorKind::TypeMismatch,
        "vm evaluated the second argument before the erroring application"
    );
}

#[test]
fn constant_pool_dedups_across_the_whole_chunk() {
    // The same literal in four places lands in the pool once; distinct
    // literals get distinct entries.
    let e = Expr::rec_cat(
        Expr::record(vec![
            (Con::name("A"), int(5)),
            (Con::name("B"), int(5)),
        ]),
        Expr::record(vec![
            (Con::name("C"), int(5)),
            (Con::name("D"), Expr::rec_cat(
                Expr::record(vec![(Con::name("X"), int(5))]),
                Expr::record(vec![(Con::name("Y"), int(6))]),
            )),
        ]),
    );
    let genv = Env::new();
    let mut cx = Cx::new();
    let chunk = compile(&genv, &mut cx, &e, "pool");
    let fives = chunk
        .consts
        .iter()
        .filter(|l| matches!(l, Lit::Int(5)))
        .count();
    assert_eq!(fives, 1, "repeated literal must intern once: {:?}", chunk.consts);
    assert!(chunk.consts.contains(&Lit::Int(6)));
}
