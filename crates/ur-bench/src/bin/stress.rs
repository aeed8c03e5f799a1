//! Adversarial stress harness (see docs/ROBUSTNESS.md): runs the deep /
//! cyclic / wide hostile-input scenarios at full scale and reports
//! wall-clock time and outcome for each. Exits nonzero if any scenario
//! panics, hangs past its budget, or produces the wrong outcome.
//!
//! Every scenario runs on a deliberately small (2 MiB) thread — the same
//! stack the Rust test runner gives tests — so "no stack overflow" is
//! checked under the least forgiving conditions, not hidden by a large
//! main-thread stack. An overflow aborts the whole process, so it fails
//! the run through the exit status rather than through a report line.
//! Two scenarios are sized for release frames (see
//! `RELEASE_SIZED_STACK`); a debug build runs them on a larger thread.
//!
//! Run with `cargo run -p ur-bench --bin stress --release`.

use std::time::{Duration, Instant};
use ur_core::prelude::*;
use ur_infer::{Elaborator, Unify};
use ur_syntax::Code;
use ur_web::Session;

/// Wall-clock ceiling per scenario; generous because debug builds and
/// slow CI runners must pass too. The property under test is
/// "terminates promptly with the right answer", not raw speed.
const TIME_BUDGET: Duration = Duration::from_secs(60);

/// Test-runner-sized stack: scenarios must survive on 2 MiB.
const SMALL_STACK: usize = 2 * 1024 * 1024;

/// The stack of the scenarios whose recursion is bounded by a budget
/// sized for release frames (evaluation depth) or by the input alone (a
/// 1,000-long application spine): 2 MiB in release, and room for frames
/// several times larger in a debug build.
const RELEASE_SIZED_STACK: usize = if cfg!(debug_assertions) {
    32 * 1024 * 1024
} else {
    SMALL_STACK
};

struct Outcome {
    name: &'static str,
    elapsed: Duration,
    result: Result<(), String>,
}

fn scenario(name: &'static str, f: impl FnOnce() -> Result<(), String> + Send) -> Outcome {
    scenario_on(name, SMALL_STACK, f)
}

fn scenario_on(
    name: &'static str,
    stack: usize,
    f: impl FnOnce() -> Result<(), String> + Send,
) -> Outcome {
    let start = Instant::now();
    let result = std::thread::scope(|scope| {
        let h = std::thread::Builder::new()
            .name(name.into())
            .stack_size(stack)
            .spawn_scoped(scope, f);
        match h {
            Ok(h) => h.join().unwrap_or_else(|_| Err("panicked".into())),
            Err(e) => Err(format!("could not spawn scenario thread: {e}")),
        }
    });
    let elapsed = start.elapsed();
    let result = match result {
        Ok(()) if elapsed >= TIME_BUDGET => {
            Err(format!("took {elapsed:?}, over the {TIME_BUDGET:?} budget"))
        }
        other => other,
    };
    Outcome { name, elapsed, result }
}

fn expect(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

// ---------------- deep ----------------

fn deep_parse() -> Result<(), String> {
    let src = format!("val x = {}1{}", "(".repeat(20_000), ")".repeat(20_000));
    let mut elab = Elaborator::new();
    match elab.elab_source(&src) {
        Err(e) => {
            expect(e.code() == Code::ParseTooDeep, "expected E0201 ParseTooDeep")?;
            expect(elab.elab_source("val ok = 1").is_ok(), "session must survive")
        }
        Ok(_) => Err("20k-deep nesting must be rejected".into()),
    }
}

fn deep_map_nest() -> Result<(), String> {
    let mut env = Env::new();
    let mut cx = Cx::new();
    let f = Sym::fresh("f");
    let r = Sym::fresh("r");
    env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
    env.bind_con(r, Kind::row(Kind::Type));
    let mut c = Con::var(&r);
    for _ in 0..10_000 {
        c = Con::map_app(Kind::Type, Kind::Type, Con::var(&f), c);
    }
    let _nf = ur_core::hnf::hnf(&env, &mut cx, &c);
    expect(
        cx.fuel.norm_steps_used() <= cx.fuel.limits.max_norm_steps,
        "normalization must stay within its step budget",
    )
}

fn deep_defeq() -> Result<(), String> {
    // The two chains differ at the innermost leaf: identical chains would
    // hash-cons to a single shared node and compare in O(1), which is
    // exactly what this stressor must avoid.
    let env = Env::new();
    let mut cx = Cx::new();
    let deep = |leaf: ur_core::con::RCon, n: usize| {
        let mut c = leaf;
        for _ in 0..n {
            c = Con::arrow(c, Con::int());
        }
        c
    };
    let (a, b) = (deep(Con::int(), 10_000), deep(Con::float(), 10_000));
    let eq = ur_core::defeq::defeq(&env, &mut cx, &a, &b);
    expect(!eq, "budget exhaustion must answer the conservative false")?;
    expect(
        cx.fuel.exhausted() == Some(ResourceKind::Depth),
        "10k-deep recursion must trip the depth budget",
    )
}

// ---------------- cyclic ----------------

fn cyclic_occurs() -> Result<(), String> {
    let env = Env::new();
    let mut cx = Cx::new();
    let m = cx.metas.fresh_con(Kind::Type, "t");
    let cyclic = Con::arrow(m, Con::int());
    expect(
        matches!(ur_infer::unify(&env, &mut cx, &m, &cyclic), Unify::Fail(_)),
        "cyclic solve must fail the occurs check",
    )
}

fn cyclic_program() -> Result<(), String> {
    let mut elab = Elaborator::new();
    expect(
        elab.elab_source("val omega = fn x => x x").is_err(),
        "self-application must not typecheck",
    )?;
    expect(elab.elab_source("val ok = 2").is_ok(), "session must survive")
}

// ---------------- wide ----------------

fn wide_disjoint() -> Result<(), String> {
    let env = Env::new();
    let mut cx = Cx::new();
    let wide = |prefix: &str, n: usize| {
        Con::row_of(
            Kind::Type,
            (0..n)
                .map(|i| (Con::name(format!("{prefix}{i}")), Con::int()))
                .collect(),
        )
    };
    let (r1, r2) = (wide("A", 2_600), wide("B", 2_600));
    let out = ur_core::disjoint::prove(&env, &mut cx, &r1, &r2);
    expect(
        out == ur_core::disjoint::ProveResult::NotYet,
        "over-budget proof must answer the conservative NotYet",
    )?;
    expect(
        cx.fuel.exhausted() == Some(ResourceKind::ProverPairs),
        "6.76M cross pairs must trip the prover budget",
    )
}

fn wide_record() -> Result<(), String> {
    // A flat 5,000-field record literal is legitimate input: it must
    // elaborate and evaluate, not exhaust any budget.
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    let body = (0..5_000)
        .map(|i| format!("F{i} = {i}"))
        .collect::<Vec<_>>()
        .join(", ");
    sess.run(&format!("val big = {{{body}}}"))
        .map_err(|e| format!("5k-field record must elaborate: {e}"))?;
    Ok(())
}

fn wide_concat_strict() -> Result<(), String> {
    // Under strict limits, a record concatenation whose disjointness
    // goal is over budget must surface E0900 — and the elaborator must
    // stay usable.
    let mut elab = Elaborator::new();
    elab.cx = Cx::with_limits(Limits::strict());
    let fields = |prefix: &str, n: usize| {
        (0..n)
            .map(|i| format!("{prefix}{i} = {i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let src = format!("val w = {{{}}} ++ {{{}}}", fields("A", 150), fields("B", 150));
    match elab.elab_source(&src) {
        Err(e) => {
            expect(
                e.code() == Code::ResourceExhausted,
                "expected E0900 ResourceExhausted",
            )?;
            expect(
                elab.elab_source("val ok = {A = 1}.A").is_ok(),
                "fuel must reset at the declaration boundary",
            )
        }
        Ok(_) => Err("strict limits must reject the wide concat".into()),
    }
}

// ---------------- shared ----------------
//
// Hash-consed types share subterms, so a type whose tree is exponential
// can be a DAG of a few nodes. Every structural walk must visit a shared
// node once.

/// `id` applied 1,000 times: the type `id` is instantiated at doubles
/// with every application.
fn shared_id_spine() -> Result<(), String> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    sess.run("val id = fn [a] (x : a) => x")
        .map_err(|e| e.to_string())?;
    let v = sess
        .eval(&format!("{} 1", vec!["id"; 1_000].join(" ")))
        .map_err(|e| format!("1,000-id spine must evaluate: {e}"))?;
    expect(v.to_string() == "1", &format!("expected 1, got {v}"))
}

/// `f 1` where `f` nests a field-doubling `d` 30 deep: the record type
/// is a tree of 2^30 leaves.
fn shared_nested_records() -> Result<(), String> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    let nest = format!("{}x{}", "d (".repeat(30), ")".repeat(30));
    let src = format!(
        "val d = fn [a] (x : a) => {{A = x, B = x}}\n\
         val f = fn [t] (x : t) => {nest}\n\
         val g = f 1"
    );
    let (vals, diags) = sess.run_all(&src);
    expect(
        diags.is_empty(),
        &format!("nested records must load: {diags:?}"),
    )?;
    expect(vals.iter().any(|(n, _)| n == "g"), "g must evaluate")
}

// ---------------- deep evaluation ----------------

/// `twice` applied to itself five times nests calls far past the
/// evaluation depth budget; four times answers 65,536.
fn deep_twice() -> Result<(), String> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    sess.run(
        "val twice = fn [a] (f : a -> a) (x : a) => f (f x)\n\
         val inc = fn (n : int) => n + 1",
    )
    .map_err(|e| e.to_string())?;
    match sess.eval("twice twice twice twice twice inc 0") {
        Err(ur_web::SessionError::Eval(e)) => expect(
            e.kind == ur_eval::EvalErrorKind::TooDeep,
            &format!("expected the evaluation depth budget, got {e}"),
        )?,
        other => return Err(format!("expected a depth error, got {other:?}")),
    }
    let v = sess
        .eval("twice twice twice twice inc 0")
        .map_err(|e| format!("twice x4 must evaluate: {e}"))?;
    expect(
        v.to_string() == "65536",
        &format!("expected 65536, got {v}"),
    )
}

// ---------------- long chains ----------------

/// A 1,000-term `1 + 1 + … + 1` nests its AST one node per link, so it
/// is charged to the parse-depth budget like any other nesting.
fn long_operator_chain() -> Result<(), String> {
    let chain = format!("1{}", " + 1".repeat(999));
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    match sess.eval(&chain) {
        Err(ur_web::SessionError::Elab(e)) => expect(
            e.code() == Code::ParseTooDeep,
            "expected E0201 ParseTooDeep",
        )?,
        other => return Err(format!("expected E0201, got {other:?}")),
    }
    let (_, diags) = sess.run_all(&format!("fun f (x : int) = x + {chain}"));
    expect(
        diags.iter().any(|d| d.code == Code::ParseTooDeep),
        "a load of the chain must report E0201",
    )?;
    expect(sess.eval("1 + 1").is_ok(), "session must survive")
}

/// 200,000 `$` prefixes: each wraps the atom in one more node.
fn long_dollar_run() -> Result<(), String> {
    let src = format!("{}int", "$".repeat(200_000));
    match ur_syntax::parse_con(&src) {
        Err(e) => expect(
            ur_syntax::Diagnostic::from(e).code == Code::ParseTooDeep,
            "expected E0201 ParseTooDeep",
        ),
        Ok(_) => Err("200,000 `$`s must be rejected".into()),
    }
}

// ---------------- multi-error ----------------

fn multi_error() -> Result<(), String> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    let (defs, diags) = sess.run_all(
        "val a : int = \"not an int\"\n\
         val b = missingVariable\n\
         val c : string = 42\n\
         val good = 7",
    );
    expect(
        diags.len() >= 3,
        &format!("one pass must report all 3 errors, got {}", diags.len()),
    )?;
    expect(
        defs.iter().any(|(n, _)| n == "good"),
        "the good declaration must still be defined",
    )
}

fn main() -> std::process::ExitCode {
    let scenarios: Vec<Outcome> = vec![
        scenario("deep: 20k-deep program text", deep_parse),
        scenario("deep: 10k map nest normalization", deep_map_nest),
        scenario("deep: 10k arrow defeq", deep_defeq),
        scenario("cyclic: occurs check", cyclic_occurs),
        scenario("cyclic: self-application program", cyclic_program),
        scenario("wide: 2600x2600 disjointness", wide_disjoint),
        scenario("wide: 5k-field record literal", wide_record),
        scenario("wide: strict-limit concat -> E0900", wide_concat_strict),
        scenario("multi-error: 3 errors in one pass", multi_error),
        scenario_on("shared: 1,000-id spine", RELEASE_SIZED_STACK, shared_id_spine),
        scenario("shared: f 1 over 30 nested records", shared_nested_records),
        scenario_on("deep eval: twice x5 -> depth budget", RELEASE_SIZED_STACK, deep_twice),
        scenario("long chain: 1,000-term sum -> E0201", long_operator_chain),
        scenario("long chain: 200,000 `$` -> E0201", long_dollar_run),
    ];

    println!("Adversarial stress harness (budget {TIME_BUDGET:?} per scenario, {SMALL_STACK} B stacks)");
    println!();
    let mut failed = 0usize;
    for o in &scenarios {
        match &o.result {
            Ok(()) => println!("PASS  {:<42} {:>10.1?}", o.name, o.elapsed),
            Err(msg) => {
                failed += 1;
                println!("FAIL  {:<42} {:>10.1?}  {msg}", o.name, o.elapsed);
            }
        }
    }
    println!();
    if failed == 0 {
        println!("all {} scenarios passed", scenarios.len());
        std::process::ExitCode::SUCCESS
    } else {
        println!("{failed}/{} scenarios FAILED", scenarios.len());
        std::process::ExitCode::FAILURE
    }
}
