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

struct Outcome {
    name: &'static str,
    elapsed: Duration,
    result: Result<(), String>,
}

fn scenario(name: &'static str, f: impl FnOnce() -> Result<(), String> + Send) -> Outcome {
    let start = Instant::now();
    let result = std::thread::scope(|scope| {
        let h = std::thread::Builder::new()
            .name(name.into())
            .stack_size(SMALL_STACK)
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
