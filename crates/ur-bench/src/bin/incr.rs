//! Incremental-elaboration benchmark: the combined Figure-5 batch plus
//! a fan of independent knob declarations, pushed through the
//! red-green engine (`ur_query::Engine`) under four scenarios:
//!
//! * **cold** — nothing cached, every declaration recomputes (each
//!   rep runs under a `base_tag` of its own, so no rep finds another's
//!   outcomes in the process-wide layer);
//! * **noop** — identical source again; everything must come back
//!   green, and the rebuild must be at least 5x faster than cold;
//! * **one_edit** — a single knob changes; only its dependent cone
//!   re-runs;
//! * **tenpct_edit** — ~10% of the declarations change.
//!
//! A fifth scenario, **fresh_engine**, builds a brand-new engine in the
//! same process (a second session's) and must find the whole program in
//! the process-wide live-outcome layer. Every scenario's declarations
//! and diagnostics are compared against a cold sequential baseline; any
//! mismatch is a hard failure, as are a no-op speedup below 5x and a
//! fresh engine that recomputes anything. Results go to
//! `BENCH_incremental.json`.
//!
//! Run with `cargo run -p ur-bench --bin incr --release`.

use std::fmt::Write as _;
use std::time::Instant;
use ur_query::{Engine, EngineConfig, RunReport};
use ur_studies::{studies, study, Study};
use ur_web::{Session, PRELUDE};

const REPS: usize = 5;
/// Independent editable declarations appended to the batch; edits flip
/// their literals without touching the Figure-5 decls.
const KNOBS: usize = 24;

/// Combined batch as separate parts so edit scenarios can rewrite
/// individual declarations: every study's transitive dependencies
/// (depth-first, deduplicated), implementations, usage demos, then the
/// knob fan.
fn batch_parts() -> Vec<String> {
    fn push_impl(parts: &mut Vec<&'static str>, s: &Study) {
        for dep in s.deps {
            push_impl(parts, &study(dep));
        }
        let src = s.implementation();
        if !parts.contains(&src) {
            parts.push(src);
        }
    }
    let mut impls: Vec<&'static str> = Vec::new();
    let mut usages: Vec<&'static str> = Vec::new();
    for s in studies() {
        push_impl(&mut impls, &s);
        usages.push(s.usage);
    }
    let mut parts: Vec<String> = impls.into_iter().map(String::from).collect();
    parts.extend(usages.into_iter().map(String::from));
    for i in 0..KNOBS {
        parts.push(format!("val knob{i} = {i}\nval knobUse{i} = knob{i} + 1"));
    }
    parts
}

/// Erases gensym counters (`foo#123` -> `foo#`) so runs drawing
/// different fresh-symbol numbers compare structurally.
fn strip_sym_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '#' {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        }
    }
    out
}

/// Cold sequential oracle for one source: fresh session, one thread.
fn cold_baseline(src: &str) -> (Vec<String>, Vec<String>) {
    let mut sess = Session::new().expect("session");
    let (decls, diags) = sess.elab.elab_source_all(src);
    (
        decls.iter().map(|d| strip_sym_ids(&format!("{d:?}"))).collect(),
        diags.iter().map(|d| d.to_string()).collect(),
    )
}

struct Scenario {
    name: &'static str,
    best_ms: f64,
    report: RunReport,
    diverged: bool,
}

/// Runs `src` through `engine` against a prelude-loaded elaborator
/// restored to its base snapshot, timing the elaboration only (the
/// engine's contract covers elaboration; evaluation is never cached).
fn run_engine(
    sess: &mut Session,
    base: &ur_infer::ElabSnapshot,
    engine: &mut Engine,
    src: &str,
) -> (f64, RunReport, Vec<String>, Vec<String>) {
    sess.elab.restore(base.clone());
    let start = Instant::now();
    let (decls, diags, report) = engine.run(&mut sess.elab, src, 1);
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    (
        ms,
        report,
        decls.iter().map(|d| strip_sym_ids(&format!("{d:?}"))).collect(),
        diags.iter().map(|d| d.to_string()).collect(),
    )
}

/// Replaces one knob's literal with a value never seen before.
fn edit_one(parts: &[String], rep: usize, _n: usize) -> String {
    let mut p = parts.to_vec();
    let last = p.len() - 1;
    let k = KNOBS - 1;
    p[last] = format!("val knob{k} = {}\nval knobUse{k} = knob{k} + 1", 1000 + rep);
    p.join("\n")
}

/// Rewrites ~10% of the batch's declarations (each knob part is two
/// declarations) with fresh literals.
fn edit_tenpct(parts: &[String], rep: usize, n: usize) -> String {
    let mut p = parts.to_vec();
    let count = (n / 20).clamp(1, KNOBS);
    for i in 0..count {
        let idx = p.len() - 1 - i;
        let k = KNOBS - 1 - i;
        p[idx] = format!(
            "val knob{k} = {}\nval knobUse{k} = knob{k} + 1",
            2000 + rep * 100 + k
        );
    }
    p.join("\n")
}

fn main() {
    let parts = batch_parts();
    let base_src = parts.join("\n");

    let mut sess = Session::new().expect("session");
    let base = sess.elab.snapshot();
    let base_tag = ur_core::fingerprint::hash_str(PRELUDE);

    let n = {
        let prog = ur_syntax::parse_program(&base_src).expect("batch parses");
        prog.decls.len()
    };
    println!("Incremental elaboration benchmark — combined Figure-5 batch + {KNOBS} knobs ({n} decls)");
    println!();

    let (oracle_decls, oracle_diags) = cold_baseline(&base_src);
    assert!(oracle_diags.is_empty(), "batch must be clean: {oracle_diags:?}");

    let mut scenarios: Vec<Scenario> = Vec::new();

    // Cold: a fresh engine every rep, each under a base tag no other run
    // uses, so its keys are absent from the process-wide layer.
    let mut cold_best = f64::INFINITY;
    let mut cold_report = RunReport::default();
    let mut cold_diverged = false;
    for rep in 0..REPS {
        let mut engine = Engine::new(EngineConfig {
            cache_dir: None,
            base_tag: base_tag.wrapping_add(1 + rep as u64),
        });
        let (ms, report, decls, diags) = run_engine(&mut sess, &base, &mut engine, &base_src);
        cold_best = cold_best.min(ms);
        cold_diverged |= decls != oracle_decls || diags != oracle_diags;
        cold_report = report;
    }
    scenarios.push(Scenario {
        name: "cold",
        best_ms: cold_best,
        report: cold_report,
        diverged: cold_diverged,
    });

    // One long-lived engine for the warm scenarios, primed once so the
    // layer holds the program (an editor session that has already built
    // the project).
    let mut engine = Engine::new(EngineConfig {
        cache_dir: None,
        base_tag,
    });
    run_engine(&mut sess, &base, &mut engine, &base_src);

    // No-op: identical source again; everything comes back green.
    {
        let mut best = f64::INFINITY;
        let mut last_report = RunReport::default();
        let mut diverged = false;
        for _ in 0..REPS {
            let (ms, report, decls, diags) =
                run_engine(&mut sess, &base, &mut engine, &base_src);
            best = best.min(ms);
            diverged |= decls != oracle_decls || diags != oracle_diags;
            last_report = report;
        }
        scenarios.push(Scenario {
            name: "noop",
            best_ms: best,
            report: last_report,
            diverged,
        });
    }

    // Edit scenarios. Every rep measures "base built, then a *new* edit
    // arrives": the base is re-primed untimed, and the edited literal
    // varies per rep so the layer has not seen the edited declarations
    // before.
    type EditFn = fn(&[String], usize, usize) -> String;
    let edits: [(&'static str, EditFn); 2] =
        [("one_edit", edit_one), ("tenpct_edit", edit_tenpct)];
    for (name, make) in edits {
        let mut best = f64::INFINITY;
        let mut last_report = RunReport::default();
        let mut diverged = false;
        for rep in 0..REPS {
            run_engine(&mut sess, &base, &mut engine, &base_src);
            let src = make(&parts, rep, n);
            let (o_decls, o_diags) = cold_baseline(&src);
            let (ms, report, decls, diags) = run_engine(&mut sess, &base, &mut engine, &src);
            best = best.min(ms);
            diverged |= decls != o_decls || diags != o_diags;
            last_report = report;
        }
        scenarios.push(Scenario {
            name,
            best_ms: best,
            report: last_report,
            diverged,
        });
    }

    // Fresh engine: a brand-new engine in this process (a second
    // session's) finds everything the first one elaborated.
    {
        let mut fresh = Engine::new(EngineConfig {
            cache_dir: None,
            base_tag,
        });
        let (ms, report, decls, diags) = run_engine(&mut sess, &base, &mut fresh, &base_src);
        scenarios.push(Scenario {
            name: "fresh_engine",
            best_ms: ms,
            report,
            diverged: decls != oracle_decls || diags != oracle_diags,
        });
    }

    println!(
        "{:>12} {:>10} {:>7} {:>7} {:>9}",
        "scenario", "best(ms)", "green", "red", "diverged"
    );
    for s in &scenarios {
        println!(
            "{:>12} {:>10.2} {:>7} {:>7} {:>9}",
            s.name, s.best_ms, s.report.green, s.report.red, s.diverged
        );
    }

    let noop = scenarios.iter().find(|s| s.name == "noop").expect("noop row");
    let noop_speedup = if noop.best_ms > 0.0 {
        cold_best / noop.best_ms
    } else {
        f64::INFINITY
    };
    println!();
    println!("no-op rebuild speedup vs cold: {noop_speedup:.1}x");

    let mut json = format!(
        "{{\n  \"benchmark\": \"incremental\",\n  \"metric\": \"wall_clock_ms\",\n  \
         \"batch\": {{\"decls\": {n}, \"knobs\": {KNOBS}}},\n  \"reps\": {REPS},\n  \
         \"scenarios\": [\n"
    );
    for (i, s) in scenarios.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"best_ms\": {:.3}, \"green\": {}, \"red\": {}, \
             \"diverged\": {}}}",
            s.name,
            s.best_ms,
            s.report.green,
            s.report.red,
            s.diverged
        );
        json.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"noop_speedup\": {:.2},\n  \"divergence_count\": {}\n}}\n",
        noop_speedup,
        scenarios.iter().filter(|s| s.diverged).count()
    );
    std::fs::write("BENCH_incremental.json", &json).expect("write BENCH_incremental.json");
    println!("wrote BENCH_incremental.json");

    // Hard gates. Byte-identical results are the contract; the no-op
    // speedup is the reason the engine exists.
    assert!(
        scenarios.iter().all(|s| !s.diverged),
        "incremental elaboration diverged from the cold sequential baseline"
    );
    assert_eq!(noop.report.red, 0, "no-op rebuild recomputed declarations");
    assert!(
        noop_speedup >= 5.0,
        "no-op rebuild only {noop_speedup:.1}x faster than cold (gate: 5x)"
    );
    let fresh = scenarios
        .iter()
        .find(|s| s.name == "fresh_engine")
        .expect("fresh_engine row");
    assert_eq!(
        fresh.report.red, 0,
        "a fresh engine did not seed from the process-wide layer"
    );
}
