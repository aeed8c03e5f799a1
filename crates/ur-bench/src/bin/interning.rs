//! Interning/memoization benchmark: elaborates the Figure-5 case studies
//! and two synthetic stress workloads with the judgment memo tables
//! enabled and disabled, and reports the reduction in normalization work.
//!
//! The headline metric is `Fuel::lifetime_norm_steps` — every head-
//! normalization step charged over the whole run, surviving the
//! per-declaration fuel resets — plus the memo hit/miss counters and
//! wall-clock time. Results are printed as a table and written to
//! `BENCH_interning.json` in the current directory.
//!
//! Run with `cargo run -p ur-bench --bin interning --release`.

use std::fmt::Write as _;
use std::time::Instant;
use ur_query::json::escape;
use ur_studies::{studies, study, Study};
use ur_web::Session;

/// One workload measured twice (memo on / memo off).
struct Row {
    name: String,
    cached_steps: u64,
    uncached_steps: u64,
    cached_ms: f64,
    uncached_ms: f64,
    hnf_hits: u64,
    defeq_hits: u64,
    row_hits: u64,
    disjoint_hits: u64,
}

impl Row {
    fn reduction_pct(&self) -> f64 {
        if self.uncached_steps == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.cached_steps as f64 / self.uncached_steps as f64)
    }
}

/// Runs `load` in a fresh session with the memo tables forced on or off,
/// returning (lifetime norm steps, elapsed ms, final session).
fn measure(enabled: bool, load: &dyn Fn(&mut Session)) -> (u64, f64, Session) {
    let mut sess = Session::new().expect("session");
    sess.elab.cx.memo.enabled = enabled;
    let start = Instant::now();
    load(&mut sess);
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    (sess.elab.cx.fuel.lifetime_norm_steps(), ms, sess)
}

fn bench(name: &str, load: &dyn Fn(&mut Session)) -> Row {
    let (cached_steps, cached_ms, sess) = measure(true, load);
    let (uncached_steps, uncached_ms, _) = measure(false, load);
    let s = sess.stats();
    Row {
        name: name.to_string(),
        cached_steps,
        uncached_steps,
        cached_ms,
        uncached_ms,
        hnf_hits: s.hnf_memo_hits,
        defeq_hits: s.defeq_memo_hits,
        row_hits: s.row_memo_hits,
        disjoint_hits: s.disjoint_memo_hits,
    }
}

fn load_study(sess: &mut Session, s: &Study) {
    fn deps(sess: &mut Session, s: &Study) {
        for dep in s.deps {
            let d = study(dep);
            deps(sess, &d);
            sess.run(d.implementation()).expect("dep");
        }
    }
    deps(sess, s);
    sess.run(s.implementation()).expect("impl");
    sess.run(s.usage).expect("usage");
}

/// A generated `mkTable` client of width `n` (same shape as the scaling
/// bench): heavy on row unification and disjointness.
fn wide_client(n: usize) -> String {
    let mut meta = String::new();
    let mut row = String::new();
    for i in 0..n {
        if i > 0 {
            meta.push_str(", ");
            row.push_str(", ");
        }
        let _ = write!(meta, "C{i} = {{Label = \"c{i}\", Show = showInt}}");
        let _ = write!(row, "C{i} = {i}");
    }
    format!("val f = mkTable {{{meta}}}\nval out = f {{{row}}}")
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    for s in studies() {
        rows.push(bench(&format!("study:{}", s.id), &|sess| {
            load_study(sess, &s)
        }));
    }

    rows.push(bench("stress:mktable-width-32", &|sess| {
        sess.run(study("mktable").implementation()).expect("mkTable");
        sess.run(&wide_client(32)).expect("client");
    }));
    rows.push(bench("stress:repeat-elaboration", &|sess| {
        // The same polymorphic projection elaborated 40 times: every
        // round after the first replays cached judgments.
        sess.run(
            "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
                 (x : $([nm = t] ++ r)) = x.nm",
        )
        .expect("proj");
        for i in 0..40 {
            sess.run(&format!("val v{i} = proj [#A] {{A = {i}, B = 2, C = 3}}"))
                .expect("use");
        }
    }));

    println!("Interning/memoization benchmark — normalization steps per workload");
    println!();
    println!(
        "{:28} {:>10} {:>10} {:>7} {:>9} {:>9}  hits (hnf/defeq/row/disj)",
        "workload", "uncached", "cached", "red.%", "unc(ms)", "cach(ms)"
    );
    for r in &rows {
        println!(
            "{:28} {:>10} {:>10} {:>6.1}% {:>9.1} {:>9.1}  {}/{}/{}/{}",
            r.name,
            r.uncached_steps,
            r.cached_steps,
            r.reduction_pct(),
            r.uncached_ms,
            r.cached_ms,
            r.hnf_hits,
            r.defeq_hits,
            r.row_hits,
            r.disjoint_hits,
        );
    }

    let total_cached: u64 = rows.iter().map(|r| r.cached_steps).sum();
    let total_uncached: u64 = rows.iter().map(|r| r.uncached_steps).sum();
    println!();
    println!(
        "total norm steps: uncached={total_uncached} cached={total_cached} ({:.1}% reduction)",
        if total_uncached == 0 {
            0.0
        } else {
            100.0 * (1.0 - total_cached as f64 / total_uncached as f64)
        }
    );

    // Hand-rolled JSON (the build is offline; no serde available).
    let mut json = String::from("{\n  \"benchmark\": \"interning\",\n  \"metric\": \"lifetime_norm_steps\",\n  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"uncached_steps\": {}, \"cached_steps\": {}, \
             \"reduction_pct\": {:.2}, \"uncached_ms\": {:.2}, \"cached_ms\": {:.2}, \
             \"hnf_hits\": {}, \"defeq_hits\": {}, \"row_hits\": {}, \"disjoint_hits\": {}}}",
            escape(&r.name),
            r.uncached_steps,
            r.cached_steps,
            r.reduction_pct(),
            r.uncached_ms,
            r.cached_ms,
            r.hnf_hits,
            r.defeq_hits,
            r.row_hits,
            r.disjoint_hits,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"total\": {{\"uncached_steps\": {total_uncached}, \"cached_steps\": {total_cached}}}\n}}\n"
    );
    std::fs::write("BENCH_interning.json", &json).expect("write BENCH_interning.json");
    println!("wrote BENCH_interning.json");

    // The bench doubles as a smoke check: caching must actually reduce
    // normalization work overall.
    assert!(
        total_cached < total_uncached,
        "memoization must reduce total normalization steps"
    );
}
