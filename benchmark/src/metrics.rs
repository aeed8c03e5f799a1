//! Sample statistics, process measurements, and the metric catalogue.
//!
//! The catalogue is the single list of metric names and units the
//! command may print; `BENCHMARK.json` must name exactly the same set
//! (a unit test compares them).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics (printed with `--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ok_frac", "frac"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (printed with `--trace 1`): name, unit. The
/// `e2e.*` entries are end-to-end latencies and throughput without a
/// bound: on a shared virtual machine they follow the host's load (CPU
/// the hypervisor steals, contention it does not report, the device's
/// fsync time) so closely that, over ten seeds, their spread went past
/// any bound a benchmark may set.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.ops_per_s", "1/s"),
    ("e2e.compile_p50_ms", "ms"),
    ("e2e.edit_p50_ms", "ms"),
    ("e2e.eval_p50_ms", "ms"),
    ("e2e.write_p50_ms", "ms"),
    ("e2e.read_p50_ms", "ms"),
    ("e2e.compile_p95_ms", "ms"),
    ("e2e.edit_p95_ms", "ms"),
    ("e2e.eval_p99_ms", "ms"),
    ("e2e.write_p99_ms", "ms"),
    ("syntax.parse_ms", "ms"),
    ("infer.depgraph_ms", "ms"),
    ("infer.elab_ms", "ms"),
    ("infer.unify_calls", "count"),
    ("infer.constraints_postponed", "count"),
    ("infer.par_workers", "count"),
    ("infer.par_decls", "count"),
    ("core.norm_steps", "count"),
    ("core.row_normalizations", "count"),
    ("core.disjoint_prover_calls", "count"),
    ("core.law_map_identity", "count"),
    ("core.law_map_distrib", "count"),
    ("core.law_map_fusion", "count"),
    ("core.memo_hit_ratio", "frac"),
    ("core.gmemo_hit_ratio", "frac"),
    ("core.intern_hit_ratio", "frac"),
    ("core.arena_bytes_per_op", "bytes"),
    ("query.engine_ms", "ms"),
    ("query.green_ratio", "frac"),
    ("query.red_per_edit", "count"),
    ("query.disk_store_errs", "count"),
    ("eval.compile_ms", "ms"),
    ("eval.chunks_per_op", "count"),
    ("eval.chunk_hit_ratio", "frac"),
    ("eval.vm_ops_per_op", "count"),
    ("eval.dispatch_ms", "ms"),
    ("web.session_new_ms", "ms"),
    ("web.reelaborate_ms", "ms"),
    ("web.eval_ms", "ms"),
    ("web.elab_expr_ms", "ms"),
    ("db.insert_us", "us"),
    ("db.update_us", "us"),
    ("db.delete_us", "us"),
    ("db.select_us", "us"),
    ("db.fsyncs_per_write", "count"),
    ("db.wal_bytes_per_write", "bytes"),
    ("db.wal_records_per_write", "count"),
    ("db.publish_us", "us"),
    ("db.full_scans_per_op", "count"),
    ("db.checkpoints", "count"),
    ("db.checkpoint_ms", "ms"),
    ("db.fsync_us", "us"),
    ("serve.handler_ms.edit", "ms"),
    ("serve.handler_ms.eval", "ms"),
    ("serve.handler_ms.read", "ms"),
    ("serve.handler_ms.write", "ms"),
    ("serve.frontdoor_ms.edit", "ms"),
    ("serve.frontdoor_ms.eval", "ms"),
    ("serve.frontdoor_ms.read", "ms"),
    ("serve.frontdoor_ms.write", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.encode_us", "us"),
    ("self_ms.syntax", "ms"),
    ("self_ms.infer", "ms"),
    ("self_ms.query", "ms"),
    ("self_ms.eval", "ms"),
    ("self_ms.web", "ms"),
    ("self_ms.db", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.bench", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Metric values by name; [`render_result`] attaches units from the
/// catalogue and refuses a set that does not match it.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The `p`-quantile (0..=1) of `v` by linear interpolation between
/// closest ranks (numpy's default). `v` need not be sorted. Empty → 0.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The three quartile cut points of `v`, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// the benchmark's own medians agree with the acceptance arithmetic.
/// Fewer than two samples: every cut point is the sample (or 0).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let n = s.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let k = i + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Median via [`quartiles`].
pub fn median(v: &[f64]) -> f64 {
    quartiles(v)[1]
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clears the peak-RSS mark (`VmHWM`) down to the current resident set,
/// so a later [`peak_rss_mb`] sees only what came after. Returns whether
/// the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative (steal, total) CPU jiffies of the machine, from
/// `/proc/stat`: time the hypervisor gave this machine's virtual CPUs to
/// someone else, and all time.
pub fn cpu_steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Median microseconds of a bare 4 KiB write + `sync_data` on the
/// filesystem holding `dir`: the device floor under every durable
/// commit.
pub fn fsync_floor_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = vec![0x5a_u8; 4096];
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        if f.write_all(&block).and_then(|()| f.sync_data()).is_err() {
            break;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(&path);
    median(&samples)
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed`, and `metrics`, with every metric of `catalogue` (and no
/// other) carrying its unit.
///
/// # Errors
///
/// Names the first missing, unknown, or non-finite metric.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) -> Result<String, String> {
    if let Some(extra) = metrics
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut body = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert!((percentile(&[1.0, 2.0], 0.95) - 1.95).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), [1.0, 3.0, 7.0]);
        // statistics.quantiles([2, 9], n=4) == [0.25, 5.5, 10.75]
        assert_eq!(quartiles(&[2.0, 9.0]), [0.25, 5.5, 10.75]);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn render_result_requires_the_whole_catalogue() {
        let cat = [("a_ms", "ms"), ("b", "count")];
        let mut m = Metrics::new();
        m.insert("a_ms", 1.25);
        assert!(render_result(true, 1, 0, &m, &cat).is_err());
        m.insert("b", 3.0);
        let line = render_result(true, 4, 0, &m, &cat).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        m.insert("c", 1.0);
        assert!(render_result(true, 4, 0, &m, &cat).is_err());
    }
}
