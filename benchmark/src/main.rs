//! The repository's benchmark: one command that runs a named workload
//! from a seed, checks every answer, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```text
//! ur-benchmark --workload cold_compile|edit_eval|durable_rw \
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run header. Scratch state lives under
//! `.bench_work/` in the working directory and is removed at exit,
//! except traced runs' span files in `.bench_work/traces/`. A
//! wrong answer prints the result with `"correct": false` and exits 1;
//! a run that cannot complete exits 2 without a result.

mod inputs;
mod layers;
mod metrics;
mod net;
mod run;
mod trace;

use metrics::{render_result, END_TO_END, PER_LAYER};
use run::{Ctx, Workload};
use std::path::PathBuf;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name).ok_or_else(|| {
            format!("unknown workload {workload_name} (cold_compile|edit_eval|durable_rw)")
        })?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ur-benchmark: {e}");
            eprintln!(
                "usage: ur-benchmark --workload cold_compile|edit_eval|durable_rw \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload_name,
        args.seed,
        std::process::id()
    ));
    let code = match std::fs::create_dir_all(&dir) {
        Ok(()) => run_and_report(&args, &dir),
        Err(e) => {
            eprintln!("ur-benchmark: cannot create {}: {e}", dir.display());
            2
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    std::process::exit(code);
}

fn run_and_report(args: &Args, dir: &std::path::Path) -> i32 {
    let steal0 = metrics::cpu_steal_jiffies();
    let fsync_us = metrics::fsync_floor_us(dir);
    let cx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        dir: dir.to_path_buf(),
    };
    let outcome = match run::run(args.workload, &cx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ur-benchmark: {e}");
            return 2;
        }
    };
    let (metrics, catalogue) = if args.trace {
        match layers::measure(args.workload, &cx, &outcome, fsync_us) {
            Ok(m) => (m, PER_LAYER),
            Err(e) => {
                eprintln!("ur-benchmark: traced replay: {e}");
                return 2;
            }
        }
    } else {
        (outcome.end_to_end(), END_TO_END)
    };
    let steal1 = metrics::cpu_steal_jiffies();
    let steal_frac =
        steal1.0.saturating_sub(steal0.0) as f64 / steal1.1.saturating_sub(steal0.1).max(1) as f64;
    let header = format!(
        "{{\"header\": {{\"commit\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"elab_threads\": {}, \"serve_workers\": {}, \"client_conns\": {}, \
         \"db_fsync_us\": {fsync_us:?}, \"compiles_from_reset_arena\": {}, \
         \"peak_rss_reset\": {}, \"ops\": {}, \"setups_s\": {:?}, \
         \"cpu_steal_frac\": {steal_frac:.4}}}}}",
        commit(),
        std::thread::available_parallelism().map_or(1, usize::from),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload_name,
        args.seed,
        args.seconds,
        args.trace,
        ur_infer::default_threads(),
        ur_serve::ServeConfig::default().workers,
        if args.workload == Workload::ColdCompile {
            1
        } else {
            run::CONNS
        },
        outcome.compiles_from_reset,
        outcome.peak_rss_reset,
        outcome.ops,
        outcome.setups_s,
    );
    let t = &outcome.tally;
    for note in &t.notes {
        eprintln!("ur-benchmark: {note}");
    }
    match render_result(
        t.wrong == 0,
        t.attempted.max(1),
        t.failed,
        &metrics,
        catalogue,
    ) {
        Ok(line) => {
            println!("{header}");
            println!("{line}");
            i32::from(t.wrong > 0)
        }
        Err(e) => {
            eprintln!("ur-benchmark: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::metrics::{END_TO_END, PER_LAYER};

    /// Every metric the command prints is declared in `BENCHMARK.json`
    /// with the same unit, and every declared metric is printed.
    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let get = |k: &str| {
                        let at = obj.find(&format!("\"{k}\"")).expect("key present");
                        let rest = &obj[at + k.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = {
            let start = json.find("\"workloads\"").expect("workloads");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("workloads close")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| {
                    let open = s.find('"').expect("name opens") + 1;
                    s[open..open + s[open..].find('"').expect("name closes")].to_string()
                })
                .collect()
        };
        assert_eq!(workloads, ["cold_compile", "edit_eval", "durable_rw"]);
        for w in &workloads {
            assert!(super::Workload::parse(w).is_some(), "{w} is runnable");
        }
    }
}
