//! Chaos differential benchmark: seeded fault schedules
//! (`ur_core::failpoint`) storm the durability layer (`wal_havoc`) and
//! the TCP serving layer (`serve_havoc`). The invariant is
//! answer-correctness: degradation may shed, tear, or expire requests,
//! but a delivered OK answer must match the oracle, and a failed commit
//! must leave no trace.
//!
//! Two hard gates, written to `BENCH_chaos.json`:
//!
//! * **zero divergence** — live and recovered store state must equal
//!   the in-memory oracle's, and every delivered OK answer must be
//!   right. Faults may cost retries or reported errors; they must never
//!   change results.
//! * **full site coverage** — every named fault site must actually fire
//!   at least once across the bench, so none of the recovery paths is
//!   silently untested.
//!
//! Every run's seed is printed; any failure reproduces by re-running
//! with the same seed (see docs/ROBUSTNESS.md).
//!
//! Run with `cargo run -p ur-bench --bin chaos --features failpoints --release`.

use std::fmt::Write as _;
use std::time::Instant;
use ur_core::failpoint::{self, draw, FpConfig, FpCounters, Site};

const MATRIX_SEEDS: &[u64] = &[0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

/// Serve-layer havoc: dropped accepts, torn reads and lost writes at
/// the TCP front door. Faults may cost structured shed/lost answers and
/// torn connections; they must never produce a *wrong* answer.
///
/// Failpoint draws are per-thread and every handler thread replays the
/// same stream, so a raw seed whose *first* read or write consult fires
/// would tear every fresh connection at the same spot — zero
/// throughput. The schedule therefore *derives* a seed whose hit-0
/// draws pass and whose streams provably fire at hit indexes a
/// surviving connection reaches. One more wrinkle: a connection tears at
/// whichever of read (consulted before the answer) and write (after it)
/// fires first, so a single seed can only ever exercise one of the two
/// — `read_first` picks which, and the matrix alternates it.
fn serve_havoc(seed: u64, read_first: bool) -> FpConfig {
    let mut seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E12_7E57;
    loop {
        let first = |site: Site, rate: u16| (1..=8u64).find(|&h| draw(seed, site, h, rate));
        let (r, w) = (first(Site::ServeRead, 200), first(Site::ServeWrite, 200));
        let hit0_pass = !draw(seed, Site::ServeRead, 0, 200) && !draw(seed, Site::ServeWrite, 0, 200);
        let tear_ok = if read_first {
            r.is_some() && w.is_none_or(|w| r.unwrap_or(u64::MAX) <= w)
        } else {
            w.is_some() && r.is_none_or(|r| w.unwrap_or(u64::MAX) < r)
        };
        if hit0_pass && tear_ok {
            break;
        }
        seed = seed.wrapping_add(1);
    }
    FpConfig::new(seed)
        .with_max_per_site(6)
        .with_rate(Site::ServeAccept, 250)
        .with_rate(Site::ServeRead, 200)
        .with_rate(Site::ServeWrite, 200)
}

/// One serve chaos pass: an in-process `ur-serve` front door under
/// `cfg`, driven by a sequential client that retries through torn
/// connections. Divergence means an OK answer with wrong content —
/// a load of a trivially-valid program reporting non-deadline
/// diagnostics, or an eval answering the wrong value. Structured
/// degradation (shed, lost, deadline-expired, E0900) is tolerated by
/// construction.
fn run_serve_havoc(cfg: FpConfig) -> (f64, FpCounters, bool) {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use ur_serve::{ServeConfig, Server};
    let server = Server::start(ServeConfig {
        workers: 2,
        deadline_ms: 250,
        fp: Some(cfg),
        ..ServeConfig::default()
    })
    .expect("serve bind");
    let addr = server.addr();
    struct Conn {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }
    impl Conn {
        // `None` means the connection tore (an injected fault): the
        // caller reconnects, which is exactly what a real client does.
        fn roundtrip(&mut self, line: &str) -> Option<String> {
            if writeln!(self.writer, "{line}").is_err() {
                return None;
            }
            let mut resp = String::new();
            match self.reader.read_line(&mut resp) {
                Ok(n) if n > 0 => Some(resp),
                _ => None,
            }
        }
    }
    let mut diverged = false;
    let start = Instant::now();
    // Connections persist across requests (so later per-thread fault
    // draws get consulted) and reconnect whenever one tears.
    let mut client: Option<Conn> = None;
    for i in 0..40i64 {
        let c = match client.as_mut() {
            Some(c) => c,
            None => {
                let Ok(stream) = TcpStream::connect(addr) else {
                    continue;
                };
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(20)));
                let Ok(rs) = stream.try_clone() else { continue };
                client.insert(Conn {
                    reader: BufReader::new(rs),
                    writer: stream,
                })
            }
        };
        let Some(resp) = c.roundtrip(&format!("{{\"cmd\":\"load\",\"source\":\"val v = {i}\"}}"))
        else {
            client = None;
            continue;
        };
        if !resp.contains("\"ok\":true") {
            continue; // structured shed/lost/expired answer: tolerated
        }
        if !resp.contains("\"diagnostics\":[]") {
            // Degraded rebuild: only a deadline-budget E0900 is legal.
            diverged |= !resp.contains("E0900");
            continue;
        }
        let Some(resp) = c.roundtrip("{\"cmd\":\"eval\",\"expr\":\"v + 1\"}") else {
            client = None;
            continue;
        };
        if resp.contains("\"ok\":true") && !resp.contains(&format!("\"value\":\"{}\"", i + 1)) {
            diverged = true;
        }
    }
    drop(client);
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    server.start_drain();
    let summary = server.wait();
    (ms, summary.faults, diverged)
}

/// Durability-layer havoc: WAL appends and fsyncs fail, commit records
/// reach the disk torn, snapshot writes die mid-checkpoint, rotations
/// fail after their snapshot landed (poisoning the handle until a later
/// checkpoint heals it). A failed commit must leave no trace (live
/// state and recovered state both match an in-memory oracle that skips
/// exactly the failed operations).
fn wal_havoc(seed: u64) -> FpConfig {
    FpConfig::new(seed)
        .with_max_per_site(4)
        .with_rate(Site::WalAppend, 220)
        .with_rate(Site::WalSync, 220)
        .with_rate(Site::WalCorrupt, 220)
        .with_rate(Site::SnapshotWrite, 400)
        .with_rate(Site::WalRotate, 400)
}

/// One durability chaos pass: a deterministic operation stream against
/// a durable database under `cfg` (simulate mode: injected faults are
/// `Err`s, not crashes — the kill-point variant is the `crash` bin),
/// mirrored onto an in-memory oracle only when the durable operation
/// succeeded. Divergence means either the live state or the recovered
/// state differs from the oracle.
fn run_wal_havoc(cfg: FpConfig) -> (f64, FpCounters, bool) {
    use ur_db::{ColTy, Db, DbVal, DurabilityConfig, Schema, SqlExpr};
    let dir = std::env::temp_dir().join(format!(
        "ur-chaos-wal-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Db::open_with(
        &dir,
        DurabilityConfig { snapshot_every: 8, sync_commits: true },
    )
    .expect("durable open");
    let mut oracle = Db::new();
    let schema = || {
        Schema::new(vec![("A".into(), ColTy::Int), ("B".into(), ColTy::Str)]).expect("schema")
    };
    let row = |a: i64| {
        [
            ("A".into(), SqlExpr::lit(DbVal::Int(a))),
            ("B".into(), SqlExpr::lit(DbVal::Str(format!("r{a}")))),
        ]
    };
    // The table and sequence exist before any fault can fire, so every
    // later operation is logically valid on both sides.
    db.create_table("t", schema()).expect("table");
    db.try_create_sequence("s").expect("sequence");
    oracle.create_table("t", schema()).expect("oracle table");
    oracle.try_create_sequence("s").expect("oracle sequence");

    let _ = failpoint::take_counters();
    failpoint::install(Some(cfg));
    let start = Instant::now();
    for i in 0..60i64 {
        match i % 5 {
            // An explicit multi-statement transaction: all-or-nothing.
            0 => {
                let mut ok = db.begin().is_ok();
                ok = ok && db.insert("t", &row(i)).is_ok();
                ok = ok && db.insert("t", &row(i + 1000)).is_ok();
                if ok && db.commit().is_ok() {
                    oracle.insert("t", &row(i)).expect("oracle insert");
                    oracle.insert("t", &row(i + 1000)).expect("oracle insert");
                } else if db.in_txn() {
                    let _ = db.rollback();
                }
            }
            1 | 2 => {
                if db.insert("t", &row(i)).is_ok() {
                    oracle.insert("t", &row(i)).expect("oracle insert");
                }
            }
            3 => {
                if db.nextval("s").is_ok() {
                    oracle.nextval("s").expect("oracle nextval");
                }
            }
            _ => {
                let pred = SqlExpr::Lt(
                    Box::new(SqlExpr::col("A")),
                    Box::new(SqlExpr::lit(DbVal::Int(i / 3))),
                );
                if db.delete("t", &pred).is_ok() {
                    oracle.delete("t", &pred).expect("oracle delete");
                }
            }
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    failpoint::install(None);
    let injected = failpoint::take_counters();

    let live_diverged = db.dump() != oracle.dump();
    drop(db);
    // A clean reopen over whatever the faults left on disk (including a
    // deliberately-torn tail) must still recover exactly the oracle.
    let recovered = Db::open(&dir).expect("recovery after simulate-mode havoc");
    let recovered_diverged = recovered.dump() != oracle.dump();
    let _ = std::fs::remove_dir_all(&dir);
    (ms, injected, live_diverged || recovered_diverged)
}

struct RunRecord {
    corpus: &'static str,
    schedule: &'static str,
    seed: u64,
    ms: f64,
    injected: u64,
    diverged: bool,
}

fn main() {
    println!("Chaos differential benchmark — seeded fault schedules vs clean runs");
    println!();

    let mut rows: Vec<RunRecord> = Vec::new();
    let mut totals = FpCounters::default();
    // Durability-layer havoc against the WAL + snapshot store: failed
    // commits must vanish without trace, live and recovered state both
    // tracking the in-memory oracle.
    for &seed in MATRIX_SEEDS {
        let cfg = wal_havoc(seed);
        let (ms, injected, diverged) = run_wal_havoc(cfg);
        totals.absorb(&injected);
        rows.push(RunRecord {
            corpus: "ur-db",
            schedule: "wal_havoc",
            seed: cfg.seed,
            ms,
            injected: injected.total_injected(),
            diverged,
        });
    }
    // Serve-layer havoc against the TCP front door: torn connections
    // may shed or lose requests, but a delivered OK answer must never be
    // wrong.
    for (ix, &seed) in MATRIX_SEEDS.iter().enumerate() {
        let cfg = serve_havoc(seed, ix % 2 == 0);
        let (ms, injected, diverged) = run_serve_havoc(cfg);
        totals.absorb(&injected);
        rows.push(RunRecord {
            corpus: "ur-serve",
            schedule: "serve_havoc",
            seed: cfg.seed,
            ms,
            injected: injected.total_injected(),
            diverged,
        });
    }

    println!(
        "{:>12} {:>12} {:>10} {:>9} {:>9} {:>9}",
        "corpus", "schedule", "seed", "ms", "injected", "diverged"
    );
    for r in &rows {
        println!(
            "{:>12} {:>12} {:>10} {:>9.1} {:>9} {:>9}",
            r.corpus, r.schedule, r.seed, r.ms, r.injected, r.diverged
        );
    }
    println!();
    println!(
        "faults injected per site: {}",
        Site::ALL
            .iter()
            .map(|s| format!("{}={}", s.name(), totals.injected[s.index()]))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let divergences = rows.iter().filter(|r| r.diverged).count();
    println!(
        "runs: {}; divergences: {divergences}; sites exercised: {}/{}",
        rows.len(),
        totals.sites_exercised(),
        Site::ALL.len()
    );

    let mut json = format!(
        "{{\n  \"benchmark\": \"chaos\",\n  \"metric\": \"divergence\",\n  \
         \"matrix_seeds\": {MATRIX_SEEDS:?},\n  \"runs\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"corpus\": \"{}\", \"schedule\": \"{}\", \"seed\": {}, \
             \"ms\": {:.2}, \"injected\": {}, \"diverged\": {}}}",
            r.corpus, r.schedule, r.seed, r.ms, r.injected, r.diverged
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(json, "  ],\n  \"faults_per_site\": {{");
    for (i, s) in Site::ALL.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {}",
            if i > 0 { ", " } else { "" },
            s.name(),
            totals.injected[s.index()]
        );
    }
    let _ = write!(
        json,
        "}},\n  \"sites_exercised\": {},\n  \"divergence_count\": {divergences}\n}}\n",
        totals.sites_exercised()
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");

    // Hard gate 1: faults never change results.
    assert_eq!(
        divergences, 0,
        "chaos runs diverged from the clean baseline"
    );
    // Hard gate 2: every recovery path actually ran.
    assert_eq!(
        totals.sites_exercised(),
        Site::ALL.len(),
        "some fault sites never fired: {}",
        Site::ALL
            .iter()
            .filter(|s| totals.injected[s.index()] == 0)
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
