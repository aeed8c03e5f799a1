//! Chaos differential benchmark: the combined Figure-5 batch and an
//! adversarial mixed-error batch, rebuilt through the incremental
//! engine under seeded disk-cache fault schedules (`ur_core::failpoint`,
//! `cache_havoc`), compared declaration-by-declaration against a clean
//! baseline. Dedicated schedules additionally storm the durability
//! layer (`wal_havoc`) and the supervised TCP serving layer
//! (`serve_havoc`), where the invariant is answer-correctness rather
//! than decl equality: degradation may shed, tear, or expire requests,
//! but a delivered OK answer must match the oracle.
//!
//! Two hard gates, written to `BENCH_chaos.json`:
//!
//! * **zero divergence** — elaborated declarations (up to fresh symbol
//!   ids) and diagnostics under every fault schedule must equal the
//!   clean run's. Faults may cost recomputation; they must never
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
use ur_core::failpoint::{self, FpConfig, FpCounters, Site};
use ur_studies::{studies, study, Study};
use ur_web::Session;

const MATRIX_SEEDS: &[u64] = &[0x5EED_0001, 0x5EED_0002, 0x5EED_0003];
/// Independent wide `mkTable` clients appended to the Figure-5 batch
/// (few and narrow: chaos runs the batch many times).
const CLIENT_FAN: usize = 4;
const CLIENT_WIDTH: usize = 8;

/// Disk-cache havoc for the incremental engine: stores corrupt their
/// integrity tag, loads return unreadable bytes. Every damaged entry
/// must degrade to a recompute, never to a wrong answer.
fn cache_havoc(seed: u64) -> FpConfig {
    FpConfig::new(seed)
        .with_max_per_site(2)
        .with_rate(Site::CacheLoad, 500)
        .with_rate(Site::CacheStore, 500)
}

/// Serve-layer havoc: dropped accepts, torn reads, lost writes, and
/// wedged workers at the TCP front door. Supervision may cost restarts,
/// replays, and structured shed/lost answers; it must never produce a
/// *wrong* answer.
///
/// Failpoint draws are per-thread and every handler/worker thread
/// replays the same stream, so a raw seed whose *first* read, write, or
/// wedge consult fires would tear every fresh connection (or kill every
/// fresh worker) at the same spot — zero throughput, or a wedge per
/// request. The schedule therefore *derives* a seed whose hit-0 draws
/// pass and whose streams provably fire at hit indexes a surviving
/// connection reaches. One more wrinkle: a connection tears at
/// whichever of read (consulted before the answer) and write (after it)
/// fires first, so a single seed can only ever exercise one of the two
/// — `read_first` picks which, and the matrix alternates it.
fn serve_havoc(seed: u64, read_first: bool) -> FpConfig {
    let fires = |seed: u64, site: Site, hit: u64, rate: u64| {
        let mut z = seed ^ (site.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ hit;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 1000 < rate
    };
    let mut seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E12_7E57;
    loop {
        let first = |site: Site, rate: u64| (1..=8u64).find(|&h| fires(seed, site, h, rate));
        let (r, w) = (first(Site::ServeRead, 200), first(Site::ServeWrite, 200));
        let hit0_pass = !fires(seed, Site::ServeRead, 0, 200)
            && !fires(seed, Site::ServeWrite, 0, 200)
            && !fires(seed, Site::ServeWedge, 0, 150);
        let tear_ok = if read_first {
            r.is_some() && w.is_none_or(|w| r.unwrap_or(u64::MAX) <= w)
        } else {
            w.is_some() && r.is_none_or(|r| w.unwrap_or(u64::MAX) < r)
        };
        if hit0_pass && tear_ok && (1..=6).any(|h| fires(seed, Site::ServeWedge, h, 150)) {
            break;
        }
        seed = seed.wrapping_add(1);
    }
    FpConfig::new(seed)
        .with_max_per_site(6)
        .with_rate(Site::ServeAccept, 250)
        .with_rate(Site::ServeRead, 200)
        .with_rate(Site::ServeWrite, 200)
        .with_rate(Site::ServeWedge, 150)
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
    let cache = std::env::temp_dir().join(format!(
        "ur-chaos-serve-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache);
    let server = Server::start(ServeConfig {
        workers: 2,
        deadline_ms: 250,
        watchdog_ms: 50,
        cache_dir: Some(cache.clone()),
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
    let _ = std::fs::remove_dir_all(&cache);
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

/// Combined batch: every study's transitive dependencies (depth-first,
/// deduplicated), implementation, and usage demo, then the client fan.
fn combined_source() -> String {
    fn push_impl(parts: &mut Vec<&'static str>, s: &Study) {
        for dep in s.deps {
            push_impl(parts, &study(dep));
        }
        let src = s.implementation();
        if !parts.contains(&src) {
            parts.push(src);
        }
    }
    let mut parts: Vec<&'static str> = Vec::new();
    let mut usages: Vec<&'static str> = Vec::new();
    for s in studies() {
        push_impl(&mut parts, &s);
        usages.push(s.usage);
    }
    parts.extend(usages);
    let mut src = parts.join("\n");
    for c in 0..CLIENT_FAN {
        let mut meta = String::new();
        let mut row = String::new();
        for i in 0..CLIENT_WIDTH {
            if i > 0 {
                meta.push_str(", ");
                row.push_str(", ");
            }
            let _ = write!(meta, "F{c}x{i} = {{Label = \"f{i}\", Show = showInt}}");
            let _ = write!(row, "F{c}x{i} = {i}");
        }
        let _ = write!(
            src,
            "\nval client{c} = mkTable {{{meta}}}\nval render{c} = client{c} {{{row}}}"
        );
    }
    src
}

/// Mixed-error batch: the multi-error contract (every bad declaration
/// diagnosed, every good one elaborated) must hold identically under
/// faults.
fn adversarial_source() -> String {
    "val ok1 = 1 + 2\n\
     val bad_type : int = \"nope\"\n\
     val bad_unbound = missing\n\
     fun ok2 (x : int) = x * 2\n\
     val bad_overlap = {A = 1} ++ {A = 2}\n\
     val ok3 = ok2 ok1\n\
     fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
        (x : $([nm = t] ++ r)) = x.nm\n\
     val ok4 = proj [#A] {A = 40, B = \"b\"} + 2\n\
     val ok5 = ok3 + ok4"
        .to_string()
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

/// One build's declarations and diagnostics, printed without symbol ids.
type Observed = (Vec<String>, Vec<String>);

/// Elaborates `src` once, cleanly, in a fresh session: the baseline
/// every chaos build must reproduce.
fn baseline(src: &str) -> Observed {
    let mut sess = Session::new().expect("session");
    let (decls, diags) = sess.elab.elab_source_all(src);
    observe(&decls, &diags)
}

/// Renders a build's declarations (without symbol ids) and diagnostics
/// as comparable strings.
fn observe(decls: &[ur_infer::ElabDecl], diags: &[ur_syntax::Diagnostic]) -> Observed {
    let decl_fps = decls
        .iter()
        .map(|d| strip_sym_ids(&format!("{d:?}")))
        .collect();
    let diag_fps = diags.iter().map(|d| d.to_string()).collect();
    (decl_fps, diag_fps)
}

/// One chaos pass through the incremental engine: a cold build, then
/// three rebuilds, each by a fresh engine over the same directory, all
/// under a faulty store and load layer. A rebuild writes at most one
/// pack and reads each pack once, so it consults each cache site once;
/// the three fresh-engine rebuilds give both sites draws enough to
/// fire. Corrupted packs are rejected and recomputed; every build's
/// declarations and diagnostics must still match the clean baseline.
/// Returns each build's observations.
fn run_once_cache(src: &str, cfg: FpConfig) -> (f64, Vec<Observed>, FpCounters) {
    use ur_query::{Engine, EngineConfig};
    let dir = std::env::temp_dir().join(format!("ur-chaos-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sess = Session::new().expect("session");
    let base = sess.elab.snapshot();
    let base_tag = ur_core::fingerprint::hash_str(ur_web::PRELUDE);
    let _ = failpoint::take_counters();
    failpoint::install(Some(cfg));
    let start = Instant::now();
    let builds: Vec<_> = (0..4)
        .map(|_| {
            sess.elab.restore(base.clone());
            let mut engine = Engine::new(EngineConfig {
                cache_dir: Some(dir.clone()),
                base_tag,
            });
            let (decls, diags, _report) = engine.run(&mut sess.elab, src, 1);
            observe(&decls, &diags)
        })
        .collect();
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    failpoint::install(None);
    let injected = failpoint::take_counters();
    let _ = std::fs::remove_dir_all(&dir);
    (ms, builds, injected)
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
    let fig5 = combined_source();
    let adv = adversarial_source();
    let corpora: [(&'static str, &str); 2] = [("figure5", &fig5), ("adversarial", &adv)];

    println!("Chaos differential benchmark — seeded fault schedules vs clean runs");
    println!();

    let mut baselines: Vec<Observed> = Vec::new();
    for (name, src) in &corpora {
        let (decls, diags) = baseline(src);
        println!(
            "baseline [{name}]: {} decls, {} diagnostics (clean)",
            decls.len(),
            diags.len()
        );
        baselines.push((decls, diags));
    }
    println!();

    let mut rows: Vec<RunRecord> = Vec::new();
    let mut totals = FpCounters::default();
    // Incremental-engine cache corruption, against both corpora.
    for corpus_ix in 0..corpora.len() {
        let cfg = cache_havoc(0xCAC4E + corpus_ix as u64);
        let (name, src) = corpora[corpus_ix];
        let (base_decls, base_diags) = &baselines[corpus_ix];
        let (ms, builds, injected) = run_once_cache(src, cfg);
        totals.absorb(&injected);
        rows.push(RunRecord {
            corpus: name,
            schedule: "cache_havoc",
            seed: cfg.seed,
            ms,
            injected: injected.total_injected(),
            diverged: builds
                .iter()
                .any(|(decls, diags)| decls != base_decls || diags != base_diags),
        });
    }
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
    // Serve-layer havoc against the supervised TCP front door: torn
    // connections and wedged workers may shed or lose requests, but a
    // delivered OK answer must never be wrong.
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
