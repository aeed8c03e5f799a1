//! Serving resilience benchmark: four phases against an in-process
//! `ur-serve` front door, each with a hard gate, written to
//! `BENCH_serving.json`.
//!
//! 1. **nominal** — no faults, concurrent clients; every delivered eval
//!    answer is compared against a clean sequential oracle (the same
//!    [`ur_serve::protocol::handle_line`] run on a local session).
//!    Gates: zero wrong answers, ≥99% non-shed availability.
//! 2. **fault storm** — a seeded schedule over the three serve sites
//!    (dropped accepts, torn reads, lost writes). Structured degradation
//!    (shed / lost / torn / E0900) is legal; a wrong OK answer is not.
//!    Gate: zero wrong answers.
//! 3. **read fan-out** — durable reads (`db` reports) under concurrent
//!    durable write load, single-worker vs snapshot-reader fan-out.
//!    Gate: fan-out read throughput beats the single-worker baseline
//!    (reads no longer serialise behind the writer).
//! 4. **overload** — 2× oversubscription against a deliberately tiny
//!    queue. Gates: shedding actually observed (`overloaded` +
//!    `retry_after_ms`), and p99 latency of delivered answers bounded
//!    by `3 × deadline × (queue_depth + 1)`.
//!
//! The base seed comes from `UR_SERVE_SEED` (default 11); every phase
//! prints the seed it ran under so failures reproduce exactly.
//!
//! Run with `cargo run -p ur-bench --bin serve --features failpoints --release`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;
use ur_core::failpoint::{draw, FpConfig, Site};
use ur_query::json::escape;
use ur_serve::{protocol, ReqCtx, ServeConfig, Server};
use ur_web::Session;

/// One line-delimited JSON client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and reads one response line. `None` means
    /// the connection tore (write failed, read failed, or clean EOF).
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

fn load_req(src: &str) -> String {
    format!("{{\"cmd\":\"load\",\"source\":\"{}\"}}", escape(src))
}

fn eval_req(expr: &str) -> String {
    format!("{{\"cmd\":\"eval\",\"expr\":\"{}\"}}", escape(expr))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ur-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let ix = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[ix.min(samples.len() - 1)]
}

// ---------------------------------------------------------------- phase 1

struct NominalResult {
    requests: u64,
    ok: u64,
    shed: u64,
    wrong: u64,
    availability: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// No faults: concurrent clients, every answer differentially checked
/// against a sequential oracle running the identical protocol lines.
fn phase_nominal() -> NominalResult {
    const CLIENTS: usize = 4;
    const CONNS_PER_CLIENT: i64 = 25;

    // Oracle pass: the same handle_line, one local session, sequential.
    let mut oracle_sess = Session::new().expect("oracle session");
    let mut ctx = ReqCtx::new(None);
    let mut expected: Vec<String> = Vec::new();
    for n in 0..(CLIENTS as i64 * CONNS_PER_CLIENT) {
        let (load_resp, _) = protocol::handle_line(
            &mut oracle_sess,
            &mut ctx,
            &load_req(&format!("val a = {n}  val b = a * a + 7")),
            None,
        );
        assert!(
            load_resp.contains("\"diagnostics\":[]"),
            "oracle load must be clean: {load_resp}"
        );
        let (eval_resp, _) = protocol::handle_line(&mut oracle_sess, &mut ctx, &eval_req("b - a"), None);
        assert!(eval_resp.contains("\"ok\":true"), "oracle eval: {eval_resp}");
        expected.push(eval_resp);
    }
    let expected = std::sync::Arc::new(expected);

    let server = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("serve bind");
    let addr = server.addr();

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let expected = std::sync::Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let (mut ok, mut shed, mut wrong) = (0u64, 0u64, 0u64);
            let mut lat = Vec::new();
            for i in 0..CONNS_PER_CLIENT {
                let n = t as i64 * CONNS_PER_CLIENT + i;
                let Ok(mut c) = Client::connect(addr) else {
                    continue;
                };
                let start = Instant::now();
                let Some(load) = c.roundtrip(&load_req(&format!("val a = {n}  val b = a * a + 7")))
                else {
                    continue;
                };
                if load.contains("\"error\":\"overloaded\"") {
                    shed += 1;
                    continue;
                }
                if !load.contains("\"diagnostics\":[]") {
                    continue;
                }
                let Some(eval) = c.roundtrip(&eval_req("b - a")) else {
                    continue;
                };
                if eval.contains("\"error\":\"overloaded\"") {
                    shed += 1;
                    continue;
                }
                if !eval.contains("\"ok\":true") {
                    continue;
                }
                lat.push(start.elapsed().as_secs_f64() * 1000.0);
                if eval.trim_end() == expected[n as usize] {
                    ok += 1;
                } else {
                    wrong += 1;
                }
            }
            (ok, shed, wrong, lat)
        }));
    }

    let (mut ok, mut shed, mut wrong) = (0u64, 0u64, 0u64);
    let mut lat = Vec::new();
    for h in handles {
        let (o, s, w, l) = h.join().expect("client thread");
        ok += o;
        shed += s;
        wrong += w;
        lat.extend(l);
    }
    server.start_drain();
    let _ = server.wait();

    let requests = (CLIENTS as i64 * CONNS_PER_CLIENT) as u64;
    NominalResult {
        requests,
        ok,
        shed,
        wrong,
        availability: ok as f64 / requests as f64,
        p50_ms: percentile(&mut lat.clone(), 0.50),
        p99_ms: percentile(&mut lat, 0.99),
    }
}

// ---------------------------------------------------------------- phase 2

struct StormResult {
    seed: u64,
    requests: u64,
    ok: u64,
    torn: u64,
    degraded: u64,
    wrong: u64,
    injected: [u64; 3],
}

/// Seeded storm over the three serve sites. The client knows every
/// expected answer (`val v = i` / `v + 1` → `i + 1`), so a wrong OK
/// answer is detected without an oracle pass.
fn phase_fault_storm(base_seed: u64) -> StormResult {
    const ACCEPT_RATE: u16 = 250;
    const READ_RATE: u16 = 200;
    const WRITE_RATE: u16 = 200;

    // Failpoint draws are per-thread and every handler thread replays
    // the same stream, so a seed whose *first* read or write consult
    // fires would tear every fresh connection at the same spot, and the
    // storm would measure nothing. Derive a seed whose read/write draws
    // pass for the first request pair (hits 0 and 1 — one load + one
    // eval per connection); later hits fire at the configured rates as
    // connections live longer, so every connection delivers at least one
    // full answer pair before a fault tears it.
    let mut seed = base_seed ^ 0xBAD_5EED;
    while (0..=1).any(|h| draw(seed, Site::ServeRead, h, READ_RATE))
        || (0..=1).any(|h| draw(seed, Site::ServeWrite, h, WRITE_RATE))
    {
        seed = seed.wrapping_add(1);
    }

    let fp = FpConfig::new(seed)
        .with_max_per_site(6)
        .with_rate(Site::ServeAccept, ACCEPT_RATE)
        .with_rate(Site::ServeRead, READ_RATE)
        .with_rate(Site::ServeWrite, WRITE_RATE);
    let server = Server::start(ServeConfig {
        workers: 2,
        deadline_ms: 400,
        fp: Some(fp),
        ..ServeConfig::default()
    })
    .expect("serve bind");
    let addr = server.addr();

    let (mut ok, mut torn, mut degraded, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    const REQUESTS: i64 = 60;
    // Connections persist across requests (so later per-thread hits get
    // consulted) and reconnect whenever a fault tears one down.
    let mut client: Option<Client> = None;
    for i in 0..REQUESTS {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    torn += 1;
                    continue;
                }
            },
        };
        let Some(load) = c.roundtrip(&load_req(&format!("val v = {i}"))) else {
            torn += 1;
            client = None;
            continue;
        };
        if !load.contains("\"ok\":true") {
            degraded += 1; // structured shed / lost / expired answer
            continue;
        }
        if !load.contains("\"diagnostics\":[]") {
            // A degraded rebuild may only fail with the deadline budget.
            if load.contains("E0900") {
                degraded += 1;
            } else {
                wrong += 1;
            }
            continue;
        }
        let Some(eval) = c.roundtrip(&eval_req("v + 1")) else {
            torn += 1;
            client = None;
            continue;
        };
        if !eval.contains("\"ok\":true") {
            degraded += 1;
            continue;
        }
        if eval.contains(&format!("\"value\":\"{}\"", i + 1)) {
            ok += 1;
        } else {
            wrong += 1;
        }
    }
    server.start_drain();
    let summary = server.wait();

    StormResult {
        seed,
        requests: REQUESTS as u64,
        ok,
        torn,
        degraded,
        wrong,
        injected: [
            summary.faults.injected[Site::ServeAccept.index()],
            summary.faults.injected[Site::ServeRead.index()],
            summary.faults.injected[Site::ServeWrite.index()],
        ],
    }
}

// ---------------------------------------------------------------- phase 4

struct OverloadResult {
    requests: u64,
    ok: u64,
    shed: u64,
    p99_ms: f64,
    p99_bound_ms: f64,
}

/// 2× oversubscription against a tiny queue: 8 concurrent clients, 2
/// workers, queue depth 1. Excess load must shed with a structured
/// answer, and whatever *is* answered must be answered promptly.
fn phase_overload() -> OverloadResult {
    const CLIENTS: usize = 8;
    const CONNS_PER_CLIENT: usize = 12;
    const DEADLINE_MS: u64 = 1_000;
    const QUEUE_DEPTH: usize = 1;

    let server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: QUEUE_DEPTH,
        deadline_ms: DEADLINE_MS,
        retry_after_ms: 5,
        ..ServeConfig::default()
    })
    .expect("serve bind");
    let addr = server.addr();

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let (mut ok, mut shed) = (0u64, 0u64);
            let mut lat = Vec::new();
            for i in 0..CONNS_PER_CLIENT {
                let u = t * CONNS_PER_CLIENT + i;
                // Unique field names defeat every cache layer, so each
                // request costs a real row-concatenation elaboration.
                let fields = |p: &str| {
                    (0..60)
                        .map(|f| format!("{p}{u}_{f} = {f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let src = format!("val w = {{{}}} ++ {{{}}}", fields("A"), fields("B"));
                let Ok(mut c) = Client::connect(addr) else {
                    continue;
                };
                let start = Instant::now();
                let Some(resp) = c.roundtrip(&load_req(&src)) else {
                    continue;
                };
                if resp.contains("\"error\":\"overloaded\"") {
                    assert!(
                        resp.contains("\"retry_after_ms\":"),
                        "shed answers must carry retry advice: {resp}"
                    );
                    shed += 1;
                } else if resp.contains("\"ok\":true") {
                    ok += 1;
                    lat.push(start.elapsed().as_secs_f64() * 1000.0);
                }
            }
            (ok, shed, lat)
        }));
    }

    let (mut ok, mut shed) = (0u64, 0u64);
    let mut lat = Vec::new();
    for h in handles {
        let (o, s, l) = h.join().expect("client thread");
        ok += o;
        shed += s;
        lat.extend(l);
    }
    server.start_drain();
    let _ = server.wait();

    OverloadResult {
        requests: (CLIENTS * CONNS_PER_CLIENT) as u64,
        ok,
        shed,
        p99_ms: percentile(&mut lat, 0.99),
        p99_bound_ms: (3 * DEADLINE_MS * (QUEUE_DEPTH as u64 + 1)) as f64,
    }
}

// ---------------------------------------------------------------- phase 3

struct ReadFanoutResult {
    single_rps: f64,
    fanout_rps: f64,
    improvement: f64,
    single_reads: u64,
    fanout_reads: u64,
    single_writes: u64,
    fanout_writes: u64,
}

/// Durable read throughput under concurrent write load, single-worker
/// vs snapshot-reader fan-out. With one worker every read queues behind
/// the writer's durable evals; with the fan-out, read-only commands go
/// to snapshot readers and never wait for the store. The gate is the
/// whole point of the MVCC engine's serving story: fan-out read
/// throughput must beat the single-worker baseline.
fn phase_read_fanout() -> ReadFanoutResult {
    const READ_CLIENTS: usize = 4;
    const WRITE_CLIENTS: usize = 2;
    const WINDOW: std::time::Duration = std::time::Duration::from_millis(2_000);

    fn run_one(workers: usize) -> (u64, u64) {
        let db_dir = tmp_dir(&format!("fanout-db-{workers}"));
        let server = Server::start(ServeConfig {
            workers,
            deadline_ms: 2_000,
            db_dir: Some(db_dir.clone()),
            ..ServeConfig::default()
        })
        .expect("serve bind");
        let addr = server.addr();

        // Acked base state: one durable table all clients share.
        let mut setup = Client::connect(addr).expect("setup client");
        let resp = setup
            .roundtrip(&load_req(
                "val t = createTable \"people\" {Name = sqlString} \
                 val u0 = insert t {Name = const \"seed\"}",
            ))
            .expect("setup load");
        assert!(
            resp.contains("\"ok\":true") && resp.contains("\"diagnostics\":[]"),
            "fan-out setup must ack cleanly: {resp}"
        );

        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for _ in 0..WRITE_CLIENTS {
            let stop = std::sync::Arc::clone(&stop);
            writers.push(std::thread::spawn(move || -> u64 {
                let mut writes = 0u64;
                let Ok(mut c) = Client::connect(addr) else {
                    return 0;
                };
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match c.roundtrip(&eval_req("insert t {Name = const \"w\"}")) {
                        Some(resp) if resp.contains("\"ok\":true") => writes += 1,
                        Some(_) => {} // shed / expired: keep pressing
                        None => match Client::connect(addr) {
                            Ok(n) => c = n,
                            Err(_) => break,
                        },
                    }
                }
                writes
            }));
        }
        let mut readers = Vec::new();
        for _ in 0..READ_CLIENTS {
            let stop = std::sync::Arc::clone(&stop);
            readers.push(std::thread::spawn(move || -> u64 {
                let mut reads = 0u64;
                let Ok(mut c) = Client::connect(addr) else {
                    return 0;
                };
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match c.roundtrip("{\"cmd\":\"db\"}") {
                        Some(resp) if resp.contains("\"ok\":true") => reads += 1,
                        Some(_) => {}
                        None => match Client::connect(addr) {
                            Ok(n) => c = n,
                            Err(_) => break,
                        },
                    }
                }
                reads
            }));
        }
        std::thread::sleep(WINDOW);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|j| j.join().unwrap_or(0)).sum();
        let writes: u64 = writers.into_iter().map(|j| j.join().unwrap_or(0)).sum();
        server.start_drain();
        let _ = server.wait();
        let _ = std::fs::remove_dir_all(&db_dir);
        (reads, writes)
    }

    let (single_reads, single_writes) = run_one(1);
    let (fanout_reads, fanout_writes) = run_one(4);
    let secs = WINDOW.as_secs_f64();
    let single_rps = single_reads as f64 / secs;
    let fanout_rps = fanout_reads as f64 / secs;
    ReadFanoutResult {
        single_rps,
        fanout_rps,
        improvement: fanout_rps / single_rps.max(1e-9),
        single_reads,
        fanout_reads,
        single_writes,
        fanout_writes,
    }
}

// ------------------------------------------------------------------ main

fn main() {
    let seed: u64 = std::env::var("UR_SERVE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);

    println!("Serving resilience benchmark — seed {seed} (UR_SERVE_SEED)");
    println!();

    let t = Instant::now();
    let nominal = phase_nominal();
    println!(
        "nominal:   {}/{} ok, {} shed, {} wrong, availability {:.1}%, \
         p50 {:.1}ms p99 {:.1}ms  ({:.1}s)",
        nominal.ok,
        nominal.requests,
        nominal.shed,
        nominal.wrong,
        nominal.availability * 100.0,
        nominal.p50_ms,
        nominal.p99_ms,
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let storm = phase_fault_storm(seed);
    println!(
        "storm:     seed {} — {}/{} ok, {} torn, {} degraded, {} wrong, \
         injected accept/read/write {:?}  ({:.1}s)",
        storm.seed,
        storm.ok,
        storm.requests,
        storm.torn,
        storm.degraded,
        storm.wrong,
        storm.injected,
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let fanout = phase_read_fanout();
    println!(
        "fan-out:   reads {:.0}/s single-worker vs {:.0}/s with snapshot readers \
         ({:.2}x; writes {} vs {})  ({:.1}s)",
        fanout.single_rps,
        fanout.fanout_rps,
        fanout.improvement,
        fanout.single_writes,
        fanout.fanout_writes,
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let overload = phase_overload();
    println!(
        "overload:  {}/{} ok, {} shed, p99 {:.1}ms (bound {:.0}ms)  ({:.1}s)",
        overload.ok,
        overload.requests,
        overload.shed,
        overload.p99_ms,
        overload.p99_bound_ms,
        t.elapsed().as_secs_f64()
    );
    println!();

    let wrong_answers = nominal.wrong + storm.wrong;
    let mut json = format!(
        "{{\n  \"benchmark\": \"serving\",\n  \"seed\": {seed},\n  \"phases\": {{\n"
    );
    let _ = writeln!(
        json,
        "    \"nominal\": {{\"requests\": {}, \"ok\": {}, \"shed\": {}, \"wrong\": {}, \
         \"availability\": {:.4}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}},",
        nominal.requests,
        nominal.ok,
        nominal.shed,
        nominal.wrong,
        nominal.availability,
        nominal.p50_ms,
        nominal.p99_ms
    );
    let _ = writeln!(
        json,
        "    \"fault_storm\": {{\"seed\": {}, \"requests\": {}, \"ok\": {}, \"torn\": {}, \
         \"degraded\": {}, \"wrong\": {}, \
         \"injected\": {{\"serve_accept\": {}, \"serve_read\": {}, \"serve_write\": {}}}}},",
        storm.seed,
        storm.requests,
        storm.ok,
        storm.torn,
        storm.degraded,
        storm.wrong,
        storm.injected[0],
        storm.injected[1],
        storm.injected[2]
    );
    let _ = writeln!(
        json,
        "    \"read_fanout\": {{\"single_rps\": {:.1}, \"fanout_rps\": {:.1}, \
         \"improvement\": {:.3}, \"single_reads\": {}, \"fanout_reads\": {}, \
         \"single_writes\": {}, \"fanout_writes\": {}}},",
        fanout.single_rps,
        fanout.fanout_rps,
        fanout.improvement,
        fanout.single_reads,
        fanout.fanout_reads,
        fanout.single_writes,
        fanout.fanout_writes
    );
    let _ = write!(
        json,
        "    \"overload\": {{\"requests\": {}, \"ok\": {}, \"shed\": {}, \"p99_ms\": {:.2}, \
         \"p99_bound_ms\": {:.0}}}\n  }},\n",
        overload.requests, overload.ok, overload.shed, overload.p99_ms, overload.p99_bound_ms
    );
    let _ = write!(
        json,
        "  \"gates\": {{\"wrong_answers\": {wrong_answers}, \
         \"nominal_availability\": {:.4}, \
         \"overload_shed\": {}, \"overload_p99_bounded\": {}, \
         \"read_fanout_improvement\": {:.3}}}\n}}\n",
        nominal.availability,
        overload.shed,
        overload.p99_ms <= overload.p99_bound_ms,
        fanout.improvement
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json");

    // Hard gate 1: a delivered OK answer is never wrong — and the storm
    // demonstrably delivered answers to be wrong about (the derived
    // seed guarantees every connection survives its first request pair).
    assert_eq!(wrong_answers, 0, "serving produced wrong answers");
    assert!(
        storm.ok > 0,
        "fault storm delivered no answers (seed {})",
        storm.seed
    );
    // Hard gate 2: ≥99% non-shed availability at nominal load.
    assert!(
        nominal.availability >= 0.99,
        "nominal availability {:.2}% below 99%",
        nominal.availability * 100.0
    );
    // Hard gate: the snapshot-reader fan-out must beat the single-worker
    // baseline on durable reads under write load — and both sides must
    // have demonstrably served reads *and* writes for the comparison to
    // mean anything.
    assert!(
        fanout.single_reads > 0 && fanout.fanout_reads > 0,
        "read fan-out phase served no reads: {} vs {}",
        fanout.single_reads,
        fanout.fanout_reads
    );
    assert!(
        fanout.single_writes > 0 && fanout.fanout_writes > 0,
        "read fan-out phase served no writes: {} vs {}",
        fanout.single_writes,
        fanout.fanout_writes
    );
    assert!(
        fanout.improvement > 1.0,
        "snapshot-reader fan-out did not improve durable read throughput: \
         {:.0}/s vs {:.0}/s ({:.2}x)",
        fanout.single_rps,
        fanout.fanout_rps,
        fanout.improvement
    );
    // Hard gate 3: overload sheds instead of queueing without bound, and
    // what is answered is answered within the latency bound.
    assert!(overload.shed > 0, "overload phase never shed");
    assert!(
        overload.p99_ms <= overload.p99_bound_ms,
        "overload p99 {:.1}ms exceeds bound {:.0}ms",
        overload.p99_ms,
        overload.p99_bound_ms
    );
    println!("all serving gates passed");
}
