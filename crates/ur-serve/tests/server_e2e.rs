//! End-to-end tests for the `ur-serve` TCP front door: concurrent
//! clients, overload shedding, graceful drain, per-client caps, and
//! (under `--features failpoints`) supervised worker replacement.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use ur_serve::{ServeConfig, Server};

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        // Tolerates write failures: fault-injection tests tear
        // connections server-side, and a torn peer surfaces here as
        // BrokenPipe. The recv-side asserts catch real breakage.
        let _ = writeln!(self.writer, "{line}");
    }

    fn recv(&mut self) -> String {
        let mut out = String::new();
        self.reader.read_line(&mut out).expect("read");
        out.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Sends `line` until a worker runs it. A 1 ms deadline also bounds
    /// the request's wait in the queue, and a request still queued when
    /// it passes is answered `deadline_expired` without running; only a
    /// run request shows what its fuel ceiling did.
    fn run_once_executed(&mut self, line: &str) -> String {
        for _ in 0..50 {
            let resp = self.roundtrip(line);
            if !resp.contains("\"error\":\"deadline_expired\"") {
                return resp;
            }
        }
        panic!("{line}: every attempt expired in the queue")
    }
}

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        deadline_ms: 5_000,
        watchdog_ms: 200,
        ..ServeConfig::default()
    }
}

#[test]
fn serves_concurrent_clients_with_isolated_sessions() {
    let server = Server::start(quick_cfg()).expect("start");
    let addr = server.addr();
    let mut joins = Vec::new();
    for i in 0..4_u32 {
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            let v = 10 + i;
            let resp = c.roundtrip(&format!(
                "{{\"cmd\":\"load\",\"source\":\"val x = {v}\"}}"
            ));
            assert!(resp.contains("\"ok\":true"), "{resp}");
            assert!(resp.contains("\"diagnostics\":[]"), "{resp}");
            let resp = c.roundtrip("{\"cmd\":\"type\",\"name\":\"x\"}");
            assert!(resp.contains("\"type\":\"int\""), "{resp}");
            // Sessions are per-connection: each client sees its own x.
            let resp = c.roundtrip("{\"cmd\":\"eval\",\"expr\":\"x + 1\"}");
            assert!(
                resp.contains(&format!("\"value\":\"{}\"", v + 1)),
                "client {i}: {resp}"
            );
            let resp = c.roundtrip("{\"cmd\":\"quit\"}");
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    server.start_drain();
    let summary = server.wait();
    assert!(summary.accepted >= 4, "{summary:?}");
    assert!(summary.requests >= 12, "{summary:?}");
}

/// Sessions share the process-wide live-outcome layer: a second
/// connection (its own session) loading a program the first one loaded
/// re-elaborates nothing and answers exactly as the first.
#[test]
fn a_second_connection_is_served_from_memory() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..quick_cfg()
    })
    .expect("start");
    let load = "{\"cmd\":\"load\",\"source\":\"val secondConnA = 20\\n\
                val secondConnB = secondConnA + 22\\n\
                val secondConnBad : int = \\\"s\\\"\"}";
    let queries = [
        "{\"cmd\":\"type\",\"name\":\"secondConnB\"}",
        "{\"cmd\":\"eval\",\"expr\":\"secondConnB + 1\"}",
    ];
    let diagnostics = |resp: &str| resp.split("\"diagnostics\":").nth(1).map(str::to_string);
    let mut first = Client::connect(server.addr());
    let cold = first.roundtrip(load);
    assert!(cold.contains("\"decls\":3,\"green\":0,\"red\":3"), "{cold}");
    assert!(cold.contains("E0400"), "{cold}");
    let first_answers: Vec<String> = queries.iter().map(|q| first.roundtrip(q)).collect();
    assert!(
        first_answers[1].contains("\"value\":\"43\""),
        "{first_answers:?}"
    );

    let mut second = Client::connect(server.addr());
    let warm = second.roundtrip(load);
    assert!(warm.contains("\"decls\":3,\"green\":3,\"red\":0"), "{warm}");
    assert_eq!(diagnostics(&warm), diagnostics(&cold));
    let second_answers: Vec<String> = queries.iter().map(|q| second.roundtrip(q)).collect();
    assert_eq!(second_answers, first_answers);
    server.start_drain();
    server.wait();
}

#[test]
fn oversized_and_malformed_lines_answered_like_serve_mode() {
    let server = Server::start(quick_cfg()).expect("start");
    let mut c = Client::connect(server.addr());
    // Far past the cap: structured error, connection survives.
    let mut big = vec![b'x'; 9 * 1024 * 1024];
    big.push(b'\n');
    c.writer.write_all(&big).expect("write big");
    let resp = c.recv();
    assert!(resp.contains("\"ok\":false") && resp.contains("limit"), "{resp}");
    let resp = c.roundtrip("this is not json");
    assert!(resp.contains("malformed"), "{resp}");
    let resp = c.roundtrip("{\"cmd\":\"stats\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("serve[accepted="), "{resp}");
    server.start_drain();
    server.wait();
}

#[test]
fn overload_sheds_with_structured_retry_hint() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    // One slow-but-legal load occupies the single worker…
    let body = (0..4_000)
        .map(|i| format!("F{i} = {i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut busy = Client::connect(addr);
    busy.send(&format!(
        "{{\"cmd\":\"load\",\"source\":\"val big = {{{body}}}\"}}"
    ));
    std::thread::sleep(Duration::from_millis(50));
    // …so a burst behind it must overflow the depth-1 queue and shed.
    let mut shed = 0;
    let mut others: Vec<Client> = (0..6).map(|_| Client::connect(addr)).collect();
    for c in &mut others {
        c.send("{\"cmd\":\"load\",\"source\":\"val y = 1\"}");
    }
    for c in &mut others {
        let resp = c.recv();
        if resp.contains("\"error\":\"overloaded\"") {
            assert!(resp.contains("\"retry_after_ms\":"), "{resp}");
            shed += 1;
        } else {
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
    }
    assert!(shed > 0, "a depth-1 queue under a 6-deep burst must shed");
    let resp = busy.recv();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    server.start_drain();
    let summary = server.wait();
    assert_eq!(summary.shed, shed, "{summary:?}");
}

#[test]
fn per_client_connection_cap_sheds_excess() {
    let cfg = ServeConfig {
        max_conns_per_client: 1,
        ..quick_cfg()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    let mut first = Client::connect(addr);
    let resp = first.roundtrip("{\"cmd\":\"stats\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // Same peer IP: the second connection is shed at admission.
    let mut second = Client::connect(addr);
    let resp = second.recv();
    assert!(resp.contains("\"error\":\"overloaded\""), "{resp}");
    server.start_drain();
    let summary = server.wait();
    assert!(summary.shed >= 1, "{summary:?}");
}

#[test]
fn shutdown_command_drains_and_summary_reports() {
    let server = Server::start(quick_cfg()).expect("start");
    let mut c = Client::connect(server.addr());
    let resp = c.roundtrip("{\"cmd\":\"load\",\"source\":\"val x = 3\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = c.roundtrip("{\"cmd\":\"shutdown\"}");
    assert!(resp.contains("\"draining\":true"), "{resp}");
    assert!(server.draining());
    let summary = server.wait();
    assert!(summary.accepted >= 1, "{summary:?}");
    assert!(summary.requests >= 1, "{summary:?}");
}

#[test]
fn a_client_shutdown_stops_the_acceptor_and_later_connects_are_refused() {
    let server = Server::start(quick_cfg()).expect("start");
    let addr = server.addr();
    let mut c = Client::connect(addr);
    let resp = c.roundtrip("{\"cmd\":\"shutdown\"}");
    assert!(resp.contains("\"draining\":true"), "{resp}");
    // The acceptor blocks in accept(); the drain must wake it, or wait()
    // never returns.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(server.wait()));
    let summary = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("wait() returns once a client's shutdown drains the server");
    assert_eq!(
        summary.accepted, 1,
        "the wake-up connect is not counted: {summary:?}"
    );
    assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
}

/// The slow load of `overload_sheds_with_structured_retry_hint`: it keeps
/// a worker busy long enough for requests to queue behind it.
fn slow_load() -> String {
    let body = (0..4_000)
        .map(|i| format!("F{i} = {i}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"cmd\":\"load\",\"source\":\"val big = {{{body}}}\"}}")
}

#[test]
fn a_request_expired_in_the_queue_reports_its_own_deadline() {
    let cfg = ServeConfig {
        workers: 1,
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    let (slow, mut busy) = (slow_load(), Client::connect(addr));
    let mut c = Client::connect(addr);
    // Whether the 1 ms request expires in the queue depends on the
    // schedule: retry until one does.
    let mut expired = None;
    for _ in 0..50 {
        busy.send(&slow);
        let resp = c.roundtrip("{\"cmd\":\"eval\",\"expr\":\"1 + 1\",\"deadline_ms\":1}");
        assert!(busy.recv().contains("\"ok\":true"));
        if resp.contains("\"error\":\"deadline_expired\"") {
            expired = Some(resp);
            break;
        }
    }
    let resp = expired.expect("a 1 ms request queued behind a slow load expires");
    assert!(resp.contains("\"deadline_ms\":1,"), "{resp}");
    server.start_drain();
    let summary = server.wait();
    assert!(summary.deadline_expired >= 1, "{summary:?}");
}

#[test]
fn durable_mode_snapshot_readers_see_acked_state() {
    let db_dir = std::env::temp_dir().join(format!(
        "ur-serve-e2e-db-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&db_dir);
    let cfg = ServeConfig {
        workers: 4,
        db_dir: Some(db_dir.clone()),
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    let mut w = Client::connect(addr);
    let resp = w.roundtrip("{\"cmd\":\"load\",\"source\":\"val x = 7\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"diagnostics\":[]"), "{resp}");
    // Read-only commands from other connections fan out to the
    // snapshot readers; every reader must see the acked script.
    let mut joins = Vec::new();
    for _ in 0..6 {
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            let resp = c.roundtrip("{\"cmd\":\"type\",\"name\":\"x\"}");
            assert!(resp.contains("\"type\":\"int\""), "{resp}");
            let resp = c.roundtrip("{\"cmd\":\"db\"}");
            assert!(resp.contains("\"ok\":true"), "{resp}");
            let resp = c.roundtrip("{\"cmd\":\"stats\"}");
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }));
    }
    for j in joins {
        j.join().expect("reader client");
    }
    // The writer keeps accepting mutations alongside the readers.
    let resp = w.roundtrip("{\"cmd\":\"eval\",\"expr\":\"x + 1\"}");
    assert!(resp.contains("\"value\":\"8\""), "{resp}");
    server.start_drain();
    server.wait();
    let _ = std::fs::remove_dir_all(&db_dir);
}

#[test]
fn durable_readers_answer_diagnostics_of_the_acked_load() {
    let db_dir = std::env::temp_dir().join(format!(
        "ur-serve-e2e-diags-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&db_dir);
    let cfg = ServeConfig {
        workers: 3,
        db_dir: Some(db_dir.clone()),
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    let mut w = Client::connect(addr);
    let resp = w.roundtrip("{\"cmd\":\"load\",\"source\":\"val x = 1 + \\\"a\\\"\"}");
    assert!(resp.contains("\"ok\":true") && resp.contains("E0400"), "{resp}");
    // `diagnostics` is read-only, so snapshot readers answer it — from
    // this connection and from others.
    let resp = w.roundtrip("{\"cmd\":\"diagnostics\"}");
    assert!(resp.contains("E0400"), "{resp}");
    for _ in 0..4 {
        let mut c = Client::connect(addr);
        let resp = c.roundtrip("{\"cmd\":\"diagnostics\"}");
        assert!(resp.contains("E0400"), "{resp}");
    }
    // A clean load clears them everywhere.
    let resp = w.roundtrip("{\"cmd\":\"load\",\"source\":\"val x = 1\"}");
    assert!(resp.contains("\"diagnostics\":[]"), "{resp}");
    let mut c = Client::connect(addr);
    let resp = c.roundtrip("{\"cmd\":\"diagnostics\"}");
    assert_eq!(resp, "{\"ok\":true,\"diagnostics\":[]}");
    server.start_drain();
    server.wait();
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// `val wide = {A0 = 0, …, A149 = 149} ++ {B0 = 0, …, B149 = 149}`: its
/// disjointness goal needs 150×150 prover pairs, far past what a 1 ms
/// deadline's fuel allows, while default limits elaborate it fine.
fn wide_concat_source() -> String {
    let fields = |prefix: &str, n: usize| {
        (0..n)
            .map(|i| format!("{prefix}{i} = {i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "val wide = {{{}}} ++ {{{}}}",
        fields("A", 150),
        fields("B", 150)
    )
}

#[test]
fn durable_readers_answer_what_the_writer_acknowledged() {
    let db_dir = std::env::temp_dir().join(format!("ur-serve-e2e-acked-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_dir);
    let cfg = ServeConfig {
        workers: 3,
        db_dir: Some(db_dir.clone()),
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    // Before any load, the readers answer the prelude's types: they wait
    // for the writer's first answers instead of racing its start-up.
    let prelude = ur_web::Session::new().expect("session");
    let insert_ty = ur_serve::protocol::type_of(&prelude, "insert").expect("prelude insert");
    let want = format!(
        "{{\"ok\":true,\"name\":\"insert\",\"type\":\"{}\"}}",
        ur_query::json::escape(&insert_ty)
    );
    for _ in 0..3 {
        let mut c = Client::connect(addr);
        assert_eq!(c.roundtrip("{\"cmd\":\"type\",\"name\":\"insert\"}"), want);
    }
    // The writer's load runs out of fuel at its 1 ms deadline, so the
    // acknowledged program binds no `wide`: no reader may report a type
    // for it.
    let mut w = Client::connect(addr);
    let resp = w.run_once_executed(&format!(
        "{{\"cmd\":\"load\",\"source\":\"{}\",\"deadline_ms\":1}}",
        wide_concat_source()
    ));
    assert!(
        resp.contains("\"ok\":true") && resp.contains("E0900"),
        "{resp}"
    );
    for _ in 0..3 {
        let mut c = Client::connect(addr);
        let resp = c.roundtrip("{\"cmd\":\"type\",\"name\":\"wide\"}");
        assert_eq!(resp, "{\"ok\":false,\"error\":\"no value named wide\"}");
        let resp = c.roundtrip("{\"cmd\":\"diagnostics\"}");
        assert!(resp.contains("E0900"), "{resp}");
    }
    server.start_drain();
    server.wait();
    let _ = std::fs::remove_dir_all(&db_dir);
}

#[test]
fn tiny_deadline_degrades_structurally() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut c = Client::connect(server.addr());
    let src = wide_concat_source();
    let resp = c.run_once_executed(&format!(
        "{{\"cmd\":\"load\",\"source\":\"{src}\",\"deadline_ms\":1}}"
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("E0900"), "{resp}");
    // The ceiling was per-request: the same session elaborates the
    // same program fine without the deadline.
    let resp = c.roundtrip(&format!("{{\"cmd\":\"load\",\"source\":\"{src}\"}}"));
    assert!(resp.contains("\"diagnostics\":[]"), "{resp}");
    server.start_drain();
    server.wait();
}

#[cfg(feature = "failpoints")]
mod faulted {
    use super::*;
    use ur_core::failpoint::{FpConfig, Site};

    #[test]
    fn wedged_worker_is_replaced_and_request_replayed() {
        // The fault schedule is deterministic per (seed, site, consult
        // index) and every worker thread starts its consult count at
        // zero. Seed 8 at 350‰ draws [pass, FIRE, …] for serve_wedge,
        // so the original worker serves the load (consult 0), wedges on
        // the eval (consult 1), and the replacement serves the replayed
        // eval cleanly on *its* consult 0. A schedule that fires on
        // consult 0 would wedge every replacement too — by design:
        // replay is bounded, not a retry loop.
        let cfg = ServeConfig {
            workers: 1,
            deadline_ms: 400,
            watchdog_ms: 100,
            fp: Some(FpConfig::new(8).with_rate(Site::ServeWedge, 350)),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).expect("start");
        let mut c = Client::connect(server.addr());
        // Acked state, then a request that trips the wedge. The
        // supervisor must replace the worker and replay (isolated-mode
        // requests are idempotent: the replacement rebuilds from the
        // acked script), so the client still gets a correct answer.
        let resp = c.roundtrip("{\"cmd\":\"load\",\"source\":\"val x = 9\"}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = c.roundtrip("{\"cmd\":\"eval\",\"expr\":\"x * 2\"}");
        assert!(resp.contains("\"value\":\"18\""), "{resp}");
        server.start_drain();
        let summary = server.wait();
        assert!(summary.worker_restarts >= 1, "{summary:?}");
        assert!(summary.faults.injected[Site::ServeWedge.index()] >= 1, "{summary:?}");
    }

    #[test]
    fn accept_and_read_faults_tear_connections_not_the_server() {
        // Seed 164: the acceptor (one thread, consult count persists
        // across accepts) drops connections intermittently at 500‰;
        // each connection handler (fresh thread, fresh consult count)
        // serves three reads and tears on the fourth at 300‰. A client
        // that reconnects through the tears keeps getting correct
        // answers — faults tear *connections*, never the server.
        let cfg = ServeConfig {
            deadline_ms: 5_000,
            fp: Some(
                FpConfig::new(164)
                    .with_rate(Site::ServeAccept, 500)
                    .with_rate(Site::ServeRead, 300)
                    .with_max_per_site(8),
            ),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).expect("start");
        let addr = server.addr();
        let mut answered = 0;
        let mut i = 0;
        for _attempt in 0..40 {
            if answered >= 8 {
                break;
            }
            let mut c = Client::connect(addr);
            loop {
                c.send(&format!("{{\"cmd\":\"load\",\"source\":\"val v = {i}\"}}"));
                i += 1;
                let mut line = String::new();
                match c.reader.read_line(&mut line) {
                    Ok(n) if n > 0 => {
                        assert!(line.contains("\"ok\":true"), "{line}");
                        assert!(line.contains("\"diagnostics\":[]"), "{line}");
                        answered += 1;
                        if answered >= 8 {
                            break;
                        }
                    }
                    // Torn by an injected accept/read fault: reconnect,
                    // as a real client would.
                    _ => break,
                }
            }
        }
        assert!(
            answered >= 8,
            "only {answered} answers through the fault storm"
        );
        server.start_drain();
        let summary = server.wait();
        let torn = summary.faults.injected[Site::ServeAccept.index()]
            + summary.faults.injected[Site::ServeRead.index()];
        assert!(torn > 0, "{summary:?}");
    }
}
