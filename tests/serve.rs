//! End-to-end tests for `urc --serve` hardening, the `--listen` TCP
//! front door, and `--db-dir` durability wiring, driving the real
//! binary over pipes and sockets.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

fn urc() -> &'static str {
    env!("CARGO_BIN_EXE_urc")
}

fn spawn_serve(extra: &[&str]) -> Child {
    Command::new(urc())
        .arg("--serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn urc --serve")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ur-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn serve_survives_oversized_and_malformed_requests() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();

    // 1. A request far past the 8 MiB cap: answered with a structured
    //    error, never buffered whole, and the session stays up.
    let big = vec![b'x'; 9 * 1024 * 1024];
    stdin.write_all(&big).unwrap();
    stdin.write_all(b"\n").unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("limit"), "{resp}");

    // 2. Malformed JSON: a per-request error, not a teardown.
    stdin.write_all(b"this is not json\n").unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":false"), "{resp}");

    // 3. The same session still answers real requests.
    stdin.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");

    stdin.write_all(b"{\"cmd\":\"quit\"}\n").unwrap();
    stdin.flush().unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "{status:?}");
}

#[test]
fn serve_reports_db_and_elaborates_after_errors() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();

    // A load with a type error is a normal response with diagnostics.
    stdin
        .write_all(b"{\"cmd\":\"load\",\"source\":\"val bad : int = \\\"nope\\\"\"}\n")
        .unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"diagnostics\":["), "{resp}");

    // The db report names the in-memory mode.
    stdin.write_all(b"{\"cmd\":\"db\"}\n").unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("in-memory"), "{resp}");

    stdin.write_all(b"{\"cmd\":\"quit\"}\n").unwrap();
    stdin.flush().unwrap();
    assert!(child.wait().unwrap().success());
}

#[test]
fn db_dir_effects_survive_across_processes() {
    let dir = tmpdir("dbdir");
    let src_path = std::env::temp_dir().join(format!("ur-serve-src-{}.ur", std::process::id()));
    std::fs::write(
        &src_path,
        "val t = createTable \"people\" {Name = sqlString}\n\
         val u = insert t {Name = const \"alice\"}\n",
    )
    .unwrap();

    // First process: run the program with a durable database.
    let status = Command::new(urc())
        .args(["--db-dir", dir.to_str().unwrap(), src_path.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "first urc run failed");
    assert!(dir.join("wal.log").exists(), "no WAL was written");

    // Second process: a serve session over the same directory recovers
    // the committed row.
    let mut child = spawn_serve(&["--db-dir", dir.to_str().unwrap()]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    stdin.write_all(b"{\"cmd\":\"db\"}\n").unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("durable"), "{resp}");
    assert!(resp.contains("people: 1 row(s)"), "{resp}");
    stdin.write_all(b"{\"cmd\":\"quit\"}\n").unwrap();
    stdin.flush().unwrap();
    assert!(child.wait().unwrap().success());

    // An empty --db-dir means in-memory: nothing is read or written.
    let status = Command::new(urc())
        .args(["--db-dir", "", "--eval", "1 + 1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "empty --db-dir run failed");

    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pin for the serve-mode exit protocol: `quit` answers, then a final
/// `{"event":"final","stats":…}` line is flushed and the process exits
/// 0. Same on bare EOF — scripted drivers that just close the pipe
/// still get the session's counters.
#[test]
fn serve_flushes_final_stats_on_quit_and_eof() {
    // Quit path.
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    stdin
        .write_all(b"{\"cmd\":\"load\",\"source\":\"val x = 1\"}\n{\"cmd\":\"quit\"}\n")
        .unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = lines.next().unwrap().unwrap();
    assert_eq!(resp, "{\"ok\":true}", "quit ack first");
    let fin = lines.next().unwrap().unwrap();
    assert!(fin.contains("\"event\":\"final\""), "{fin}");
    assert!(fin.contains("\"stats\":\""), "{fin}");
    assert!(lines.next().is_none(), "final line is last");
    assert!(child.wait().unwrap().success());

    // EOF path: no quit, just a closed pipe.
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    stdin.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    drop(stdin);
    let fin = lines.next().unwrap().unwrap();
    assert!(fin.contains("\"event\":\"final\""), "{fin}");
    assert!(child.wait().unwrap().success(), "EOF must exit 0");
}

/// Satellite: deadline budgets degrade structurally (E0900 in the
/// response diagnostics) instead of hanging or crashing the process.
#[test]
fn serve_deadline_degrades_to_e0900() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let fields = |prefix: &str| {
        (0..150)
            .map(|i| format!("{prefix}{i} = {i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let src = format!("val wide = {{{}}} ++ {{{}}}", fields("A"), fields("B"));
    let req = format!("{{\"cmd\":\"load\",\"source\":\"{src}\",\"deadline_ms\":1}}\n");
    stdin.write_all(req.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("E0900"), "{resp}");
    // The ceiling was per-request: the same source elaborates clean
    // without the deadline, in the same session.
    let req = format!("{{\"cmd\":\"load\",\"source\":\"{src}\"}}\n");
    stdin.write_all(req.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let resp = lines.next().unwrap().unwrap();
    assert!(resp.contains("\"diagnostics\":[]"), "{resp}");
    stdin.write_all(b"{\"cmd\":\"quit\"}\n").unwrap();
    stdin.flush().unwrap();
    assert!(child.wait().unwrap().success());
}

/// Satellite: `DbError::Locked` contention from a *child process* is
/// absorbed by bounded-backoff retry (`UR_DB_LOCK_WAIT_MS`), and fails
/// fast when the budget is zero.
#[test]
fn db_lock_contention_retries_with_bounded_backoff() {
    let dir = tmpdir("lock-retry");
    // Seed the directory, then hold its lock from a helper process (a
    // serve session holds the flock until quit).
    let status = Command::new(urc())
        .args(["--db-dir", dir.to_str().unwrap(), "--eval", "1 + 1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let mut holder = spawn_serve(&["--db-dir", dir.to_str().unwrap()]);
    let mut holder_in = holder.stdin.take().unwrap();
    let mut holder_lines = BufReader::new(holder.stdout.take().unwrap()).lines();
    holder_in.write_all(b"{\"cmd\":\"db\"}\n").unwrap();
    holder_in.flush().unwrap();
    let resp = holder_lines.next().unwrap().unwrap();
    assert!(resp.contains("durable"), "holder not durable: {resp}");

    // Zero budget: the contender must fail fast with the lock error.
    let out = Command::new(urc())
        .args(["--db-dir", dir.to_str().unwrap(), "--eval", "1 + 1"])
        .env("UR_DB_LOCK_WAIT_MS", "0")
        .output()
        .unwrap();
    assert!(!out.status.success(), "zero-budget contender must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lock") || err.contains("Locked"), "{err}");

    // Generous budget: the contender retries while we release the
    // holder, then wins the lock and succeeds.
    let contender = Command::new(urc())
        .args(["--db-dir", dir.to_str().unwrap(), "--eval", "2 + 2"])
        .env("UR_DB_LOCK_WAIT_MS", "15000")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    holder_in.write_all(b"{\"cmd\":\"quit\"}\n").unwrap();
    holder_in.flush().unwrap();
    assert!(holder.wait().unwrap().success());
    let status = contender.wait_with_output().unwrap().status;
    assert!(status.success(), "contender must win the lock after release");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `urc --listen 127.0.0.1:0` and returns the child plus the
/// resolved address parsed from the `{"listening":…}` banner.
fn spawn_listen(extra: &[&str]) -> (Child, std::net::SocketAddr, impl Iterator<Item = String>) {
    spawn_listen_env(extra, &[])
}

fn spawn_listen_env(
    extra: &[&str],
    env: &[(&str, &str)],
) -> (Child, std::net::SocketAddr, impl Iterator<Item = String>) {
    let mut child = Command::new(urc())
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn urc --listen");
    let mut lines = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map(|l| l.expect("stdout line"));
    let banner = lines.next().expect("listening banner");
    let addr = banner
        .split('"')
        .nth(3)
        .expect("addr in banner")
        .parse()
        .expect("parse addr");
    (child, addr, lines)
}

#[test]
fn listen_serves_tcp_clients_and_drains_on_shutdown() {
    let (mut child, addr, mut lines) = spawn_listen(&["--pool", "2"]);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut roundtrip = |req: &str| -> String {
        writeln!(writer, "{req}").expect("write");
        let mut out = String::new();
        reader.read_line(&mut out).expect("read");
        out.trim_end().to_string()
    };
    let resp = roundtrip("{\"cmd\":\"load\",\"source\":\"val x = 20\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = roundtrip("{\"cmd\":\"eval\",\"expr\":\"x + 1\"}");
    assert!(resp.contains("\"value\":\"21\""), "{resp}");
    // `stats` folds the serve gauges into the one Stats schema.
    let resp = roundtrip("{\"cmd\":\"stats\"}");
    assert!(resp.contains("serve[accepted="), "{resp}");
    let resp = roundtrip("{\"cmd\":\"shutdown\"}");
    assert!(resp.contains("\"draining\":true"), "{resp}");
    // The process prints its final summary line and exits 0.
    let fin = lines.next().expect("final line");
    assert!(fin.contains("\"event\":\"final\""), "{fin}");
    assert!(fin.contains("\"accepted\":"), "{fin}");
    assert!(child.wait().unwrap().success());
}

#[cfg(unix)]
#[test]
fn listen_drains_gracefully_on_sigterm() {
    let (mut child, addr, mut lines) = spawn_listen(&[]);
    // A served request, so the final summary has something to report.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{{\"cmd\":\"load\",\"source\":\"val x = 5\"}}").expect("write");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill");
    assert!(kill.success());
    let fin = lines.next().expect("final line after SIGTERM");
    assert!(fin.contains("\"event\":\"final\""), "{fin}");
    assert!(child.wait().unwrap().success(), "SIGTERM must exit 0");
}

/// Hostile requests, one `urc --listen` process: types that are
/// exponential trees over a few shared nodes, an evaluation that nests
/// past its depth budget, and ASTs as deep as the input is long. Each is
/// answered, within its deadline or with a structured error; no worker
/// is lost, and a new connection is served afterwards.
#[test]
fn listen_answers_hostile_requests_without_losing_a_worker() {
    // The evaluation depth budget and the 1,000-long application spine
    // are sized for release frames; a debug build's frames are several
    // times larger, so its workers get the stacks to match.
    let env: &[(&str, &str)] = if cfg!(debug_assertions) {
        &[("RUST_MIN_STACK", "33554432")]
    } else {
        &[]
    };
    let (mut child, addr, mut lines) = spawn_listen_env(&["--pool", "1"], env);
    let connect = || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };
    let roundtrip =
        |(reader, writer): &mut (BufReader<std::net::TcpStream>, std::net::TcpStream),
         req: &str|
         -> String {
            writeln!(writer, "{req}").expect("write");
            let mut out = String::new();
            reader.read_line(&mut out).expect("read");
            assert!(
                !out.contains("lost to a worker restart"),
                "{req:.80}: {out}"
            );
            out.trim_end().to_string()
        };
    let ids = |n: usize| vec!["id"; n].join(" ");
    let nest = format!("{}x{}", "d (".repeat(30), ")".repeat(30));
    let mut conn = connect();
    let resp = roundtrip(
        &mut conn,
        &format!(
            "{{\"cmd\":\"load\",\"source\":\"val id = fn [a] (x : a) => x\\n\
             val d = fn [a] (x : a) => {{A = x, B = x}}\\n\
             val f = fn [t] (x : t) => {nest}\\nval g = f 1\\n\
             val twice = fn [a] (f : a -> a) (x : a) => f (f x)\\n\
             val inc = fn (n : int) => n + 1\"}}"
        ),
    );
    assert!(
        resp.contains("\"red\":6") && resp.contains("\"diagnostics\":[]"),
        "{resp}"
    );
    let resp = roundtrip(
        &mut conn,
        &format!(
            "{{\"cmd\":\"eval\",\"expr\":\"{} 1\",\"deadline_ms\":100}}",
            ids(50)
        ),
    );
    assert_eq!(resp, "{\"ok\":true,\"value\":\"1\"}");
    let resp = roundtrip(
        &mut conn,
        &format!("{{\"cmd\":\"eval\",\"expr\":\"{} 1\"}}", ids(1_000)),
    );
    assert!(
        resp == "{\"ok\":true,\"value\":\"1\"}" || resp.contains("E0900"),
        "{resp}"
    );
    let resp = roundtrip(
        &mut conn,
        "{\"cmd\":\"eval\",\"expr\":\"twice twice twice twice twice inc 0\"}",
    );
    assert!(
        resp.contains("\"ok\":false") && resp.contains("nested too deep"),
        "{resp}"
    );
    let resp = roundtrip(
        &mut conn,
        "{\"cmd\":\"eval\",\"expr\":\"twice twice twice twice inc 0\"}",
    );
    assert_eq!(resp, "{\"ok\":true,\"value\":\"65536\"}");
    let chain = format!("1{}", " + 1".repeat(999));
    let resp = roundtrip(
        &mut conn,
        &format!("{{\"cmd\":\"eval\",\"expr\":\"{chain}\"}}"),
    );
    assert!(
        resp.contains("\"ok\":false") && resp.contains("nesting too deep"),
        "{resp}"
    );
    let dollars = "$".repeat(200_000);
    let resp = roundtrip(
        &mut conn,
        &format!("{{\"cmd\":\"eval\",\"expr\":\"(1 : {dollars}int)\"}}"),
    );
    assert!(
        resp.contains("\"ok\":false") && resp.contains("nesting too deep"),
        "{resp}"
    );
    drop(conn);

    let mut fresh = connect();
    let resp = roundtrip(&mut fresh, "{\"cmd\":\"eval\",\"expr\":\"1 + 2\"}");
    assert_eq!(resp, "{\"ok\":true,\"value\":\"3\"}");
    let resp = roundtrip(&mut fresh, "{\"cmd\":\"shutdown\"}");
    assert!(resp.contains("\"draining\":true"), "{resp}");
    let fin = lines.next().expect("final line");
    assert!(fin.contains("\"worker_restarts\":0"), "{fin}");
    assert!(child.wait().unwrap().success());
}
