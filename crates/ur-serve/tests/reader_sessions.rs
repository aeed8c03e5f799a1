//! A durable server's snapshot readers build no session. This is its own
//! test binary because arena leases are counted process-wide: every
//! `ur_web::Session` holds one, so the count is the number of live
//! sessions only while no other test runs in the process.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use ur_core::arena::lease_count;
use ur_serve::{ServeConfig, Server};

fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    lines
        .iter()
        .map(|line| {
            writeln!(stream, "{line}").expect("send");
            let mut out = String::new();
            reader.read_line(&mut out).expect("read");
            out.trim_end().to_string()
        })
        .collect()
}

#[test]
fn snapshot_readers_hold_no_session() {
    let scratch = std::env::temp_dir().join(format!("ur-serve-readers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cfg = ServeConfig {
        workers: 4,
        db_dir: Some(scratch.join("db")),
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();
    let load = "{\"cmd\":\"load\",\"source\":\"val t = createTable \\\"people\\\" \
                {Name = sqlString} val u = insert t {Name = const \\\"ada\\\"}\"}";
    let resp = roundtrip(addr, &[load]);
    assert!(
        resp[0].contains("\"ok\":true") && resp[0].contains("\"diagnostics\":[]"),
        "{resp:?}"
    );
    assert_eq!(lease_count(), 1, "only the writer holds a session");
    let joins: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                roundtrip(
                    addr,
                    &[
                        "{\"cmd\":\"type\",\"name\":\"u\"}",
                        "{\"cmd\":\"db\"}",
                        "{\"cmd\":\"stats\"}",
                    ],
                )
            })
        })
        .collect();
    for j in joins {
        let resp = j.join().expect("reader client");
        assert_eq!(resp[0], "{\"ok\":true,\"name\":\"u\",\"type\":\"unit\"}");
        assert!(resp[1].contains("people: 1 row(s)"), "{resp:?}");
        assert!(resp[2].contains("\"ok\":true"), "{resp:?}");
    }
    assert_eq!(lease_count(), 1, "the readers answered without a session");
    server.start_drain();
    server.wait();
    assert_eq!(
        lease_count(),
        0,
        "the writer's session ends with the server"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
