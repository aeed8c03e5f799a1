//! The TCP side: a default-configured `ur-serve` front door and the
//! closed-loop clients that drive it.

use crate::inputs::{Class, Expect, Req};
use crate::metrics::peak_rss_mb;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ur_serve::{ServeConfig, Server, Summary};

/// Starts a server with every knob at its default; only the deployment
/// paths (the shared disk cache, and the store in durable mode) are set.
pub fn start_server(cache: &Path, db: Option<&Path>) -> Result<Server, String> {
    Server::start(ServeConfig {
        cache_dir: Some(cache.to_path_buf()),
        db_dir: db.map(Path::to_path_buf),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Drains the server and waits until every thread it started has ended.
pub fn stop_server(server: Server) -> Summary {
    server.start_drain();
    server.wait()
}

/// One line-delimited JSON connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and waits for its one-line answer.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Closes the connection politely, so the server's handler ends
    /// before drain.
    pub fn quit(mut self) {
        let _ = self.roundtrip("{\"cmd\":\"quit\"}");
    }
}

/// One answered request of a closed-loop run.
pub struct Answer {
    pub class: Class,
    pub ms: f64,
    pub resp: String,
    pub expect: Expect,
}

/// A connection's request source.
pub trait Traffic: Send {
    fn next_req(&mut self) -> Req;
    /// Sees the answer to the request sent last.
    fn ack(&mut self, _resp: &str) {}
}

impl Traffic for crate::inputs::EditEvalStream {
    fn next_req(&mut self) -> Req {
        crate::inputs::EditEvalStream::next_req(self)
    }
}

impl Traffic for crate::inputs::RwStream {
    fn next_req(&mut self) -> Req {
        crate::inputs::RwStream::next_req(self)
    }

    fn ack(&mut self, resp: &str) {
        crate::inputs::RwStream::ack(self, resp);
    }
}

/// Closed-loop clients kept connected across the segments of a window:
/// each client sends its next request only after the previous answer
/// arrived. Between segments the clients are idle and the server keeps
/// its state.
pub struct Fleet<T> {
    conns: Vec<(Client, T)>,
    /// Per connection, its answers in send order.
    pub answers: Vec<Vec<Answer>>,
    /// Wall seconds spent in segments.
    seconds: f64,
    /// Intern-arena growth during segments, in bytes.
    arena_grown: u64,
    done: u64,
    rss_at: u64,
    /// Peak RSS when the `rss_at`-th request completed (or the first
    /// segment ended).
    rss: Option<f64>,
    pub errors: Vec<String>,
}

impl<T: Traffic> Fleet<T> {
    pub fn new(conns: Vec<(Client, T)>, rss_at: u64) -> Fleet<T> {
        Fleet {
            answers: conns.iter().map(|_| Vec::new()).collect(),
            conns,
            seconds: 0.0,
            arena_grown: 0,
            done: 0,
            rss_at,
            rss: None,
            errors: Vec::new(),
        }
    }

    /// Runs every client's closed loop for `seconds`, as the next
    /// segment. The peak RSS is read at the `rss_at`-th request, or at
    /// the end of the first segment if that comes sooner.
    pub fn run_for(&mut self, seconds: f64) {
        if !self.errors.is_empty() {
            return;
        }
        let done = AtomicU64::new(self.done);
        let rss = Mutex::new(self.rss);
        let rss_at = self.rss_at;
        let arena_before = ur_core::arena::stats().bytes;
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(seconds);
        let errors: Vec<Option<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.answers.iter_mut())
                .map(|((client, traffic), answers)| {
                    let (done, rss) = (&done, &rss);
                    scope.spawn(move || {
                        while Instant::now() < until {
                            let req = traffic.next_req();
                            let t = Instant::now();
                            let resp = match client.roundtrip(&req.line) {
                                Ok(r) => r,
                                Err(e) => return Some(e),
                            };
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            traffic.ack(&resp);
                            answers.push(Answer {
                                class: req.class,
                                ms,
                                resp,
                                expect: req.expect,
                            });
                            if done.fetch_add(1, Ordering::Relaxed) + 1 == rss_at {
                                *rss.lock().expect("rss probe lock") = Some(peak_rss_mb());
                            }
                        }
                        None
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.seconds += start.elapsed().as_secs_f64();
        self.arena_grown += ur_core::arena::stats().bytes.saturating_sub(arena_before);
        self.done = done.into_inner();
        self.rss = rss.into_inner().expect("rss probe lock");
        if self.rss.is_none() {
            self.rss = Some(peak_rss_mb());
        }
        self.errors.extend(errors.into_iter().flatten());
    }

    /// Closes every connection.
    pub fn close(self) {
        for (client, _) in self.conns {
            client.quit();
        }
    }

    /// Sends `final_line` on every connection (untimed) and closes them.
    pub fn finish(self, final_line: &str) -> Finished<T> {
        let mut streams = Vec::new();
        let mut finals = Vec::new();
        for (mut client, traffic) in self.conns {
            if let Ok(r) = client.roundtrip(final_line) {
                finals.push(r);
            }
            client.quit();
            streams.push(traffic);
        }
        Finished {
            streams,
            answers: self.answers,
            finals,
            peak_rss_mb: self.rss.unwrap_or_else(peak_rss_mb),
            seconds: self.seconds,
            arena_grown: self.arena_grown,
            errors: self.errors,
        }
    }
}

/// A finished window.
pub struct Finished<T> {
    /// The streams, positioned after the last request sent.
    pub streams: Vec<T>,
    /// Per connection, its answers in send order.
    pub answers: Vec<Vec<Answer>>,
    /// Per connection, the answer to the final line.
    pub finals: Vec<String>,
    /// Peak RSS when the `rss_at`-th request completed (or at the end).
    pub peak_rss_mb: f64,
    /// Wall seconds spent in the window's segments.
    pub seconds: f64,
    /// Intern-arena growth during the window's segments, in bytes.
    pub arena_grown: u64,
    pub errors: Vec<String>,
}
