//! The TCP front door: admission control, deadlines, and graceful drain
//! over the session pool.
//!
//! Every connection gets a handler thread that reads line-delimited
//! JSON requests (same schema as `urc --serve`), applies the admission
//! policy, and hands admitted requests to a worker queue, waiting for
//! the worker's answer. The policies, all explicit and bounded:
//!
//! - **Admission.** A global connection cap and a per-client (per peer
//!   IP) cap shed excess connections with a structured `overloaded`
//!   response; worker queues are bounded (`try_send` — a full queue
//!   sheds the *request*, never buffers it); draining sheds everything
//!   new. Nothing in the front door buffers without bound.
//! - **Deadlines.** Each request carries an absolute deadline fixed at
//!   admission (`min(server default, request's deadline_ms)`). Workers
//!   convert the remaining budget into a fuel ceiling that bounds both
//!   elaboration and evaluation, so over-budget work ends in a
//!   structured E0900 on the same worker; requests that expire in the
//!   queue get `deadline_expired` answers. Fuel bounds every request, so
//!   the handler waits for its answer without a timer.
//! - **Drain.** `shutdown` (or SIGTERM via `urc --listen`) stops
//!   admission, lets in-flight work finish or deadline out, closes the
//!   pool (final checkpoints), and reports a final [`Summary`]. The
//!   acceptor blocks in `accept()`; the drain wakes it with a loopback
//!   connect, and it exits, closing the listener.
//!
//! Each request line is decoded once, at admission; the decoded request
//! travels with its job to the worker.

use crate::counters::ServeCounters;
use crate::pool::{Job, Pool};
use crate::protocol::{self, Request, MAX_REQUEST};
use crate::reader::read_capped_line;
use crate::{lock, ServeConfig};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ur_core::failpoint::{self, FpCounters, Site};
use ur_query::json::parse_flat_object;

/// Final serving report, returned by [`Server::wait`].
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub accepted: u64,
    pub requests: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    /// Always 0: no worker is ever replaced. Kept, with its field in
    /// [`Summary::to_json`], because the repository benchmark reads it.
    pub worker_restarts: u64,
    pub drained: u64,
    /// Fault-injection totals across acceptor, handlers, and workers
    /// (all-zero without the `failpoints` feature).
    pub faults: FpCounters,
}

impl Summary {
    /// The summary as one JSON line (the final line `urc --listen`
    /// prints before exiting).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ok\":true,\"event\":\"final\",\"accepted\":{},\"requests\":{},\
             \"shed\":{},\"deadline_expired\":{},\"worker_restarts\":{},\"drained\":{}}}",
            self.accepted,
            self.requests,
            self.shed,
            self.deadline_expired,
            self.worker_restarts,
            self.drained
        )
    }
}

/// A running serve front door. Dropping it does **not** stop serving;
/// call [`Server::start_drain`] then [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    pool: Arc<Pool>,
    counters: Arc<ServeCounters>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `cfg.addr` and starts the acceptor and the pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and the failure to spawn a worker.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let counters = Arc::new(ServeCounters::new());
        let pool = Pool::start(cfg, Arc::clone(&counters))?;
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let pool = Arc::clone(&pool);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("ur-serve-accept".to_string())
                .spawn(move || accept_loop(listener, addr, pool, handlers))
                .ok()
        };
        Ok(Server {
            addr,
            pool,
            counters,
            acceptor,
            handlers,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// Begins graceful drain: stop admitting, finish or deadline-out
    /// in-flight work. Idempotent.
    pub fn start_drain(&self) {
        drain(&self.pool, self.addr);
    }

    /// True once a drain has begun (via [`Server::start_drain`] or a
    /// client `shutdown` command).
    pub fn draining(&self) -> bool {
        self.pool
            .shared
            .draining
            .load(Ordering::SeqCst)
    }

    /// Waits for the drain to complete — acceptor gone, every handler
    /// finished, pool checkpointed and joined — and returns the final
    /// summary. Call after [`Server::start_drain`] (or rely on a client
    /// `shutdown`); blocks until then.
    pub fn wait(mut self) -> Summary {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        loop {
            let hs: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.handlers));
            if hs.is_empty() {
                break;
            }
            for h in hs {
                let _ = h.join();
            }
        }
        self.pool.shutdown();
        let mut faults = *lock(&self.pool.shared.faults);
        faults.absorb(&failpoint::take_counters());
        Summary {
            faults,
            ..self.counters.summary()
        }
    }
}

/// Begins the drain, then wakes the acceptor blocked in `accept()` on
/// `addr` with a connect of its own (to loopback when `addr` is
/// unspecified): the acceptor sees the flag and exits, closing the
/// listener, so later connects are refused. Should that connect fail
/// (say, the process is out of file descriptors), the acceptor exits on
/// the next connection instead.
fn drain(pool: &Pool, addr: SocketAddr) {
    pool.start_drain();
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    pool: Arc<Pool>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    if let Some(fp) = pool.shared.cfg.fp {
        failpoint::install(Some(fp));
    }
    let live: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    let per_ip: Arc<Mutex<HashMap<IpAddr, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut next_conn: u64 = 0;
    loop {
        let accepted = listener.accept();
        // The drain's wake-up connect, like any connection arriving after
        // the drain began, is dropped uncounted.
        if pool.shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let (stream, peer) = match accepted {
            Ok(s) => s,
            // A real accept error (EMFILE and the like): back off instead
            // of spinning.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if failpoint::fire(Site::ServeAccept) {
            // Injected accept-time death: the connection vanishes before
            // a handler ever owns it. Clients observe EOF and retry.
            drop(stream);
            continue;
        }
        // Request/response ping-pong: Nagle + delayed ACK would add
        // ~40ms to every one-line answer.
        let _ = stream.set_nodelay(true);
        let cfg = &pool.shared.cfg;
        let over_global = live.load(Ordering::SeqCst) >= cfg.max_conns as u64;
        let over_client = *lock(&per_ip).entry(peer.ip()).or_insert(0)
            >= cfg.max_conns_per_client as u64;
        if over_global || over_client {
            pool.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            shed_and_close(stream, retry_hint_ms(&pool));
            continue;
        }
        *lock(&per_ip).entry(peer.ip()).or_insert(0) += 1;
        live.fetch_add(1, Ordering::SeqCst);
        pool.shared
            .counters
            .accepted
            .fetch_add(1, Ordering::Relaxed);
        let conn = next_conn;
        next_conn += 1;
        let pool = Arc::clone(&pool);
        let live = Arc::clone(&live);
        let per_ip = Arc::clone(&per_ip);
        let h = std::thread::Builder::new()
            .name(format!("ur-serve-conn-{conn}"))
            .spawn(move || {
                handle_conn(&pool, addr, conn, stream);
                live.fetch_sub(1, Ordering::SeqCst);
                let mut m = lock(&per_ip);
                if let Some(n) = m.get_mut(&peer.ip()) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        m.remove(&peer.ip());
                    }
                }
            })
            .ok();
        if let Some(h) = h {
            lock(&handlers).push(h);
        }
    }
    // Shipped for the final summary: the acceptor's own fault counters.
    let c = failpoint::take_counters();
    lock(&pool.shared.faults).absorb(&c);
}

/// The retry hint handed to shed clients: the configured hint divided
/// by the pool depth. With N workers draining bounded queues in
/// parallel a slot frees up roughly N times as fast, and durable mode's
/// snapshot readers count — they absorb the read-only traffic that used
/// to serialise behind the single writer — so the hint stays honest
/// instead of quoting the single-worker wait.
fn retry_hint_ms(pool: &Arc<Pool>) -> u64 {
    (pool.shared.cfg.retry_after_ms / pool.workers() as u64).max(1)
}

fn shed_and_close(mut stream: TcpStream, retry_after_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = writeln!(stream, "{}", protocol::overloaded_response(retry_after_ms, false));
}

fn handle_conn(pool: &Arc<Pool>, addr: SocketAddr, conn: u64, stream: TcpStream) {
    if let Some(fp) = pool.shared.cfg.fp {
        failpoint::install(Some(fp));
    }
    serve_conn(pool, addr, conn, &stream);
    // Connection epilogue: release the worker-side session (bounded
    // best-effort — a full queue only delays the cleanup, and a global
    // durable session is never dropped) and this handler's fault
    // counters.
    if pool.shared.cfg.db_dir.is_none() {
        let (_wid, tx) = pool.handle_for_routed(conn, false);
        for _ in 0..5 {
            match tx.try_send(Job::Close { conn }) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => break,
                Err(TrySendError::Full(_)) => {
                    std::thread::sleep(Duration::from_millis(10))
                }
            }
        }
        lock(&pool.shared.scripts).remove(&conn);
    }
    let c = failpoint::take_counters();
    lock(&pool.shared.faults).absorb(&c);
}

fn serve_conn(pool: &Arc<Pool>, addr: SocketAddr, conn: u64, stream: &TcpStream) {
    let cfg = &pool.shared.cfg;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    let draining = || pool.shared.draining.load(Ordering::SeqCst);
    loop {
        let line = match read_capped_line(&mut reader, MAX_REQUEST, &draining) {
            Ok(Some((line, truncated))) => {
                if failpoint::fire(Site::ServeRead) {
                    // Injected torn read: the line is untrustworthy and
                    // the connection is torn down cleanly, unanswered.
                    return;
                }
                if truncated {
                    let _ = writeln!(writer, "{}", protocol::oversize_response());
                    continue;
                }
                line
            }
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        // The one decode of the line. Malformed requests, quit, and
        // shutdown are answered here without spending a queue slot; the
        // rest go to a worker decoded.
        let Some(req) = parse_flat_object(&line) else {
            let _ = writeln!(writer, "{}", protocol::malformed_response());
            continue;
        };
        match req.get("cmd").map(String::as_str) {
            Some("quit") => {
                let _ = writeln!(writer, "{{\"ok\":true}}");
                return;
            }
            Some("shutdown") => {
                drain(pool, addr);
                let _ = writeln!(writer, "{{\"ok\":true,\"draining\":true}}");
                continue;
            }
            _ => {}
        }
        if draining() {
            pool.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            let _ = writeln!(
                writer,
                "{}",
                protocol::overloaded_response(retry_hint_ms(pool), true)
            );
            return;
        }
        let deadline_ms = req
            .get("deadline_ms")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map_or(cfg.deadline_ms, |d| d.min(cfg.deadline_ms));
        // In durable mode `type`, `diagnostics` and `db` fan out to the
        // snapshot readers, which answer them without a session from what
        // the writer last acknowledged, instead of queueing behind the
        // writer. `stats` reports a session, so it goes to the writer.
        let read_only = protocol::is_snapshot_read(req.get("cmd").map(String::as_str));
        let resp = shepherd(pool, conn, req, deadline_ms, read_only);
        if failpoint::fire(Site::ServeWrite) {
            // Injected write failure after execution: effects (if any)
            // are applied but the ack is lost — the acked-vs-applied
            // ambiguity clients must tolerate.
            return;
        }
        if writeln!(writer, "{resp}").is_err() {
            return;
        }
    }
}

/// Submits one admitted request and waits for its answer. A full queue
/// sheds it. A worker answers every job it dequeues, so a queue or reply
/// channel that closes unanswered means the worker stopped, and the
/// outcome is unknown.
fn shepherd(
    pool: &Arc<Pool>,
    conn: u64,
    req: Request,
    deadline_ms: u64,
    read_only: bool,
) -> String {
    let (_wid, tx) = pool.handle_for_routed(conn, read_only);
    let (reply_tx, reply_rx) = sync_channel::<String>(1);
    let job = Job::Request {
        conn,
        req,
        deadline: Instant::now() + Duration::from_millis(deadline_ms),
        deadline_ms,
        reply: reply_tx,
    };
    match tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            pool.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            return protocol::overloaded_response(retry_hint_ms(pool), false);
        }
        Err(TrySendError::Disconnected(_)) => return protocol::lost_request_response(),
    }
    pool.shared
        .counters
        .requests
        .fetch_add(1, Ordering::Relaxed);
    reply_rx
        .recv()
        .unwrap_or_else(|_| protocol::lost_request_response())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_matches_the_golden_line() {
        let s = Summary {
            accepted: 1,
            requests: 2,
            shed: 3,
            deadline_expired: 4,
            worker_restarts: 5,
            drained: 6,
            faults: FpCounters::default(),
        };
        assert_eq!(
            s.to_json(),
            "{\"ok\":true,\"event\":\"final\",\"accepted\":1,\"requests\":2,\"shed\":3,\
             \"deadline_expired\":4,\"worker_restarts\":5,\"drained\":6}"
        );
    }
}
