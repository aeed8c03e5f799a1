//! Resilient concurrent serving for Ur sessions.
//!
//! `ur-serve` puts a multi-client TCP front door (`urc --listen ADDR`)
//! on the same line-delimited JSON protocol as `urc --serve`, backed by
//! a supervised pool of [`ur_web::Session`] workers. The paper's
//! metaprogramming pipeline is expensive and occasionally adversarial
//! (deep type-level computation, injected faults), so the serving layer
//! is built around four explicit policies rather than best-effort
//! threads:
//!
//! - **Admission / overload** ([`server`]): bounded queues and
//!   connection caps; excess load is *shed* with a structured
//!   `{"error":"overloaded","retry_after_ms":N}` answer, never buffered
//!   without bound.
//! - **Deadlines** ([`protocol`]): a per-request wall-clock budget maps
//!   onto the elaborator's fuel ceilings
//!   ([`ur_core::limits::Limits::for_deadline_ms`]), so over-budget
//!   work degrades to a structured E0900 diagnostic instead of
//!   wedging a worker.
//! - **Supervision** ([`pool`]): wedged or panicked workers are
//!   detected by watchdog timeouts, replaced (generation-checked), and
//!   their sessions rebuilt deterministically from the last
//!   acknowledged script — with a shared durable `ur-db` store healed
//!   via checkpoint-retry and adopted state, never double-applied.
//! - **Drain** ([`server::Server::wait`]): SIGTERM or a `shutdown`
//!   request stops admission, completes or deadlines-out in-flight
//!   work, checkpoints the store, and reports a final [`Summary`].
//!
//! The serve gauges surface through the same [`ur_core::stats::Stats`]
//! schema as the REPL's `:stats` and `urc --stats` (the `srv_*`
//! fields), and four failpoint sites (`serve_accept`, `serve_read`,
//! `serve_write`, `serve_wedge`) make the whole front door part of the
//! deterministic chaos surface.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod counters;
pub mod pool;
pub mod protocol;
pub mod reader;
pub mod server;
pub mod signal;

pub use counters::ServeCounters;
pub use protocol::{Control, ReqCtx, MAX_REQUEST};
pub use server::{Server, Summary};
pub use signal::{install_sigterm_handler, sigterm_received};

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use ur_core::failpoint::FpConfig;
use ur_eval::EvalEngine;

/// Configuration for a [`Server`]. `Default` gives the production
/// profile; tests and the bench harness tighten the knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7788` (port 0 picks a free port —
    /// read it back from [`Server::addr`]).
    pub addr: String,
    /// Pool workers. In durable mode (`db_dir` set) worker 0 is the
    /// single writer holding the store's flock; the rest are snapshot
    /// readers, holding no session, that answer `type`, `diagnostics`
    /// and `db` from what the writer publishes: its acknowledged
    /// program's answers and its MVCC snapshots.
    pub workers: usize,
    /// Bounded per-worker request queue; a full queue sheds.
    pub queue_depth: usize,
    /// Global live-connection cap; excess connections are shed.
    pub max_conns: usize,
    /// Per-client (peer IP) connection cap.
    pub max_conns_per_client: usize,
    /// Default per-request wall-clock budget (a request's own
    /// `deadline_ms` can only tighten it).
    pub deadline_ms: u64,
    /// Watchdog patience increment (see [`server::patience_ms`]).
    pub watchdog_ms: u64,
    /// Backoff hint included in shed responses.
    pub retry_after_ms: u64,
    /// Shared durable database directory (single-writer pool mode).
    pub db_dir: Option<PathBuf>,
    /// Has no effect (sessions share one in-memory live-outcome layer);
    /// kept only because the repository benchmark sets it.
    pub cache_dir: Option<PathBuf>,
    /// Evaluation engine override for sessions.
    pub engine: Option<EvalEngine>,
    /// Deterministic fault injection, installed in every serve thread
    /// (acceptor, handlers, workers). Inert without the `failpoints`
    /// feature.
    pub fp: Option<FpConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 16,
            max_conns: 64,
            max_conns_per_client: 64,
            deadline_ms: 2_000,
            watchdog_ms: 500,
            retry_after_ms: 50,
            db_dir: None,
            cache_dir: None,
            engine: None,
            fp: None,
        }
    }
}

/// Poison-tolerant mutex lock: serve state (counters, fault sinks, the
/// scripts map) stays meaningful across a panicking thread, and the
/// serving layer must keep running through exactly those panics.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
