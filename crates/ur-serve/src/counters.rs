//! Cross-thread serve counters.
//!
//! The serve layer spans many threads (acceptor, connection handlers,
//! pool workers) while [`ur_core::stats::Stats`] is a plain
//! struct owned by whichever session snapshots it. [`ServeCounters`] is
//! the bridge: lock-free atomics every serve thread bumps, folded into
//! a `Stats` snapshot at observation points (`stats` responses, the
//! final drain line) so the REPL, `--stats`, and serve all report one
//! schema.

use crate::Summary;
use std::sync::atomic::{AtomicU64, Ordering};
use ur_core::stats::Stats;

/// Shared atomic counters for the serve front door, bumped with
/// `fetch_add(1, Ordering::Relaxed)`: each is a statistic that publishes
/// no other data. Field meanings mirror the `srv_*` counters in
/// [`Stats`].
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted past the admission caps.
    pub accepted: AtomicU64,
    /// Requests admitted to a worker queue.
    pub requests: AtomicU64,
    /// Requests/connections shed (queue full, conn caps, draining).
    pub shed: AtomicU64,
    /// Requests answered with a deadline-expiry degradation.
    pub deadline_expired: AtomicU64,
    /// In-flight requests completed during graceful drain.
    pub drained: AtomicU64,
}

impl ServeCounters {
    pub fn new() -> ServeCounters {
        ServeCounters::default()
    }

    /// The counters' current values, with no fault totals.
    pub fn summary(&self) -> Summary {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Summary {
            accepted: load(&self.accepted),
            requests: load(&self.requests),
            shed: load(&self.shed),
            deadline_expired: load(&self.deadline_expired),
            drained: load(&self.drained),
            ..Summary::default()
        }
    }

    /// Copies the counters into `stats`' `srv_*` fields (overwriting: the
    /// counters are process-wide truth, not per-session deltas).
    pub fn fold_into(&self, stats: &mut Stats) {
        let s = self.summary();
        stats.srv_accepted = s.accepted;
        stats.srv_requests = s.requests;
        stats.srv_shed = s.shed;
        stats.srv_deadline_expired = s.deadline_expired;
        stats.srv_drained = s.drained;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_into_overwrites_srv_fields() {
        let c = ServeCounters::new();
        for (counter, n) in [
            (&c.accepted, 2),
            (&c.requests, 3),
            (&c.shed, 4),
            (&c.deadline_expired, 5),
            (&c.drained, 7),
        ] {
            counter.fetch_add(n, Ordering::Relaxed);
        }
        let mut s = Stats::new();
        s.srv_accepted = 99;
        c.fold_into(&mut s);
        assert_eq!(s.srv_accepted, 2);
        assert_eq!(s.srv_requests, 3);
        assert_eq!(s.srv_shed, 4);
        assert_eq!(s.srv_deadline_expired, 5);
        assert_eq!(s.srv_drained, 7);
        assert!(s.to_string().contains("serve[accepted=2"));
    }
}
