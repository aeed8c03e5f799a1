//! Transaction state, durability configuration, and storage counters.
//!
//! Transactions are layered the same way for both backends: `begin`
//! takes an undo snapshot of the whole state (tables, sequences, log
//! length) and buffers WAL records; `commit` makes the buffered records
//! durable in one fsync'd WAL append (a no-op in memory); `rollback` —
//! or a failed commit — restores the undo snapshot. Statements outside
//! an explicit transaction auto-commit one record at a time.

use crate::table::Table;
use crate::wal::WalRecord;
use std::collections::HashMap;

/// Tunables of the durability layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Auto-checkpoint (snapshot + WAL reset) after this many committed
    /// WAL records; `0` disables automatic checkpoints.
    pub snapshot_every: u64,
    /// fsync every commit. Turning this off trades the durability of the
    /// last few transactions for throughput (benchmarks only); crash
    /// *consistency* is unaffected — recovery still sees a committed
    /// prefix.
    pub sync_commits: bool,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            snapshot_every: 4096,
            sync_commits: true,
        }
    }
}

ur_core::telemetry! {
    /// Counters of the storage engine, exposed by `Db::stats` and the
    /// `:db` REPL command.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct DbStats {
        /// Explicit transactions committed.
        txn_commits: counter "txn[commits={}",
        /// Explicit transactions rolled back (including failed commits).
        txn_rollbacks: counter " rollbacks={}",
        /// Statements auto-committed outside an explicit transaction.
        auto_commits: counter " auto={}]",
        /// WAL records appended (including `Begin`/`Commit` frames).
        wal_records: counter " wal[records={}",
        /// WAL bytes appended.
        wal_bytes: counter " bytes={}",
        /// fsyncs issued for WAL commits.
        wal_fsyncs: counter " fsyncs={}",
        /// WAL appends that failed (real I/O errors or injected faults).
        wal_append_errs: counter " errs={}]",
        /// Committed transactions recovered from the WAL at open.
        recovered_txns: counter " recover[txns={}",
        /// Records replayed from the WAL at open.
        replayed_records: counter " records={}",
        /// Torn/uncommitted tail bytes truncated at open.
        truncated_bytes: counter " truncated={}",
        /// Bytes of a stale-generation WAL ignored at open — the log a crash
        /// stranded between a checkpoint's snapshot rename and its rotation;
        /// the snapshot already contains every transaction in it.
        stale_wal_ignored: counter " stale={}",
        /// 1 when the open loaded an on-disk snapshot.
        snapshot_loaded: gauge " snapshot_loaded={}]",
        /// Snapshots written (checkpoints).
        snapshots_written: counter " snap[written={}",
        /// Snapshot writes that failed (the WAL is kept, no data is lost).
        snapshot_errs: counter " errs={}",
        /// WAL rotations that failed after their snapshot landed (the handle
        /// is poisoned until a later checkpoint succeeds).
        rotate_errs: counter " rotate_errs={}]",
        /// Statements executed through an index probe (equality or range).
        index_probes: counter " engine[probes={}",
        /// Statements executed as a full table scan.
        full_scans: counter " scans={}",
        /// Scans chosen *despite* the table having indexes (float operands,
        /// no probeable conjunct) — planner fallbacks, each with a reason
        /// in the EXPLAIN line.
        planner_fallbacks: counter " fallbacks={}",
        /// Reads served by a read-only MVCC snapshot handle.
        snapshot_reads: counter " snap_reads={}",
        /// Superseded row versions reclaimed at checkpoints (counted once
        /// no published snapshot pinned them any longer).
        versions_gcd: counter " gcd={}]",
    }
}

/// An open transaction: the undo snapshot plus the records to make
/// durable at commit.
#[derive(Clone, Debug)]
pub(crate) struct TxnState {
    /// Transaction id (monotone per database).
    pub id: u64,
    /// WAL records buffered since `begin`, in execution order.
    pub pending: Vec<WalRecord>,
    /// Tables as of `begin` (restored on rollback / failed commit).
    pub undo_tables: HashMap<String, Table>,
    /// Sequences as of `begin`.
    pub undo_sequences: HashMap<String, i64>,
    /// Statements logged as of `begin`, evicted ones included.
    pub undo_log_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_syncs_commits() {
        let c = DurabilityConfig::default();
        assert!(c.sync_commits);
        assert!(c.snapshot_every > 0);
    }

    #[test]
    fn stats_display_matches_the_golden_line() {
        // Each field holds its 1-based position in the original
        // declaration order.
        let s = DbStats {
            txn_commits: 1,
            txn_rollbacks: 2,
            auto_commits: 3,
            wal_records: 4,
            wal_bytes: 5,
            wal_fsyncs: 6,
            wal_append_errs: 7,
            replayed_records: 8,
            recovered_txns: 9,
            truncated_bytes: 10,
            snapshots_written: 11,
            snapshot_errs: 12,
            rotate_errs: 13,
            snapshot_loaded: 14,
            stale_wal_ignored: 15,
            index_probes: 16,
            full_scans: 17,
            planner_fallbacks: 18,
            snapshot_reads: 19,
            versions_gcd: 20,
        };
        assert_eq!(
            s.to_string(),
            "txn[commits=1 rollbacks=2 auto=3] wal[records=4 bytes=5 fsyncs=6 errs=7] \
             recover[txns=9 records=8 truncated=10 stale=15 snapshot_loaded=14] \
             snap[written=11 errs=12 rotate_errs=13] \
             engine[probes=16 scans=17 fallbacks=18 snap_reads=19 gcd=20]"
        );
    }

    #[test]
    fn stats_display_mentions_all_groups() {
        let s = DbStats::default().to_string();
        for key in [
            "txn[commits=",
            "wal[records=",
            "fsyncs=",
            "recover[txns=",
            "truncated=",
            "stale=",
            "snap[written=",
            "rotate_errs=",
            "engine[probes=",
            "scans=",
            "fallbacks=",
            "snap_reads=",
            "gcd=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
