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
use std::fmt;

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

/// Counters of the storage engine, exposed by `Db::stats` and the
/// `:db` REPL command.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Explicit transactions committed.
    pub txn_commits: u64,
    /// Explicit transactions rolled back (including failed commits).
    pub txn_rollbacks: u64,
    /// Statements auto-committed outside an explicit transaction.
    pub auto_commits: u64,
    /// WAL records appended (including `Begin`/`Commit` frames).
    pub wal_records: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// fsyncs issued for WAL commits.
    pub wal_fsyncs: u64,
    /// WAL appends that failed (real I/O errors or injected faults).
    pub wal_append_errs: u64,
    /// Records replayed from the WAL at open.
    pub replayed_records: u64,
    /// Committed transactions recovered from the WAL at open.
    pub recovered_txns: u64,
    /// Torn/uncommitted tail bytes truncated at open.
    pub truncated_bytes: u64,
    /// Snapshots written (checkpoints).
    pub snapshots_written: u64,
    /// Snapshot writes that failed (the WAL is kept, no data is lost).
    pub snapshot_errs: u64,
    /// WAL rotations that failed after their snapshot landed (the handle
    /// is poisoned until a later checkpoint succeeds).
    pub rotate_errs: u64,
    /// 1 when the open loaded an on-disk snapshot.
    pub snapshot_loaded: u64,
    /// Bytes of a stale-generation WAL ignored at open — the log a crash
    /// stranded between a checkpoint's snapshot rename and its rotation;
    /// the snapshot already contains every transaction in it.
    pub stale_wal_ignored: u64,
    /// Statements executed through an index probe (equality or range).
    pub index_probes: u64,
    /// Statements executed as a full table scan.
    pub full_scans: u64,
    /// Scans chosen *despite* the table having indexes (float operands,
    /// no probeable conjunct) — planner fallbacks, each with a reason
    /// in the EXPLAIN line.
    pub planner_fallbacks: u64,
    /// Reads served by a read-only MVCC snapshot handle.
    pub snapshot_reads: u64,
    /// Superseded row versions reclaimed at checkpoints (counted once
    /// no published snapshot pinned them any longer).
    pub versions_gcd: u64,
}

impl fmt::Display for DbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txn[commits={} rollbacks={} auto={}] \
             wal[records={} bytes={} fsyncs={} errs={}] \
             recover[txns={} records={} truncated={} stale={} snapshot_loaded={}] \
             snap[written={} errs={} rotate_errs={}] \
             engine[probes={} scans={} fallbacks={} snap_reads={} gcd={}]",
            self.txn_commits,
            self.txn_rollbacks,
            self.auto_commits,
            self.wal_records,
            self.wal_bytes,
            self.wal_fsyncs,
            self.wal_append_errs,
            self.recovered_txns,
            self.replayed_records,
            self.truncated_bytes,
            self.stale_wal_ignored,
            self.snapshot_loaded,
            self.snapshots_written,
            self.snapshot_errs,
            self.rotate_errs,
            self.index_probes,
            self.full_scans,
            self.planner_fallbacks,
            self.snapshot_reads,
            self.versions_gcd,
        )
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
