//! The database engine: tables, sequences, DML operations, transactions,
//! a SQL-text query log, and an optional on-disk durability layer.
//!
//! The log records, for every operation, the SQL statement an Ur/Web
//! deployment would have sent to a real server — useful both for the
//! examples (showing generated SQL) and for the injection-safety tests
//! (asserting the statements are correctly escaped). It keeps the
//! newest [`SQL_LOG_CAP`] statements, so a long-lived session's log
//! (copied by every clone) stays bounded.
//!
//! ## Durability
//!
//! [`Db::new`] is the historical in-memory engine, unchanged.
//! [`Db::open`] backs the same API with a write-ahead log plus snapshot
//! compaction in a directory: every statement auto-commits one fsync'd
//! WAL transaction, or [`Db::begin`]/[`Db::commit`] group statements
//! into an explicit one. Reopening the directory always recovers
//! exactly the committed prefix (see `crate::recover`). The SQL-text
//! log is a per-session debug trace and is deliberately *not*
//! persisted. Cloning a durable `Db` shares the underlying WAL handle
//! (`Rc`), so a clone used as an undo snapshot (as `ur-web::Session`
//! does with its `World`) stays attached to the same files.
//!
//! Durable handles are **single-writer**: a writer epoch on the shared
//! handle tracks whose in-memory state the log's physical records were
//! computed against, and a clone whose state has fallen behind is
//! refused with [`DbError::StaleHandle`] rather than allowed to
//! interleave records that recovery would replay against the wrong
//! base. [`Db::persist_rebase`] transfers writership explicitly (the
//! undo-restore pattern). When the durable layer gets out of step with
//! memory — a failed re-anchor, a failed WAL rotation after its
//! snapshot landed — the handle is *poisoned*: appends fail with
//! [`DbError::Poisoned`] until a checkpoint succeeds and re-anchors
//! the log (each refused append first attempts that heal itself).

use crate::error::DbError;
use crate::expr::SqlExpr;
use crate::index::{Index, IndexDef};
use crate::mvcc::{DbSnapshot, MvccState};
use crate::plan::{self, Access, Plan};
use crate::recover::{self, Durable};
use crate::table::{Schema, Table};
use crate::txn::{DbStats, DurabilityConfig, TxnState};
use crate::value::DbVal;
use crate::wal::WalRecord;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use ur_core::failpoint::{self, Site};

/// Capacity of the bounded EXPLAIN ring ([`Db::plan_log`]).
const PLAN_LOG_CAP: usize = 8;

/// Capacity of the SQL-text log ([`Db::log`]), in statements.
pub const SQL_LOG_CAP: usize = 256;

/// A relational database: in-memory by default, durable when opened on
/// a directory with [`Db::open`].
#[derive(Clone, Debug, Default)]
pub struct Db {
    tables: HashMap<String, Table>,
    sequences: HashMap<String, i64>,
    log: Vec<String>,
    /// Statements evicted from the front of `log` to keep it at
    /// [`SQL_LOG_CAP`].
    log_dropped: u64,
    /// The WAL + checkpoint handle, shared between clones; `None` in
    /// the in-memory mode.
    durable: Option<Rc<RefCell<Durable>>>,
    /// The open explicit transaction, if any.
    txn: Option<TxnState>,
    stats: DbStats,
    /// Transaction-id allocator for the in-memory mode (durable mode
    /// allocates from the shared handle so ids survive reopen).
    next_mem_txn: u64,
    /// The shared writer epoch this handle's state corresponds to; a
    /// mismatch with `Durable::epoch` means another clone has written
    /// since, and this handle's appends are refused as stale.
    seen_epoch: u64,
    /// Disables index selection: every statement plans as a full scan.
    /// The probe/scan differential tests flip this; `false` (planner
    /// on) is the default.
    planner_off: bool,
    /// True for handles made by [`Db::read_only`]: every mutation is
    /// refused with [`DbError::ReadOnly`].
    read_only: bool,
    /// Bounded ring of the most recent EXPLAIN lines (oldest first).
    plan_log: Vec<String>,
    /// MVCC bookkeeping: committed-state epoch, snapshot cache, and the
    /// published-snapshot registry GC accounting runs against.
    mvcc: MvccState,
}

impl Db {
    pub fn new() -> Db {
        Db::default()
    }

    /// Opens (creating if needed) a durable database in `dir`: loads the
    /// last snapshot, replays the committed WAL prefix onto it, and
    /// truncates any torn or uncommitted tail.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem failures, [`DbError::Corrupt`] when
    /// the snapshot (or the WAL header) fails verification.
    pub fn open(dir: impl AsRef<Path>) -> Result<Db, DbError> {
        Db::open_with(dir, DurabilityConfig::default())
    }

    /// [`Db::open`] with explicit durability tunables.
    ///
    /// # Errors
    ///
    /// As [`Db::open`].
    pub fn open_with(dir: impl AsRef<Path>, config: DurabilityConfig) -> Result<Db, DbError> {
        let rec = recover::open_dir(dir.as_ref(), config)?;
        Ok(Db {
            tables: rec.tables,
            sequences: rec.sequences,
            log: Vec::new(),
            log_dropped: 0,
            durable: Some(Rc::new(RefCell::new(rec.durable))),
            txn: None,
            stats: rec.stats,
            next_mem_txn: 0,
            seen_epoch: 0,
            planner_off: false,
            read_only: false,
            plan_log: Vec::new(),
            mvcc: MvccState::default(),
        })
    }

    /// True when this handle is backed by a WAL on disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Storage-engine counters (WAL appends, fsyncs, recovery work,
    /// checkpoints) for this handle.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// Bytes in the WAL's committed prefix (0 in the in-memory mode).
    pub fn wal_len(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.borrow().wal.committed_len())
    }

    /// Generation number of the WAL (0 in the in-memory mode). Bumped
    /// by every checkpoint; pairs the log with its snapshot.
    pub fn wal_generation(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.borrow().wal.generation())
    }

    /// Why durable appends are currently refused, if they are (see
    /// [`DbError::Poisoned`]); `None` for a healthy or in-memory handle.
    pub fn poison_reason(&self) -> Option<String> {
        self.durable.as_ref().and_then(|d| d.borrow().poisoned.clone())
    }

    /// Attempts to heal a poisoned durable handle with one checkpoint
    /// (which re-anchors the log on the current in-memory state).
    ///
    /// # Errors
    ///
    /// [`DbError::Poisoned`] with the original reason and the heal
    /// failure when the checkpoint does not succeed.
    fn heal_poison(&mut self) -> Result<(), DbError> {
        let why = self.poison_reason();
        let Some(why) = why else { return Ok(()) };
        self.checkpoint_inner(false)
            .map_err(|e| DbError::Poisoned(format!("{why} (heal checkpoint failed: {e})")))
    }

    /// Fails with [`DbError::StaleHandle`] when another clone has
    /// written to the shared log since this handle last did.
    fn check_writer(&self) -> Result<(), DbError> {
        match &self.durable {
            Some(d) if d.borrow().epoch != self.seen_epoch => Err(DbError::StaleHandle),
            _ => Ok(()),
        }
    }

    /// Runs one mutation to completion: applies the physical record via
    /// the same interpreter recovery uses (so live execution and replay
    /// cannot diverge) and makes it durable according to the current
    /// mode — buffered in the open transaction, auto-committed through
    /// the WAL, or purely in memory.
    fn commit_effect(&mut self, rec: WalRecord, sql: String) -> Result<Option<i64>, DbError> {
        if self.read_only {
            return Err(DbError::ReadOnly);
        }
        if self.txn.is_some() {
            // Explicit transaction: apply now (the transaction reads its
            // own writes), persist at commit.
            let out = recover::apply_record(&mut self.tables, &mut self.sequences, &rec)?;
            self.log_sql(sql);
            if let Some(txn) = self.txn.as_mut() {
                txn.pending.push(rec);
            }
            return Ok(out);
        }
        if let Some(durable) = self.durable.clone() {
            // Auto-commit: WAL first, then the in-memory effect, so a
            // failed append leaves no trace at all. A stale clone is
            // refused before anything is allocated; a poisoned handle
            // first tries to re-anchor the log with a checkpoint.
            self.check_writer()?;
            self.heal_poison()?;
            let txn_id = {
                let mut d = durable.borrow_mut();
                let id = d.next_txn;
                d.next_txn += 1;
                id
            };
            {
                let mut d = durable.borrow_mut();
                let sync = d.config.sync_commits;
                d.wal
                    .append_txn(txn_id, std::slice::from_ref(&rec), sync, &mut self.stats)?;
                d.records_since_snapshot = d.records_since_snapshot.saturating_add(3);
                d.epoch += 1;
                self.seen_epoch = d.epoch;
            }
            let out = recover::apply_record(&mut self.tables, &mut self.sequences, &rec)?;
            self.log_sql(sql);
            self.stats.auto_commits = self.stats.auto_commits.saturating_add(1);
            self.mvcc.bump();
            self.maybe_checkpoint();
            return Ok(out);
        }
        let out = recover::apply_record(&mut self.tables, &mut self.sequences, &rec)?;
        self.log_sql(sql);
        self.mvcc.bump();
        Ok(out)
    }

    /// Opens an explicit transaction; returns its id.
    ///
    /// # Errors
    ///
    /// [`DbError::TxnActive`] when one is already open (no nesting).
    pub fn begin(&mut self) -> Result<u64, DbError> {
        if self.read_only {
            return Err(DbError::ReadOnly);
        }
        if self.txn.is_some() {
            return Err(DbError::TxnActive);
        }
        let id = match &self.durable {
            Some(d) => {
                let mut d = d.borrow_mut();
                let id = d.next_txn;
                d.next_txn += 1;
                id
            }
            None => {
                self.next_mem_txn += 1;
                self.next_mem_txn
            }
        };
        self.txn = Some(TxnState {
            id,
            pending: Vec::new(),
            undo_tables: self.tables.clone(),
            undo_sequences: self.sequences.clone(),
            undo_log_total: self.log_dropped + self.log.len() as u64,
        });
        Ok(id)
    }

    /// Commits the open transaction: one fsync'd WAL append of all its
    /// records (a no-op in memory). On a durable failure the transaction
    /// is rolled back — the in-memory state never runs ahead of the log.
    ///
    /// # Errors
    ///
    /// [`DbError::NoTxn`] without an open transaction; [`DbError::Io`]
    /// when the WAL append fails (the state is then as before `begin`);
    /// [`DbError::StaleHandle`]/[`DbError::Poisoned`] when this clone
    /// may not write (also rolled back).
    pub fn commit(&mut self) -> Result<(), DbError> {
        let txn = self.txn.take().ok_or(DbError::NoTxn)?;
        if let Some(durable) = self.durable.clone() {
            // The transaction's effects are already applied in memory
            // (it reads its own writes), so a failed durable step must
            // restore the undo snapshot before surfacing the error.
            let rollback = |db: &mut Db, e: DbError| {
                db.tables = txn.undo_tables.clone();
                db.sequences = txn.undo_sequences.clone();
                db.truncate_log(txn.undo_log_total);
                db.stats.txn_rollbacks = db.stats.txn_rollbacks.saturating_add(1);
                Err(e)
            };
            if let Err(e) = self.check_writer() {
                return rollback(self, e);
            }
            if self.poison_reason().is_some() {
                // Heal against the *pre-transaction* state: the heal
                // checkpoint's snapshot must not contain this
                // transaction's effects, because the append below can
                // still fail and roll them back — a snapshot holding
                // them would make an uncommitted transaction durable.
                let mut t = txn.undo_tables.clone();
                let mut s = txn.undo_sequences.clone();
                std::mem::swap(&mut self.tables, &mut t);
                std::mem::swap(&mut self.sequences, &mut s);
                let healed = self.heal_poison();
                std::mem::swap(&mut self.tables, &mut t);
                std::mem::swap(&mut self.sequences, &mut s);
                if let Err(e) = healed {
                    return rollback(self, e);
                }
            }
            let res = {
                let mut d = durable.borrow_mut();
                let sync = d.config.sync_commits;
                d.wal.append_txn(txn.id, &txn.pending, sync, &mut self.stats)
            };
            if let Err(e) = res {
                return rollback(self, e);
            }
            {
                let mut d = durable.borrow_mut();
                d.records_since_snapshot = d
                    .records_since_snapshot
                    .saturating_add(txn.pending.len() as u64 + 2);
                d.epoch += 1;
                self.seen_epoch = d.epoch;
            }
            self.stats.txn_commits = self.stats.txn_commits.saturating_add(1);
            self.mvcc.bump();
            self.maybe_checkpoint();
            return Ok(());
        }
        self.stats.txn_commits = self.stats.txn_commits.saturating_add(1);
        self.mvcc.bump();
        Ok(())
    }

    /// Rolls the open transaction back to the `begin` snapshot.
    ///
    /// # Errors
    ///
    /// [`DbError::NoTxn`] without an open transaction.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        let txn = self.txn.take().ok_or(DbError::NoTxn)?;
        self.tables = txn.undo_tables;
        self.sequences = txn.undo_sequences;
        self.truncate_log(txn.undo_log_total);
        self.stats.txn_rollbacks = self.stats.txn_rollbacks.saturating_add(1);
        Ok(())
    }

    /// Checkpoint compaction: writes the full state as a snapshot tagged
    /// with the next WAL generation, then rotates the WAL to it. A no-op
    /// in memory. A successful checkpoint also heals a poisoned handle —
    /// the fresh snapshot + empty log *are* the current state.
    ///
    /// # Errors
    ///
    /// [`DbError::TxnActive`] mid-transaction; [`DbError::StaleHandle`]
    /// from a clone that has fallen behind; [`DbError::Io`] when the
    /// snapshot write fails (the WAL is kept — nothing is lost) or the
    /// WAL rotation fails after its snapshot landed (the handle is then
    /// poisoned: appends to the superseded log would be ignored by
    /// recovery, so they are refused until a checkpoint succeeds).
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        self.checkpoint_inner(false)
    }

    /// [`Db::checkpoint`]; with `adopt` the handle first takes over
    /// writership (bumping the shared epoch) instead of requiring it —
    /// the `persist_rebase` path, where superseding the other clones'
    /// history is exactly the point.
    fn checkpoint_inner(&mut self, adopt: bool) -> Result<(), DbError> {
        if self.txn.is_some() {
            return Err(DbError::TxnActive);
        }
        let Some(durable) = self.durable.clone() else {
            // In-memory checkpoints still run the MVCC accounting pass.
            self.fold_gc();
            return Ok(());
        };
        if adopt {
            let mut d = durable.borrow_mut();
            d.epoch += 1;
            self.seen_epoch = d.epoch;
        } else {
            self.check_writer()?;
        }
        let mut d = durable.borrow_mut();
        let next_gen = d.wal.generation() + 1;
        if let Err(e) =
            crate::snapshot::write(&d.dir, &self.tables, &self.sequences, next_gen, d.crash_mode)
        {
            self.stats.snapshot_errs = self.stats.snapshot_errs.saturating_add(1);
            return Err(e);
        }
        // The snapshot for `next_gen` is on disk: from here until the
        // rotation lands, the old-generation WAL is stale — recovery
        // ignores it — so failing to rotate must poison the handle
        // rather than let appends vanish into the superseded log.
        if failpoint::fire(Site::WalRotate) {
            if d.crash_mode {
                std::process::abort();
            }
            d.poisoned =
                Some("injected WAL rotate failure after its snapshot landed".to_string());
            self.stats.rotate_errs = self.stats.rotate_errs.saturating_add(1);
            return Err(DbError::Io("injected WAL rotate failure".into()));
        }
        if let Err(e) = d.wal.rotate(next_gen) {
            d.poisoned = Some(format!(
                "WAL rotation to generation {next_gen} failed after its snapshot landed: {e}"
            ));
            self.stats.rotate_errs = self.stats.rotate_errs.saturating_add(1);
            return Err(e);
        }
        d.records_since_snapshot = 0;
        d.poisoned = None;
        self.stats.snapshots_written = self.stats.snapshots_written.saturating_add(1);
        drop(d);
        self.fold_gc();
        Ok(())
    }

    /// Checkpoint-time MVCC accounting: moves every table's superseded
    /// version count into the registry's pending pool, prunes dead
    /// snapshot handles, and folds the pool into `versions_gcd` once no
    /// published snapshot is live (the versions' memory was freed by
    /// the last `Arc` drop; this is when the engine can *count* them).
    fn fold_gc(&mut self) {
        let newly: u64 = self
            .tables
            .values_mut()
            .map(|t| std::mem::take(&mut t.superseded))
            .sum();
        self.mvcc.registry.note_dead(newly);
        let gcd = self.mvcc.registry.collect();
        self.stats.versions_gcd = self.stats.versions_gcd.saturating_add(gcd);
    }

    fn maybe_checkpoint(&mut self) {
        let due = match &self.durable {
            Some(d) => {
                let d = d.borrow();
                d.config.snapshot_every > 0
                    && d.records_since_snapshot >= d.config.snapshot_every
            }
            None => false,
        };
        if due && self.txn.is_none() {
            // Best-effort: a failed snapshot write keeps the WAL and is
            // retried after the next commit (counted in snapshot_errs);
            // a failed rotation poisons the handle, and the next append
            // retries the checkpoint as its heal.
            let _ = self.checkpoint();
        }
    }

    /// Re-anchors durability after the in-memory state was *restored*
    /// from a clone (the incremental engine's base-world rebuild, a
    /// session rollback): takes over writership of the shared handle,
    /// writes a snapshot of the restored state, and rotates the WAL, so
    /// a crash recovers the restored state rather than the abandoned
    /// history. On failure the handle is **poisoned** — the on-disk log
    /// still describes the abandoned history, so further appends are
    /// refused (each retrying the re-anchor first) rather than allowed
    /// to extend it; the failure is also counted in `snapshot_errs` /
    /// `rotate_errs`. A no-op in memory.
    pub fn persist_rebase(&mut self) {
        if self.durable.is_none() {
            return;
        }
        // A wholesale state restore abandons any open transaction.
        self.txn = None;
        if let Err(e) = self.checkpoint_inner(true) {
            if let Some(durable) = self.durable.clone() {
                let mut d = durable.borrow_mut();
                if d.poisoned.is_none() {
                    d.poisoned = Some(format!(
                        "re-anchor checkpoint after a state restore failed: {e}"
                    ));
                }
            }
        }
    }

    /// Grafts `state`'s relational contents (tables, sequences) onto
    /// this durable handle and re-anchors the on-disk log on them via
    /// [`Db::persist_rebase`], taking over writership. `ur-serve` uses
    /// this after a session rebuild: declarations were replayed into a
    /// fresh in-memory world, and the shared durable store must adopt
    /// that world as the new truth rather than have the replay appended
    /// on top of the old one (which would double-apply every effect).
    /// Failure poisons the handle exactly like `persist_rebase`; a
    /// no-op on in-memory handles.
    pub fn adopt_state(&mut self, state: &Db) {
        if self.durable.is_none() {
            return;
        }
        self.tables = state.tables.clone();
        self.sequences = state.sequences.clone();
        self.mvcc.bump();
        self.persist_rebase();
    }

    /// Deterministic full-state dump (tables sorted by name, rows in
    /// insertion order, sequences sorted): the oracle-comparison format
    /// of the crash harness.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for name in self.table_names() {
            if let Some(t) = self.tables.get(&name) {
                out.push_str(&format!("table {name} {}\n", t.schema));
                for row in &t.rows {
                    let vals: Vec<String> = row.iter().map(|v| v.to_sql()).collect();
                    out.push_str(&format!("  ({})\n", vals.join(", ")));
                }
            }
        }
        let mut seqs: Vec<(&String, &i64)> = self.sequences.iter().collect();
        seqs.sort();
        for (name, v) in seqs {
            out.push_str(&format!("sequence {name} = {v}\n"));
        }
        out
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::TableExists`] on duplicates.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let sql = format!("CREATE TABLE \"{name}\" {schema};");
        self.commit_effect(
            WalRecord::CreateTable {
                name: name.to_string(),
                schema,
            },
            sql,
        )?;
        Ok(())
    }

    /// Creates a sequence starting at 1 (idempotent). Infallible in the
    /// in-memory mode; in durable mode a WAL failure is swallowed after
    /// rolling the effect back — use [`Db::try_create_sequence`] to
    /// observe it.
    pub fn create_sequence(&mut self, name: &str) {
        let _ = self.try_create_sequence(name);
    }

    /// [`Db::create_sequence`], surfacing durable-layer failures.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] when the WAL append fails (no state change).
    pub fn try_create_sequence(&mut self, name: &str) -> Result<(), DbError> {
        let sql = format!("CREATE SEQUENCE \"{name}\";");
        self.commit_effect(
            WalRecord::CreateSequence {
                name: name.to_string(),
            },
            sql,
        )?;
        Ok(())
    }

    /// Returns the next value of a sequence, then increments it.
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::UnknownSequence`] when absent.
    pub fn nextval(&mut self, name: &str) -> Result<i64, DbError> {
        if !self.sequences.contains_key(name) {
            return Err(DbError::UnknownSequence(name.to_string()));
        }
        let sql = format!("SELECT NEXTVAL('\"{name}\"');");
        match self.commit_effect(
            WalRecord::Nextval {
                name: name.to_string(),
            },
            sql,
        )? {
            Some(v) => Ok(v),
            None => Err(DbError::Corrupt("nextval yielded no value".into())),
        }
    }

    /// The schema of a table.
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::UnknownTable`] when absent.
    pub fn schema(&self, table: &str) -> Result<&Schema, DbError> {
        self.tables
            .get(table)
            .map(|t| &t.schema)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))
    }

    fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Creates an ordered secondary index `name` on `table (column)`
    /// and builds it over the existing rows. Durable: the WAL record is
    /// replayed at the same point in the stream, so a recovered index
    /// is rebuilt over exactly the rows live execution saw.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`]/[`DbError::UnknownColumn`] when the
    /// target does not exist, [`DbError::IndexExists`] on a duplicate
    /// name, plus the durable-layer errors of any statement.
    pub fn create_index(&mut self, name: &str, table: &str, column: &str) -> Result<(), DbError> {
        let t = self.table(table)?;
        if t.index_defs().iter().any(|d| d.name == name) {
            return Err(DbError::IndexExists(name.to_string()));
        }
        Index::resolve_col(t.schema.columns(), column)?;
        let sql = format!("CREATE INDEX \"{name}\" ON \"{table}\" (\"{column}\");");
        self.commit_effect(
            WalRecord::CreateIndex {
                name: name.to_string(),
                table: table.to_string(),
                column: column.to_string(),
            },
            sql,
        )?;
        Ok(())
    }

    /// Definitions of the secondary indexes on `table`.
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::UnknownTable`] when absent.
    pub fn indexes(&self, table: &str) -> Result<Vec<IndexDef>, DbError> {
        Ok(self.table(table)?.index_defs())
    }

    /// Enables or disables the access-path planner. With the planner
    /// off every statement runs as a full scan; result sets must be
    /// identical either way (the differential tests gate on it).
    pub fn set_planner(&mut self, enabled: bool) {
        self.planner_off = !enabled;
    }

    /// True when index selection is active (the default).
    pub fn planner_enabled(&self) -> bool {
        !self.planner_off
    }

    /// The most recent EXPLAIN lines (oldest first, bounded ring).
    pub fn plan_log(&self) -> &[String] {
        &self.plan_log
    }

    /// The plan the engine would use for a statement over `table` with
    /// predicate `pred`, rendered as the machine-readable single-line
    /// JSON EXPLAIN. Does not execute anything or touch the plan log.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or ill-typed predicate.
    pub fn explain(&self, table: &str, pred: &SqlExpr) -> Result<String, DbError> {
        let t = self.table(table)?;
        pred.check(&t.schema)?;
        Ok(self.plan_for(table, t, pred).explain())
    }

    /// Cross-checks every secondary index against a fresh rebuild from
    /// its table's rows; `Err` describes the first divergence. The
    /// post-recovery oracle of the crash harness: maintained and
    /// replayed indexes must always equal the from-scratch rebuild.
    ///
    /// # Errors
    ///
    /// The divergence description, when one exists.
    pub fn verify_indexes(&self) -> Result<(), String> {
        for name in self.table_names() {
            if let Some(t) = self.tables.get(&name) {
                if let Some(d) = t.index_divergence() {
                    return Err(format!("table {name}: {d}"));
                }
            }
        }
        Ok(())
    }

    /// Publishes an immutable [`DbSnapshot`] of the last **committed**
    /// state (mid-transaction, that is the `begin` snapshot): a
    /// handle-copy of the `Arc`-shared tables, cached per epoch —
    /// repeated publishes between commits return the same `Arc` — and
    /// registered for the checkpoint GC accounting.
    pub fn publish_snapshot(&mut self) -> Arc<DbSnapshot> {
        if let Some(s) = &self.mvcc.cache {
            if s.epoch() == self.mvcc.epoch {
                return Arc::clone(s);
            }
        }
        let (tables, sequences) = match &self.txn {
            Some(t) => (&t.undo_tables, &t.undo_sequences),
            None => (&self.tables, &self.sequences),
        };
        let snap = Arc::new(DbSnapshot {
            epoch: self.mvcc.epoch,
            tables: tables.clone(),
            sequences: sequences.clone(),
        });
        self.mvcc.registry.register(&snap);
        self.mvcc.cache = Some(Arc::clone(&snap));
        snap
    }

    /// An in-memory read-only handle over a published snapshot: reads
    /// observe exactly the snapshot's committed state (counted as
    /// `snapshot_reads`), every mutation is refused with
    /// [`DbError::ReadOnly`]. The snapshot is `Send + Sync`; the handle
    /// is not — build it *inside* the reader thread.
    pub fn read_only(snap: &Arc<DbSnapshot>) -> Db {
        Db {
            tables: snap.tables.clone(),
            sequences: snap.sequences.clone(),
            read_only: true,
            mvcc: MvccState {
                epoch: snap.epoch(),
                ..MvccState::default()
            },
            ..Db::default()
        }
    }

    /// True for handles made by [`Db::read_only`].
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Plans the access path for a statement, honoring the planner
    /// toggle.
    fn plan_for(&self, table: &str, t: &Table, pred: &SqlExpr) -> Plan {
        if self.planner_off {
            plan::scan_plan(table, t)
        } else {
            plan::plan(table, t, pred)
        }
    }

    /// Records an executed plan: engine counters plus the EXPLAIN ring.
    fn note_plan(&mut self, plan: &Plan) {
        match plan.access {
            Access::FullScan => {
                self.stats.full_scans = self.stats.full_scans.saturating_add(1);
            }
            _ => {
                self.stats.index_probes = self.stats.index_probes.saturating_add(1);
            }
        }
        if plan.fallback.is_some() {
            self.stats.planner_fallbacks = self.stats.planner_fallbacks.saturating_add(1);
        }
        if self.plan_log.len() >= PLAN_LOG_CAP {
            self.plan_log.remove(0);
        }
        self.plan_log.push(plan.explain());
    }

    /// Inserts a row given as (column, value-expression) pairs; the
    /// expressions may not reference columns (Ur/Web types them in the
    /// empty environment, `exp []`).
    ///
    /// # Errors
    ///
    /// Fails on unknown table/columns or a type-invalid row.
    pub fn insert(&mut self, table: &str, values: &[(String, SqlExpr)]) -> Result<(), DbError> {
        let schema = self.table(table)?.schema.clone();
        let empty = Schema::new(vec![])?;
        let mut row = vec![DbVal::Null; schema.len()];
        let mut provided = vec![false; schema.len()];
        for (col, e) in values {
            let idx = schema
                .index_of(col)
                .ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
            row[idx] = e.eval(&empty, &[])?;
            provided[idx] = true;
        }
        for (i, p) in provided.iter().enumerate() {
            if !p && !schema.columns()[i].1.nullable() {
                return Err(DbError::TypeError(format!(
                    "column {} has no value and is not nullable",
                    schema.columns()[i].0
                )));
            }
        }
        schema.check_row(&row)?;
        let cols: Vec<String> = values.iter().map(|(c, _)| format!("\"{c}\"")).collect();
        let vals: Vec<String> = values.iter().map(|(_, e)| e.to_sql()).collect();
        let sql = format!(
            "INSERT INTO \"{table}\" ({}) VALUES ({});",
            cols.join(", "),
            vals.join(", ")
        );
        self.commit_effect(
            WalRecord::Insert {
                table: table.to_string(),
                row,
            },
            sql,
        )?;
        Ok(())
    }

    /// Deletes all rows satisfying `pred`; returns the number removed.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or ill-typed predicate.
    pub fn delete(&mut self, table: &str, pred: &SqlExpr) -> Result<usize, DbError> {
        if self.read_only {
            return Err(DbError::ReadOnly);
        }
        let t = self.table(table)?;
        pred.check(&t.schema)?;
        let plan = self.plan_for(table, t, pred);
        let removed: Vec<u64> = matching_positions(t, pred, &plan.access)?
            .into_iter()
            .map(|i| i as u64)
            .collect();
        let n = removed.len();
        self.note_plan(&plan);
        let sql = format!("DELETE FROM \"{table}\" WHERE {};", pred.to_sql());
        self.commit_effect(
            WalRecord::Delete {
                table: table.to_string(),
                removed,
            },
            sql,
        )?;
        Ok(n)
    }

    /// Updates the given columns on all rows satisfying `pred`; returns
    /// the number of rows changed. Value expressions may reference the
    /// row's current columns.
    ///
    /// # Errors
    ///
    /// Fails on unknown table/columns or ill-typed expressions.
    pub fn update(
        &mut self,
        table: &str,
        changes: &[(String, SqlExpr)],
        pred: &SqlExpr,
    ) -> Result<usize, DbError> {
        if self.read_only {
            return Err(DbError::ReadOnly);
        }
        let t = self.table(table)?;
        let schema = t.schema.clone();
        pred.check(&schema)?;
        let mut idxs = Vec::new();
        for (col, e) in changes {
            let idx = schema
                .index_of(col)
                .ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
            e.check(&schema)?;
            idxs.push(idx);
        }
        let plan = self.plan_for(table, t, pred);
        let mut mods: Vec<(u64, Vec<DbVal>)> = Vec::new();
        for i in matching_positions(t, pred, &plan.access)? {
            let row = &t.rows[i];
            let mut new_row = row.to_vec();
            for ((_, e), idx) in changes.iter().zip(&idxs) {
                new_row[*idx] = e.eval(&schema, row)?;
            }
            schema.check_row(&new_row)?;
            mods.push((i as u64, new_row));
        }
        let changed = mods.len();
        self.note_plan(&plan);
        let sets: Vec<String> = changes
            .iter()
            .map(|(c, e)| format!("\"{c}\" = {}", e.to_sql()))
            .collect();
        let sql = format!(
            "UPDATE \"{table}\" SET {} WHERE {};",
            sets.join(", "),
            pred.to_sql()
        );
        self.commit_effect(
            WalRecord::Update {
                table: table.to_string(),
                changes: mods,
            },
            sql,
        )?;
        Ok(changed)
    }

    /// Returns (a copy of) all rows satisfying `pred`, in insertion order.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or ill-typed predicate.
    pub fn select(&mut self, table: &str, pred: &SqlExpr) -> Result<Vec<Vec<DbVal>>, DbError> {
        let t = self.table(table)?;
        pred.check(&t.schema)?;
        let plan = self.plan_for(table, t, pred);
        let out: Vec<Vec<DbVal>> = matching_positions(t, pred, &plan.access)?
            .into_iter()
            .map(|i| t.rows[i].to_vec())
            .collect();
        self.note_plan(&plan);
        if self.read_only {
            self.stats.snapshot_reads = self.stats.snapshot_reads.saturating_add(1);
        }
        self.log_sql(format!(
            "SELECT * FROM \"{table}\" WHERE {};",
            pred.to_sql()
        ));
        Ok(out)
    }

    /// Returns rows satisfying `pred`, ordered ascending by `order_col`,
    /// skipping `offset` rows and returning at most `limit`.
    ///
    /// # Errors
    ///
    /// Fails on unknown table/column, ill-typed predicate, or an
    /// unorderable column.
    pub fn select_ordered(
        &mut self,
        table: &str,
        pred: &SqlExpr,
        order_col: &str,
        offset: usize,
        limit: usize,
    ) -> Result<Vec<Vec<DbVal>>, DbError> {
        let t = self.table(table)?;
        let schema = t.schema.clone();
        pred.check(&schema)?;
        let idx = schema
            .index_of(order_col)
            .ok_or_else(|| DbError::UnknownColumn(order_col.to_string()))?;
        let plan = self.plan_for(table, t, pred);
        let mut matching: Vec<Vec<DbVal>> = matching_positions(t, pred, &plan.access)?
            .into_iter()
            .map(|i| t.rows[i].to_vec())
            .collect();
        self.note_plan(&plan);
        if self.read_only {
            self.stats.snapshot_reads = self.stats.snapshot_reads.saturating_add(1);
        }
        // Stable sort; NULLs last, as in SQL's default NULLS LAST.
        matching.sort_by(|a, b| match a[idx].sql_cmp(&b[idx]) {
            Some(o) => o,
            None => match (&a[idx], &b[idx]) {
                (DbVal::Null, DbVal::Null) => std::cmp::Ordering::Equal,
                (DbVal::Null, _) => std::cmp::Ordering::Greater,
                (_, DbVal::Null) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Equal,
            },
        });
        self.log_sql(format!(
            "SELECT * FROM \"{table}\" WHERE {} ORDER BY \"{order_col}\" \
             LIMIT {limit} OFFSET {offset};",
            pred.to_sql()
        ));
        Ok(matching.into_iter().skip(offset).take(limit).collect())
    }

    /// Number of rows in a table.
    ///
    /// # Errors
    ///
    /// Fails on unknown table.
    pub fn row_count(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.table(table)?.rows.len())
    }

    /// The newest SQL statements issued, oldest first (at most
    /// [`SQL_LOG_CAP`]; see [`Db::log_dropped`]).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// How many earlier statements the log dropped to stay bounded.
    pub fn log_dropped(&self) -> u64 {
        self.log_dropped
    }

    fn log_sql(&mut self, sql: String) {
        if self.log.len() >= SQL_LOG_CAP {
            self.log.remove(0);
            self.log_dropped += 1;
        }
        self.log.push(sql);
    }

    /// Drops the statements logged after the first `total` (a rolled-back
    /// transaction's); those already evicted stay gone.
    fn truncate_log(&mut self, total: u64) {
        self.log_dropped = self.log_dropped.min(total);
        self.log.truncate((total - self.log_dropped) as usize);
    }

    /// Names of all tables (sorted, for deterministic output).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Positions (ascending) of the rows satisfying the full predicate,
/// visiting only the plan's candidates. A probe yields a candidate
/// *superset*: the complete predicate is re-evaluated on every
/// candidate row, never skipped, so planner-on and planner-off return
/// identical result sets (and surface identical row-level evaluation
/// errors for the rows a probe visits). A plan whose index has
/// vanished degrades to the scan, not to an empty result.
fn matching_positions(t: &Table, pred: &SqlExpr, access: &Access) -> Result<Vec<usize>, DbError> {
    let schema = &t.schema;
    let scan = |out: &mut Vec<usize>| -> Result<(), DbError> {
        for (i, row) in t.rows.iter().enumerate() {
            if matches!(pred.eval(schema, row)?, DbVal::Bool(true)) {
                out.push(i);
            }
        }
        Ok(())
    };
    let mut out = Vec::new();
    match access {
        Access::FullScan => scan(&mut out)?,
        Access::IndexEq { column, key, .. } => match t.index_on(column) {
            Some(idx) => {
                for &pos in idx.probe_eq(key) {
                    if matches!(pred.eval(schema, &t.rows[pos])?, DbVal::Bool(true)) {
                        out.push(pos);
                    }
                }
            }
            None => scan(&mut out)?,
        },
        Access::IndexRange { column, lo, hi, .. } => {
            let like = lo.as_ref().or(hi.as_ref()).map(|(v, _)| v);
            match (t.index_on(column), like) {
                (Some(idx), Some(like)) => {
                    let lo_b = lo.as_ref().map(|(v, incl)| (v, *incl));
                    let hi_b = hi.as_ref().map(|(v, incl)| (v, *incl));
                    for pos in idx.probe_range(lo_b, hi_b, like) {
                        if matches!(pred.eval(schema, &t.rows[pos])?, DbVal::Bool(true)) {
                            out.push(pos);
                        }
                    }
                }
                _ => scan(&mut out)?,
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColTy;

    fn two_col_db() -> Db {
        let mut db = Db::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ("A".into(), ColTy::Int),
                ("B".into(), ColTy::Str),
            ])
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn ins(db: &mut Db, a: i64, b: &str) {
        db.insert(
            "t",
            &[
                ("A".into(), SqlExpr::lit(DbVal::Int(a))),
                ("B".into(), SqlExpr::lit(DbVal::Str(b.into()))),
            ],
        )
        .unwrap();
    }

    #[test]
    fn insert_and_select_roundtrip() {
        let mut db = two_col_db();
        ins(&mut db, 1, "x");
        ins(&mut db, 2, "y");
        let rows = db
            .select("t", &SqlExpr::lit(DbVal::Bool(true)))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![DbVal::Int(1), DbVal::Str("x".into())]);
    }

    #[test]
    fn select_with_predicate() {
        let mut db = two_col_db();
        ins(&mut db, 1, "x");
        ins(&mut db, 2, "y");
        let pred = SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(2)));
        let rows = db.select("t", &pred).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], DbVal::Str("y".into()));
    }

    #[test]
    fn delete_removes_matching() {
        let mut db = two_col_db();
        ins(&mut db, 1, "x");
        ins(&mut db, 2, "y");
        ins(&mut db, 3, "z");
        let pred = SqlExpr::Lt(
            Box::new(SqlExpr::col("A")),
            Box::new(SqlExpr::lit(DbVal::Int(3))),
        );
        assert_eq!(db.delete("t", &pred).unwrap(), 2);
        assert_eq!(db.row_count("t").unwrap(), 1);
    }

    #[test]
    fn update_changes_matching_rows() {
        let mut db = two_col_db();
        ins(&mut db, 1, "x");
        ins(&mut db, 2, "y");
        let pred = SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(1)));
        let changed = db
            .update(
                "t",
                &[(
                    "B".into(),
                    SqlExpr::lit(DbVal::Str("updated".into())),
                )],
                &pred,
            )
            .unwrap();
        assert_eq!(changed, 1);
        let rows = db.select("t", &pred).unwrap();
        assert_eq!(rows[0][1], DbVal::Str("updated".into()));
    }

    #[test]
    fn update_sees_old_row_values() {
        // UPDATE t SET A = A + 1 — expressions reference the pre-update row.
        let mut db = two_col_db();
        ins(&mut db, 10, "x");
        let bump = SqlExpr::Add(
            Box::new(SqlExpr::col("A")),
            Box::new(SqlExpr::lit(DbVal::Int(1))),
        );
        db.update("t", &[("A".into(), bump)], &SqlExpr::lit(DbVal::Bool(true)))
            .unwrap();
        let rows = db
            .select("t", &SqlExpr::lit(DbVal::Bool(true)))
            .unwrap();
        assert_eq!(rows[0][0], DbVal::Int(11));
    }

    #[test]
    fn insert_missing_non_nullable_fails() {
        let mut db = two_col_db();
        let err = db
            .insert("t", &[("A".into(), SqlExpr::lit(DbVal::Int(1)))])
            .unwrap_err();
        assert!(matches!(err, DbError::TypeError(_)));
    }

    #[test]
    fn insert_wrong_type_fails() {
        let mut db = two_col_db();
        let err = db
            .insert(
                "t",
                &[
                    ("A".into(), SqlExpr::lit(DbVal::Str("no".into()))),
                    ("B".into(), SqlExpr::lit(DbVal::Str("x".into()))),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::TypeError(_)));
    }

    #[test]
    fn nullable_columns_accept_null() {
        let mut db = Db::new();
        db.create_table(
            "v",
            Schema::new(vec![
                ("K".into(), ColTy::Int),
                ("D".into(), ColTy::Nullable(Box::new(ColTy::Str))),
            ])
            .unwrap(),
        )
        .unwrap();
        db.insert("v", &[("K".into(), SqlExpr::lit(DbVal::Int(1)))])
            .unwrap();
        let rows = db
            .select("v", &SqlExpr::is_null(SqlExpr::col("D")))
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn sequences() {
        let mut db = Db::new();
        db.create_sequence("s");
        assert_eq!(db.nextval("s").unwrap(), 1);
        assert_eq!(db.nextval("s").unwrap(), 2);
        assert!(db.nextval("missing").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = two_col_db();
        let err = db
            .create_table("t", Schema::new(vec![]).unwrap())
            .unwrap_err();
        assert!(matches!(err, DbError::TableExists(_)));
    }

    #[test]
    fn query_log_records_escaped_sql() {
        let mut db = two_col_db();
        ins(&mut db, 1, "Robert'); DROP TABLE Students;--");
        let log = db.log().join("\n");
        assert!(log.contains("INSERT INTO \"t\""));
        // The malicious quote is doubled in the log.
        assert!(log.contains("Robert''); DROP TABLE Students;--"));
    }

    #[test]
    fn query_log_keeps_the_newest_statements() {
        let mut db = two_col_db();
        let n = SQL_LOG_CAP as i64 + 100;
        for a in 0..n {
            ins(&mut db, a, "kept");
        }
        assert_eq!(db.log().len(), SQL_LOG_CAP);
        assert_eq!(db.log_dropped(), 101, "create table plus the 100 oldest inserts");
        let last = format!("VALUES ({}, 'kept');", n - 1);
        assert!(db.log().last().unwrap().ends_with(&last), "{:?}", db.log().last());

        // A rolled-back transaction's statements leave the log, even
        // when the transaction pushed older statements out of it.
        db.begin().unwrap();
        for a in 0..10 {
            ins(&mut db, 1_000 + a, "undone");
        }
        db.rollback().unwrap();
        assert_eq!(db.log().len(), SQL_LOG_CAP - 10);
        assert!(db.log().last().unwrap().ends_with(&last));
        db.begin().unwrap();
        for a in 0..2 * SQL_LOG_CAP as i64 {
            ins(&mut db, 2_000 + a, "undone");
        }
        db.rollback().unwrap();
        assert!(db.log().is_empty());
        assert_eq!(db.log_dropped(), n as u64 + 1, "every statement before the transaction");
        ins(&mut db, 5_000, "after");
        assert_eq!(db.log().len(), 1);
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Db::new();
        db.create_table("zz", Schema::new(vec![]).unwrap()).unwrap();
        db.create_table("aa", Schema::new(vec![]).unwrap()).unwrap();
        assert_eq!(db.table_names(), vec!["aa".to_string(), "zz".to_string()]);
    }

    #[test]
    fn in_memory_txn_commit_keeps_and_rollback_restores() {
        let mut db = two_col_db();
        ins(&mut db, 1, "kept");
        db.begin().unwrap();
        ins(&mut db, 2, "committed");
        db.commit().unwrap();
        assert_eq!(db.row_count("t").unwrap(), 2);

        db.begin().unwrap();
        ins(&mut db, 3, "doomed");
        db.create_sequence("s");
        let log_len = db.log().len();
        db.rollback().unwrap();
        assert_eq!(db.row_count("t").unwrap(), 2);
        assert!(db.nextval("s").is_err(), "sequence rolled back");
        assert!(db.log().len() < log_len, "log rolled back too");
        assert_eq!(db.stats().txn_commits, 1);
        assert_eq!(db.stats().txn_rollbacks, 1);
    }

    #[test]
    fn txn_misuse_yields_stable_errors() {
        let mut db = two_col_db();
        assert_eq!(db.commit().unwrap_err(), DbError::NoTxn);
        assert_eq!(db.rollback().unwrap_err(), DbError::NoTxn);
        db.begin().unwrap();
        assert_eq!(db.begin().unwrap_err(), DbError::TxnActive);
        db.commit().unwrap();
        assert!(!db.in_txn());
        assert!(!db.is_durable());
    }

    #[test]
    fn txn_reads_its_own_writes() {
        let mut db = two_col_db();
        db.begin().unwrap();
        ins(&mut db, 7, "mine");
        let rows = db
            .select("t", &SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(7))))
            .unwrap();
        assert_eq!(rows.len(), 1);
        db.commit().unwrap();
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let mut db = Db::new();
        db.create_table("zz", Schema::new(vec![("A".into(), ColTy::Int)]).unwrap())
            .unwrap();
        db.create_table("aa", Schema::new(vec![("B".into(), ColTy::Str)]).unwrap())
            .unwrap();
        db.create_sequence("s2");
        db.create_sequence("s1");
        db.insert("zz", &[("A".into(), SqlExpr::lit(DbVal::Int(1)))])
            .unwrap();
        let d = db.dump();
        let aa = d.find("table aa").unwrap();
        let zz = d.find("table zz").unwrap();
        assert!(aa < zz, "tables sorted in {d}");
        let s1 = d.find("sequence s1").unwrap();
        let s2 = d.find("sequence s2").unwrap();
        assert!(s1 < s2, "sequences sorted in {d}");
        assert_eq!(d, db.clone().dump(), "clone dumps identically");
    }

    #[test]
    fn checkpoint_and_persist_rebase_are_noops_in_memory() {
        let mut db = two_col_db();
        db.checkpoint().unwrap();
        db.persist_rebase();
        assert_eq!(db.stats().snapshots_written, 0);
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::value::ColTy;

    fn indexed_db(n: i64) -> Db {
        let mut db = Db::new();
        db.create_table(
            "t",
            Schema::new(vec![("A".into(), ColTy::Int), ("B".into(), ColTy::Str)]).unwrap(),
        )
        .unwrap();
        for i in 0..n {
            db.insert(
                "t",
                &[
                    ("A".into(), SqlExpr::lit(DbVal::Int(i % 10))),
                    ("B".into(), SqlExpr::lit(DbVal::Str(format!("s{i}")))),
                ],
            )
            .unwrap();
        }
        db.create_index("t_a", "t", "A").unwrap();
        db
    }

    fn eq_pred(v: i64) -> SqlExpr {
        SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(v)))
    }

    #[test]
    fn create_index_validates_and_rejects_duplicates() {
        let mut db = indexed_db(5);
        assert!(matches!(
            db.create_index("t_a", "t", "A").unwrap_err(),
            DbError::IndexExists(_)
        ));
        assert!(matches!(
            db.create_index("i2", "t", "Z").unwrap_err(),
            DbError::UnknownColumn(_)
        ));
        assert!(matches!(
            db.create_index("i2", "missing", "A").unwrap_err(),
            DbError::UnknownTable(_)
        ));
        assert_eq!(db.indexes("t").unwrap().len(), 1);
        assert!(db.log().iter().any(|l| l.contains("CREATE INDEX \"t_a\"")));
    }

    #[test]
    fn probe_and_scan_agree_and_are_counted() {
        let mut db = indexed_db(50);
        let probed = db.select("t", &eq_pred(3)).unwrap();
        assert_eq!(db.stats().index_probes, 1);
        db.set_planner(false);
        assert!(!db.planner_enabled());
        let scanned = db.select("t", &eq_pred(3)).unwrap();
        assert_eq!(probed, scanned);
        assert_eq!(db.stats().full_scans, 1);
        db.set_planner(true);
        // Unprobeable predicate over an indexed table → fallback.
        db.select("t", &SqlExpr::eq(SqlExpr::col("B"), SqlExpr::lit(DbVal::Str("s1".into()))))
            .unwrap();
        assert_eq!(db.stats().planner_fallbacks, 1);
        assert_eq!(db.stats().full_scans, 2);
    }

    #[test]
    fn mutations_through_probes_match_scans() {
        let mut probed = indexed_db(40);
        let mut scanned = indexed_db(40);
        scanned.set_planner(false);
        for db in [&mut probed, &mut scanned] {
            assert_eq!(db.delete("t", &eq_pred(4)).unwrap(), 4);
            assert_eq!(
                db.update(
                    "t",
                    &[("A".into(), SqlExpr::lit(DbVal::Int(4)))],
                    &eq_pred(7),
                )
                .unwrap(),
                4
            );
        }
        assert_eq!(probed.dump(), scanned.dump());
        probed.verify_indexes().unwrap();
        scanned.verify_indexes().unwrap();
    }

    #[test]
    fn explain_and_plan_log_surface_plans() {
        let mut db = indexed_db(30);
        let e = db.explain("t", &eq_pred(1)).unwrap();
        assert!(e.contains("\"access\":\"index_eq\""), "{e}");
        assert!(db.plan_log().is_empty(), "explain alone does not log");
        db.select("t", &eq_pred(1)).unwrap();
        assert_eq!(db.plan_log().len(), 1);
        for _ in 0..20 {
            db.select("t", &eq_pred(2)).unwrap();
        }
        assert!(db.plan_log().len() <= PLAN_LOG_CAP, "ring is bounded");
    }

    #[test]
    fn snapshot_reads_are_isolated_from_later_writes() {
        let mut db = indexed_db(20);
        let snap = db.publish_snapshot();
        let again = db.publish_snapshot();
        assert!(Arc::ptr_eq(&snap, &again), "same epoch, same snapshot");
        db.delete("t", &SqlExpr::lit(DbVal::Bool(true))).unwrap();
        assert_ne!(
            db.publish_snapshot().epoch(),
            snap.epoch(),
            "a committed write moves the epoch"
        );

        let mut reader = Db::read_only(&snap);
        assert!(reader.is_read_only());
        let rows = reader.select("t", &eq_pred(3)).unwrap();
        assert_eq!(rows.len(), 2, "snapshot still sees the deleted rows");
        assert_eq!(reader.stats().snapshot_reads, 1);
        assert!(matches!(
            reader
                .insert(
                    "t",
                    &[
                        ("A".into(), SqlExpr::lit(DbVal::Int(1))),
                        ("B".into(), SqlExpr::lit(DbVal::Str("b".into()))),
                    ],
                )
                .unwrap_err(),
            DbError::ReadOnly
        ));
        assert!(matches!(reader.begin().unwrap_err(), DbError::ReadOnly));
        assert!(matches!(
            reader.delete("t", &eq_pred(1)).unwrap_err(),
            DbError::ReadOnly
        ));
        reader.verify_indexes().unwrap();
    }

    #[test]
    fn snapshot_mid_txn_sees_the_begin_state() {
        let mut db = indexed_db(10);
        let before = db.publish_snapshot();
        db.begin().unwrap();
        db.delete("t", &SqlExpr::lit(DbVal::Bool(true))).unwrap();
        let during = db.publish_snapshot();
        assert_eq!(during.epoch(), before.epoch());
        assert_eq!(during.row_count("t"), Some(10), "uncommitted delete invisible");
        db.commit().unwrap();
        assert_eq!(db.publish_snapshot().row_count("t"), Some(0));
    }

    #[test]
    fn gc_counts_versions_once_snapshots_die() {
        let mut db = indexed_db(10);
        let snap = db.publish_snapshot();
        db.update(
            "t",
            &[("B".into(), SqlExpr::lit(DbVal::Str("x".into())))],
            &SqlExpr::lit(DbVal::Bool(true)),
        )
        .unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            db.stats().versions_gcd,
            0,
            "a live snapshot pins the superseded versions"
        );
        drop(snap);
        db.checkpoint().unwrap();
        assert_eq!(db.stats().versions_gcd, 10);
    }
}

#[cfg(test)]
mod ordered_tests {
    use super::*;
    use crate::value::ColTy;

    fn db_with_rows() -> Db {
        let mut db = Db::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ("A".into(), ColTy::Int),
                ("B".into(), ColTy::Str),
            ])
            .unwrap(),
        )
        .unwrap();
        for (a, b) in [(3, "c"), (1, "a"), (2, "b"), (5, "e"), (4, "d")] {
            db.insert(
                "t",
                &[
                    ("A".into(), SqlExpr::lit(DbVal::Int(a))),
                    ("B".into(), SqlExpr::lit(DbVal::Str(b.into()))),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn ordered_select_sorts_limits_offsets() {
        let mut db = db_with_rows();
        let rows = db
            .select_ordered("t", &SqlExpr::lit(DbVal::Bool(true)), "A", 1, 2)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], DbVal::Int(2));
        assert_eq!(rows[1][0], DbVal::Int(3));
    }

    #[test]
    fn ordered_select_respects_predicate() {
        let mut db = db_with_rows();
        let pred = SqlExpr::Lt(
            Box::new(SqlExpr::col("A")),
            Box::new(SqlExpr::lit(DbVal::Int(4))),
        );
        let rows = db.select_ordered("t", &pred, "A", 0, 10).unwrap();
        let vals: Vec<&DbVal> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(vals, vec![&DbVal::Int(1), &DbVal::Int(2), &DbVal::Int(3)]);
    }

    #[test]
    fn ordered_select_unknown_column_fails() {
        let mut db = db_with_rows();
        assert!(db
            .select_ordered("t", &SqlExpr::lit(DbVal::Bool(true)), "Z", 0, 1)
            .is_err());
    }

    #[test]
    fn ordered_select_logs_order_by() {
        let mut db = db_with_rows();
        db.select_ordered("t", &SqlExpr::lit(DbVal::Bool(true)), "B", 0, 3)
            .unwrap();
        assert!(db.log().last().unwrap().contains("ORDER BY \"B\""));
    }

    #[test]
    fn nulls_sort_last() {
        let mut db = Db::new();
        db.create_table(
            "n",
            Schema::new(vec![(
                "A".into(),
                ColTy::Nullable(Box::new(ColTy::Int)),
            )])
            .unwrap(),
        )
        .unwrap();
        for v in [DbVal::Null, DbVal::Int(2), DbVal::Int(1)] {
            db.insert("n", &[("A".into(), SqlExpr::lit(v))]).unwrap();
        }
        let rows = db
            .select_ordered("n", &SqlExpr::lit(DbVal::Bool(true)), "A", 0, 10)
            .unwrap();
        assert_eq!(rows[0][0], DbVal::Int(1));
        assert_eq!(rows[2][0], DbVal::Null);
    }
}
