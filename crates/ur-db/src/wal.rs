//! The write-ahead log: length-prefixed, CRC-tagged, fsync'd records.
//!
//! Every committed transaction is a contiguous run of frames
//! `Begin, op*, Commit` appended in a single write and sealed by one
//! `fsync`. A frame is `u32 len | u64 crc | payload` (little-endian);
//! the CRC is the workspace FNV-1a fingerprint of the payload XOR a
//! salt, so an all-zero torn page can never masquerade as a valid
//! record. Records are *physical*: inserts log the evaluated row,
//! updates log `(row index, new row)` pairs, deletes log the removed
//! indices — replay never re-evaluates SQL expressions, so recovery is
//! deterministic even if expression semantics evolve.
//!
//! The file header carries a **generation number** alongside the magic.
//! Each checkpoint writes the snapshot tagged with generation `g + 1`
//! and then *rotates* the WAL to `g + 1`; recovery pairs the two files
//! by generation, so a crash in the window between the snapshot rename
//! and the rotation (new snapshot, old full WAL) leaves a recognizably
//! *stale* log that is ignored rather than double-applied.
//!
//! Failure semantics (see `docs/ROBUSTNESS.md` §7): a failed append
//! rewinds the file to the last committed boundary and reports
//! [`DbError::Io`]; an injected torn write ([`Site::WalCorrupt`])
//! deliberately leaves a corrupt tail on disk for recovery to truncate.
//! Under `UR_DB_CRASH=abort` (the kill-point crash harness) injected
//! faults abort the process mid-write instead, simulating power loss.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::DbError;
use crate::table::Schema;
use crate::value::{ColTy, DbVal};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use ur_core::failpoint::{self, Site};
use ur_core::fingerprint::hash_bytes;

use crate::txn::DbStats;

/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic + format version, the first 8 bytes of every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"URWAL002";

/// Salt mixed into every frame CRC so a zeroed region never verifies.
const WAL_SALT: u64 = 0x7572_5741_4c63_7263; // "urWALcrc"

/// Byte length of the file header: the magic plus the `u64` generation
/// number (little-endian) that pairs this log with a snapshot.
pub(crate) const WAL_HEADER_LEN: u64 = WAL_MAGIC.len() as u64 + 8;

/// Byte length of a frame header (`u32 len | u64 crc`).
pub(crate) const FRAME_HEADER_LEN: usize = 12;

/// One WAL record. `Begin`/`Commit` bracket a transaction; the others
/// are physical state-change operations replayed by recovery.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Start of transaction `txn`.
    Begin { txn: u64 },
    /// Durable end of transaction `txn`; only operations between a
    /// matching `Begin`/`Commit` pair are ever replayed.
    Commit { txn: u64 },
    /// `CREATE TABLE`.
    CreateTable { name: String, schema: Schema },
    /// `CREATE SEQUENCE` (idempotent, like the live operation).
    CreateSequence { name: String },
    /// One `NEXTVAL` increment of a sequence.
    Nextval { name: String },
    /// One inserted row (already evaluated).
    Insert { table: String, row: Vec<DbVal> },
    /// Updated rows as `(index, new row)` pairs, indices ascending.
    Update {
        table: String,
        changes: Vec<(u64, Vec<DbVal>)>,
    },
    /// Deleted row indices, ascending (replayed in reverse).
    Delete { table: String, removed: Vec<u64> },
    /// `CREATE INDEX`: a secondary index over one column, built over
    /// whatever rows the table holds at replay time — maintenance after
    /// this point is part of each physical record's application, so a
    /// replayed index always equals a fresh rebuild of the rows.
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_CREATE_TABLE: u8 = 3;
const TAG_CREATE_SEQUENCE: u8 = 4;
const TAG_NEXTVAL: u8 = 5;
const TAG_INSERT: u8 = 6;
const TAG_UPDATE: u8 = 7;
const TAG_DELETE: u8 = 8;
const TAG_CREATE_INDEX: u8 = 9;

fn put_colty(w: &mut ByteWriter, ty: &ColTy) {
    match ty {
        ColTy::Int => w.put_u8(0),
        ColTy::Float => w.put_u8(1),
        ColTy::Str => w.put_u8(2),
        ColTy::Bool => w.put_u8(3),
        ColTy::Nullable(inner) => {
            w.put_u8(4);
            put_colty(w, inner);
        }
    }
}

fn get_colty(r: &mut ByteReader<'_>) -> Option<ColTy> {
    match r.get_u8()? {
        0 => Some(ColTy::Int),
        1 => Some(ColTy::Float),
        2 => Some(ColTy::Str),
        3 => Some(ColTy::Bool),
        4 => Some(ColTy::Nullable(Box::new(get_colty(r)?))),
        _ => None,
    }
}

pub(crate) fn put_schema(w: &mut ByteWriter, schema: &Schema) {
    let cols = schema.columns();
    w.put_u64(cols.len() as u64);
    for (name, ty) in cols {
        w.put_str(name);
        put_colty(w, ty);
    }
}

pub(crate) fn get_schema(r: &mut ByteReader<'_>) -> Option<Schema> {
    let n = r.get_u64()?;
    if n > r.remaining() as u64 {
        return None;
    }
    let mut cols = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = r.get_str()?;
        let ty = get_colty(r)?;
        cols.push((name, ty));
    }
    Schema::new(cols).ok()
}

pub(crate) fn put_val(w: &mut ByteWriter, v: &DbVal) {
    match v {
        DbVal::Int(n) => {
            w.put_u8(0);
            w.put_i64(*n);
        }
        DbVal::Float(x) => {
            w.put_u8(1);
            w.put_f64(*x);
        }
        DbVal::Str(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        DbVal::Bool(b) => {
            w.put_u8(3);
            w.put_bool(*b);
        }
        DbVal::Null => w.put_u8(4),
    }
}

pub(crate) fn get_val(r: &mut ByteReader<'_>) -> Option<DbVal> {
    match r.get_u8()? {
        0 => Some(DbVal::Int(r.get_i64()?)),
        1 => Some(DbVal::Float(r.get_f64()?)),
        2 => Some(DbVal::Str(r.get_str()?)),
        3 => Some(DbVal::Bool(r.get_bool()?)),
        4 => Some(DbVal::Null),
        _ => None,
    }
}

pub(crate) fn put_row(w: &mut ByteWriter, row: &[DbVal]) {
    w.put_u64(row.len() as u64);
    for v in row {
        put_val(w, v);
    }
}

pub(crate) fn get_row(r: &mut ByteReader<'_>) -> Option<Vec<DbVal>> {
    let n = r.get_u64()?;
    if n > r.remaining() as u64 {
        return None;
    }
    let mut row = Vec::with_capacity(n as usize);
    for _ in 0..n {
        row.push(get_val(r)?);
    }
    Some(row)
}

impl WalRecord {
    /// Serializes the record payload (frame header not included).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            WalRecord::Begin { txn } => {
                w.put_u8(TAG_BEGIN);
                w.put_u64(*txn);
            }
            WalRecord::Commit { txn } => {
                w.put_u8(TAG_COMMIT);
                w.put_u64(*txn);
            }
            WalRecord::CreateTable { name, schema } => {
                w.put_u8(TAG_CREATE_TABLE);
                w.put_str(name);
                put_schema(&mut w, schema);
            }
            WalRecord::CreateSequence { name } => {
                w.put_u8(TAG_CREATE_SEQUENCE);
                w.put_str(name);
            }
            WalRecord::Nextval { name } => {
                w.put_u8(TAG_NEXTVAL);
                w.put_str(name);
            }
            WalRecord::Insert { table, row } => {
                w.put_u8(TAG_INSERT);
                w.put_str(table);
                put_row(&mut w, row);
            }
            WalRecord::Update { table, changes } => {
                w.put_u8(TAG_UPDATE);
                w.put_str(table);
                w.put_u64(changes.len() as u64);
                for (idx, row) in changes {
                    w.put_u64(*idx);
                    put_row(&mut w, row);
                }
            }
            WalRecord::Delete { table, removed } => {
                w.put_u8(TAG_DELETE);
                w.put_str(table);
                w.put_u64(removed.len() as u64);
                for idx in removed {
                    w.put_u64(*idx);
                }
            }
            WalRecord::CreateIndex {
                name,
                table,
                column,
            } => {
                w.put_u8(TAG_CREATE_INDEX);
                w.put_str(name);
                w.put_str(table);
                w.put_str(column);
            }
        }
        w.into_bytes()
    }

    /// Parses a record payload; `None` on any truncation or bad tag (the
    /// caller treats that as a torn tail).
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        let mut r = ByteReader::new(bytes);
        let rec = match r.get_u8()? {
            TAG_BEGIN => WalRecord::Begin { txn: r.get_u64()? },
            TAG_COMMIT => WalRecord::Commit { txn: r.get_u64()? },
            TAG_CREATE_TABLE => WalRecord::CreateTable {
                name: r.get_str()?,
                schema: get_schema(&mut r)?,
            },
            TAG_CREATE_SEQUENCE => WalRecord::CreateSequence { name: r.get_str()? },
            TAG_NEXTVAL => WalRecord::Nextval { name: r.get_str()? },
            TAG_INSERT => WalRecord::Insert {
                table: r.get_str()?,
                row: get_row(&mut r)?,
            },
            TAG_UPDATE => {
                let table = r.get_str()?;
                let n = r.get_u64()?;
                if n > r.remaining() as u64 {
                    return None;
                }
                let mut changes = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let idx = r.get_u64()?;
                    changes.push((idx, get_row(&mut r)?));
                }
                WalRecord::Update { table, changes }
            }
            TAG_DELETE => {
                let table = r.get_str()?;
                let n = r.get_u64()?;
                if n > r.remaining() as u64 {
                    return None;
                }
                let mut removed = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    removed.push(r.get_u64()?);
                }
                WalRecord::Delete { table, removed }
            }
            TAG_CREATE_INDEX => WalRecord::CreateIndex {
                name: r.get_str()?,
                table: r.get_str()?,
                column: r.get_str()?,
            },
            _ => return None,
        };
        if !r.is_empty() {
            return None; // trailing garbage inside a frame is corruption
        }
        Some(rec)
    }
}

/// CRC of a frame payload.
pub(crate) fn frame_crc(payload: &[u8]) -> u64 {
    hash_bytes(payload) ^ WAL_SALT
}

/// Appends one `len | crc | payload` frame to `buf`.
fn frame_into(buf: &mut Vec<u8>, rec: &WalRecord) {
    let payload = rec.encode();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame_crc(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
}

fn io_err(ctx: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{ctx}: {e}"))
}

/// Serializes the 16-byte file header for `generation`.
pub(crate) fn header_bytes(generation: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..WAL_MAGIC.len()].copy_from_slice(WAL_MAGIC);
    h[WAL_MAGIC.len()..].copy_from_slice(&generation.to_le_bytes());
    h
}

/// An open write-ahead log positioned at its last committed boundary.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    /// End offset of the last durably committed transaction; everything
    /// beyond it is garbage from a failed append and is overwritten.
    committed_len: u64,
    /// Generation number in the file header; a log is only replayed onto
    /// a snapshot carrying the same generation.
    generation: u64,
    /// `UR_DB_CRASH=abort`: injected faults abort the process instead of
    /// returning errors (the kill-point crash harness).
    crash_mode: bool,
}

impl Wal {
    /// Creates a fresh WAL (truncating any existing file) with just the
    /// header, synced.
    pub fn create(path: &Path, generation: u64, crash_mode: bool) -> Result<Wal, DbError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("wal create", e))?;
        file.write_all(&header_bytes(generation))
            .map_err(|e| io_err("wal header", e))?;
        file.sync_all().map_err(|e| io_err("wal header sync", e))?;
        Ok(Wal {
            file,
            committed_len: WAL_HEADER_LEN,
            generation,
            crash_mode,
        })
    }

    /// Opens an existing WAL whose committed prefix ends at
    /// `committed_len` (as determined by recovery, which already
    /// truncated the tail and verified the header generation).
    pub fn open_at(
        path: &Path,
        committed_len: u64,
        generation: u64,
        crash_mode: bool,
    ) -> Result<Wal, DbError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("wal open", e))?;
        Ok(Wal {
            file,
            committed_len,
            generation,
            crash_mode,
        })
    }

    /// End offset of the last durably committed transaction.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Generation number of this log.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Discards any bytes beyond the committed boundary (garbage left by
    /// a failed or deliberately-corrupted append).
    fn rewind(&mut self) {
        let _ = self.file.set_len(self.committed_len);
    }

    /// Appends `Begin, records…, Commit` as one transaction and seals it
    /// with an fsync (when `sync`). On any failure the file is rewound to
    /// the previous committed boundary and the transaction is *not*
    /// durable — except for an injected torn write, which leaves a
    /// corrupt tail on disk (recovery truncates it; `committed_len` is
    /// not advanced, so a later append overwrites it too).
    pub fn append_txn(
        &mut self,
        txn: u64,
        records: &[WalRecord],
        sync: bool,
        stats: &mut DbStats,
    ) -> Result<(), DbError> {
        // Drop leftovers from any previously failed append, then position
        // at the committed boundary.
        let cur = self
            .file
            .metadata()
            .map_err(|e| io_err("wal metadata", e))?
            .len();
        if cur != self.committed_len {
            self.file
                .set_len(self.committed_len)
                .map_err(|e| io_err("wal rewind", e))?;
        }
        self.file
            .seek(SeekFrom::Start(self.committed_len))
            .map_err(|e| io_err("wal seek", e))?;

        let mut buf = Vec::new();
        frame_into(&mut buf, &WalRecord::Begin { txn });
        for rec in records {
            frame_into(&mut buf, rec);
        }
        let commit_start = buf.len();
        frame_into(&mut buf, &WalRecord::Commit { txn });

        // Injected torn write: the commit frame's CRC reaches the disk
        // flipped, as if the sector was half-written at power loss.
        let torn = failpoint::fire(Site::WalCorrupt);
        if torn {
            buf[commit_start + 4] ^= 0xFF;
        }

        if failpoint::fire(Site::WalAppend) {
            stats.wal_append_errs = stats.wal_append_errs.saturating_add(1);
            if self.crash_mode {
                // Simulated crash mid-append: half the bytes land, then
                // the process dies.
                let _ = self.file.write_all(&buf[..buf.len() / 2]);
                let _ = self.file.sync_all();
                std::process::abort();
            }
            self.rewind();
            return Err(DbError::Io("injected WAL append failure".into()));
        }

        if let Err(e) = self.file.write_all(&buf) {
            stats.wal_append_errs = stats.wal_append_errs.saturating_add(1);
            self.rewind();
            return Err(io_err("wal append", e));
        }

        if torn {
            stats.wal_append_errs = stats.wal_append_errs.saturating_add(1);
            let _ = self.file.sync_all();
            if self.crash_mode {
                std::process::abort();
            }
            // The corrupt tail deliberately stays on disk so recovery's
            // torn-tail truncation is exercised; committed_len is not
            // advanced, so the live handle overwrites it on the next
            // append.
            return Err(DbError::Io(
                "injected torn WAL write (corrupt commit record)".into(),
            ));
        }

        if failpoint::fire(Site::WalSync) {
            stats.wal_append_errs = stats.wal_append_errs.saturating_add(1);
            if self.crash_mode {
                // Crash between write and fsync: the transaction must not
                // be acknowledged (it may or may not survive).
                std::process::abort();
            }
            self.rewind();
            return Err(DbError::Io("injected WAL fsync failure".into()));
        }

        if sync {
            if let Err(e) = self.file.sync_all() {
                stats.wal_append_errs = stats.wal_append_errs.saturating_add(1);
                self.rewind();
                return Err(io_err("wal fsync", e));
            }
            stats.wal_fsyncs = stats.wal_fsyncs.saturating_add(1);
        }

        self.committed_len += buf.len() as u64;
        stats.wal_records = stats.wal_records.saturating_add(records.len() as u64 + 2);
        stats.wal_bytes = stats.wal_bytes.saturating_add(buf.len() as u64);
        Ok(())
    }

    /// Rotates the log to `new_generation`: overwrites the header in
    /// place, truncates away the history a successful snapshot just
    /// subsumed, and syncs. Crash-safe without an intermediate fsync:
    /// whatever prefix of (header write, truncate) reaches the disk, the
    /// file reads back as either the old generation (stale — ignored by
    /// recovery, since the snapshot carries the new one), the new
    /// generation with no committed data, or a partial header (treated
    /// as empty).
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] — the caller must then stop appending: the
    /// snapshot is already ahead of this log's generation, so anything
    /// appended here would be ignored by recovery.
    pub fn rotate(&mut self, new_generation: u64) -> Result<(), DbError> {
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("wal rotate seek", e))?;
        self.file
            .write_all(&header_bytes(new_generation))
            .map_err(|e| io_err("wal rotate header", e))?;
        self.file
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| io_err("wal rotate truncate", e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err("wal rotate sync", e))?;
        self.committed_len = WAL_HEADER_LEN;
        self.generation = new_generation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_codec_round_trips() {
        let schema = Schema::new(vec![
            ("A".into(), ColTy::Int),
            ("B".into(), ColTy::Nullable(Box::new(ColTy::Str))),
        ])
        .unwrap();
        let records = vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::Commit { txn: u64::MAX },
            WalRecord::CreateTable {
                name: "t".into(),
                schema,
            },
            WalRecord::CreateSequence { name: "s".into() },
            WalRecord::Nextval { name: "s".into() },
            WalRecord::Insert {
                table: "t".into(),
                row: vec![
                    DbVal::Int(-3),
                    DbVal::Float(2.5),
                    DbVal::Str("x'y".into()),
                    DbVal::Bool(true),
                    DbVal::Null,
                ],
            },
            WalRecord::Update {
                table: "t".into(),
                changes: vec![(0, vec![DbVal::Int(1)]), (4, vec![DbVal::Null])],
            },
            WalRecord::Delete {
                table: "t".into(),
                removed: vec![1, 2, 9],
            },
            WalRecord::CreateIndex {
                name: "t_a".into(),
                table: "t".into(),
                column: "A".into(),
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes), Some(rec.clone()), "{rec:?}");
            // Every strict prefix must fail to decode, never panic.
            for cut in 0..bytes.len() {
                assert_eq!(WalRecord::decode(&bytes[..cut]), None, "cut={cut} {rec:?}");
            }
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_trailing_garbage() {
        assert_eq!(WalRecord::decode(&[99]), None);
        let mut bytes = WalRecord::Begin { txn: 1 }.encode();
        bytes.push(0);
        assert_eq!(WalRecord::decode(&bytes), None);
    }

    #[test]
    fn crc_differs_from_plain_hash() {
        // The salt must matter: a zeroed payload's CRC is not zero.
        assert_ne!(frame_crc(&[]), 0);
        assert_ne!(frame_crc(b"abc"), hash_bytes(b"abc"));
    }
}
