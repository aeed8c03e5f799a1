//! Snapshot compaction: the full database state as one CRC-verified
//! file, atomically replaced via tmp-write + fsync + rename.
//!
//! A checkpoint writes the snapshot tagged with the *next* WAL
//! generation, then rotates the WAL to that generation — the snapshot
//! subsumes the logged history. Recovery loads the snapshot (if any)
//! and replays the WAL on top **only when their generations match**: a
//! crash between the snapshot rename and the WAL rotation leaves the
//! new snapshot next to the old full log, and the generation mismatch
//! marks that log as stale instead of letting it double-apply. A
//! failed snapshot write leaves the previous snapshot and the full WAL
//! in place: no committed data is ever lost to checkpointing.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::DbError;
use crate::table::Table;
use crate::wal::{get_row, get_schema, put_row, put_schema};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;
use ur_core::failpoint::{self, Site};
use ur_core::fingerprint::hash_bytes;

/// File name of the snapshot inside a database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";

/// Current format: v3 appends each table's index *definitions* after
/// its rows; the maps themselves are derived state and are rebuilt from
/// the rows at load (so a snapshot can never carry a divergent index).
const SNAP_MAGIC: &[u8; 8] = b"URSNAP03";
/// The pre-index format is still readable: its tables simply have no
/// indexes declared.
const SNAP_MAGIC_V2: &[u8; 8] = b"URSNAP02";
const SNAP_SALT: u64 = 0x7572_534e_4150_6372; // "urSNAPcr"

fn io_err(ctx: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{ctx}: {e}"))
}

fn encode_state(
    tables: &HashMap<String, Table>,
    sequences: &HashMap<String, i64>,
    wal_gen: u64,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(wal_gen);
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    w.put_u64(names.len() as u64);
    for name in names {
        if let Some(t) = tables.get(name) {
            w.put_str(name);
            put_schema(&mut w, &t.schema);
            w.put_u64(t.rows.len() as u64);
            for row in &t.rows {
                put_row(&mut w, row.as_ref());
            }
            let defs = t.index_defs();
            w.put_u64(defs.len() as u64);
            for def in &defs {
                w.put_str(&def.name);
                w.put_str(&def.column);
            }
        }
    }
    let mut seqs: Vec<(&String, &i64)> = sequences.iter().collect();
    seqs.sort();
    w.put_u64(seqs.len() as u64);
    for (name, v) in seqs {
        w.put_str(name);
        w.put_i64(*v);
    }
    w.into_bytes()
}

/// Decoded snapshot contents: tables plus sequence counters.
pub(crate) type SnapState = (HashMap<String, Table>, HashMap<String, i64>);

fn decode_state(bytes: &[u8], with_indexes: bool) -> Option<(u64, SnapState)> {
    let mut r = ByteReader::new(bytes);
    let wal_gen = r.get_u64()?;
    let n_tables = r.get_u64()?;
    if n_tables > r.remaining() as u64 {
        return None;
    }
    let mut tables = HashMap::new();
    for _ in 0..n_tables {
        let name = r.get_str()?;
        let schema = get_schema(&mut r)?;
        let n_rows = r.get_u64()?;
        if n_rows > r.remaining() as u64 {
            return None;
        }
        let mut table = Table::new(schema);
        for _ in 0..n_rows {
            table.rows.push(std::sync::Arc::from(get_row(&mut r)?));
        }
        if with_indexes {
            let n_defs = r.get_u64()?;
            if n_defs > r.remaining() as u64 {
                return None;
            }
            for _ in 0..n_defs {
                let idx_name = r.get_str()?;
                let column = r.get_str()?;
                // Rebuild the map deterministically from the rows just
                // decoded; a bad column or duplicate name is corruption.
                table.create_index(&idx_name, &column).ok()?;
            }
        }
        if tables.insert(name, table).is_some() {
            return None; // duplicate table name is corruption
        }
    }
    let n_seqs = r.get_u64()?;
    if n_seqs > r.remaining() as u64 {
        return None;
    }
    let mut sequences = HashMap::new();
    for _ in 0..n_seqs {
        let name = r.get_str()?;
        let v = r.get_i64()?;
        if sequences.insert(name, v).is_some() {
            return None;
        }
    }
    if !r.is_empty() {
        return None;
    }
    Some((wal_gen, (tables, sequences)))
}

/// Writes the state as `dir/snapshot.db`, atomically (tmp + fsync +
/// rename + best-effort directory sync), tagged with `wal_gen` — the
/// generation of the WAL that pairs with this snapshot (the checkpoint
/// rotates the log to it immediately after). Returns the snapshot size.
///
/// # Errors
///
/// [`DbError::Io`] on any filesystem failure or an injected
/// [`Site::SnapshotWrite`] fault; the previous snapshot (if any) is
/// untouched. Under `UR_DB_CRASH=abort` the injected fault aborts
/// mid-write instead, leaving a garbage tmp file that recovery ignores.
pub(crate) fn write(
    dir: &Path,
    tables: &HashMap<String, Table>,
    sequences: &HashMap<String, i64>,
    wal_gen: u64,
    crash_mode: bool,
) -> Result<u64, DbError> {
    let payload = encode_state(tables, sequences, wal_gen);
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&(hash_bytes(&payload) ^ SNAP_SALT).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let dst = dir.join(SNAPSHOT_FILE);

    if failpoint::fire(Site::SnapshotWrite) {
        if crash_mode {
            // Simulated crash mid-checkpoint: a truncated tmp file lands,
            // the real snapshot is never replaced.
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            std::process::abort();
        }
        return Err(DbError::Io("injected snapshot write failure".into()));
    }

    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| io_err("snapshot tmp create", e))?;
    f.write_all(&bytes)
        .map_err(|e| io_err("snapshot tmp write", e))?;
    f.sync_all().map_err(|e| io_err("snapshot tmp sync", e))?;
    drop(f);
    fs::rename(&tmp, &dst).map_err(|e| io_err("snapshot rename", e))?;
    // Make the rename itself durable; not all platforms support syncing a
    // directory handle, so this is best-effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes.len() as u64)
}

/// Loads `dir/snapshot.db`, returning `(wal_gen, state)`; `Ok(None)`
/// when no snapshot exists.
///
/// # Errors
///
/// [`DbError::Corrupt`] on bad magic, CRC mismatch, or an undecodable
/// payload — a snapshot is written atomically, so unlike a WAL tail a
/// damaged snapshot is a real integrity failure, not a torn write.
pub(crate) fn load(dir: &Path) -> Result<Option<(u64, SnapState)>, DbError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("snapshot read", e)),
    };
    if bytes.len() < 16 {
        return Err(DbError::Corrupt("snapshot has bad magic".into()));
    }
    let with_indexes = match &bytes[..8] {
        m if m == SNAP_MAGIC => true,
        m if m == SNAP_MAGIC_V2 => false,
        _ => return Err(DbError::Corrupt("snapshot has bad magic".into())),
    };
    let mut crc_bytes = [0u8; 8];
    crc_bytes.copy_from_slice(&bytes[8..16]);
    let crc = u64::from_le_bytes(crc_bytes);
    let payload = &bytes[16..];
    if hash_bytes(payload) ^ SNAP_SALT != crc {
        return Err(DbError::Corrupt("snapshot CRC mismatch".into()));
    }
    match decode_state(payload, with_indexes) {
        Some(state) => Ok(Some(state)),
        None => Err(DbError::Corrupt("snapshot payload undecodable".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Schema;
    use crate::value::{ColTy, DbVal};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ur-db-snap-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state() -> (HashMap<String, Table>, HashMap<String, i64>) {
        let schema = Schema::new(vec![
            ("A".into(), ColTy::Int),
            ("B".into(), ColTy::Nullable(Box::new(ColTy::Str))),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.rows
            .push(std::sync::Arc::from(vec![DbVal::Int(1), DbVal::Str("x".into())]));
        t.rows.push(std::sync::Arc::from(vec![DbVal::Int(2), DbVal::Null]));
        t.create_index("t_a", "A").unwrap();
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), t);
        let mut seqs = HashMap::new();
        seqs.insert("s".to_string(), 42i64);
        (tables, seqs)
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmpdir("roundtrip");
        let (tables, seqs) = sample_state();
        write(&dir, &tables, &seqs, 7, false).unwrap();
        let (gen, (t2, s2)) = load(&dir).unwrap().unwrap();
        assert_eq!(gen, 7, "wal generation survives the round trip");
        assert_eq!(s2, seqs);
        assert_eq!(t2.len(), 1);
        assert_eq!(t2["t"].rows, tables["t"].rows);
        assert_eq!(t2["t"].schema, tables["t"].schema);
        // Index definitions survive; the map is rebuilt from the rows.
        assert_eq!(t2["t"].index_defs(), tables["t"].index_defs());
        assert!(t2["t"].index_divergence().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_snapshot_without_indexes_still_loads() {
        let dir = tmpdir("v2compat");
        let (tables, seqs) = sample_state();
        write(&dir, &tables, &seqs, 3, false).unwrap();
        // Rewrite the file as the v2 format: v2 magic, no index section.
        let path = dir.join(SNAPSHOT_FILE);
        let mut w = crate::codec::ByteWriter::new();
        w.put_u64(3);
        w.put_u64(1);
        w.put_str("t");
        put_schema(&mut w, &tables["t"].schema);
        w.put_u64(tables["t"].rows.len() as u64);
        for row in &tables["t"].rows {
            put_row(&mut w, row.as_ref());
        }
        w.put_u64(1);
        w.put_str("s");
        w.put_i64(42);
        let payload = w.into_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAP_MAGIC_V2);
        bytes.extend_from_slice(&(hash_bytes(&payload) ^ SNAP_SALT).to_le_bytes());
        bytes.extend_from_slice(&payload);
        fs::write(&path, &bytes).unwrap();
        let (gen, (t2, s2)) = load(&dir).unwrap().unwrap();
        assert_eq!(gen, 3);
        assert_eq!(s2, seqs);
        assert_eq!(t2["t"].rows, tables["t"].rows);
        assert!(t2["t"].index_defs().is_empty(), "v2 carries no indexes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = tmpdir("missing");
        assert_eq!(load(&dir).unwrap().map(|_| ()), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected() {
        let dir = tmpdir("bitflip");
        let (tables, seqs) = sample_state();
        write(&dir, &tables, &seqs, 1, false).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&dir), Err(DbError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_detected() {
        let dir = tmpdir("badmagic");
        fs::write(dir.join(SNAPSHOT_FILE), b"NOTASNAPxxxxxxxxyyyy").unwrap();
        assert!(matches!(load(&dir), Err(DbError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
