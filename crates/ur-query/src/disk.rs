//! Persistent on-disk cache for linked elaboration outcomes.
//!
//! Layout: one file per query under the cache directory, named by the
//! query's input fingerprint (`{fp:016x}.urq`). Each file is
//!
//! ```text
//! magic "URQ1" | format version u32 | env fingerprint u64
//!   | payload (u64 length prefix) | integrity tag u64
//! ```
//!
//! The integrity tag is the FNV-64 hash of the payload xor a salt, so a
//! truncated or bit-flipped file is detected before the payload reaches
//! the decoder. Every check failure is a *rejection* (counted by the
//! engine in `Stats::disk_rejections`) and degrades to recomputation —
//! the cache can never make a build wrong, only cold.
//!
//! The cache directory defaults to `.ur-cache/` next to the current
//! working directory and can be redirected with the `UR_CACHE_DIR`
//! environment variable (an empty value disables the disk layer).
//! Writes go through a temporary file followed by a rename, so a crash
//! mid-write leaves either the old entry or none — never a torn one
//! that happens to carry a valid header. Each write gets its own
//! temporary name (process id plus a process-wide counter), so writers
//! storing the same key at once — two sessions cold-loading one program
//! — cannot truncate or rename each other's file; the last rename wins
//! with a complete entry. A writer killed between create and rename
//! leaves its temporary file behind; [`remove_stale_tmp`] sweeps such
//! files once they are a minute old, when an engine opens the directory.
//!
//! Under the `failpoints` feature the two cache sites fire here:
//! [`Site::CacheLoad`](ur_core::failpoint::Site) simulates a read of a
//! corrupt entry (the bytes are discarded and the load reports
//! `Rejected`), and `Site::CacheStore` corrupts the integrity tag of the
//! written file so a *later* load exercises the verification path.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};
use ur_core::codec::{ByteReader, ByteWriter};
use ur_core::fingerprint::hash_bytes;

/// File magic for cache entries.
const MAGIC: [u8; 4] = *b"URQ1";
/// Bumped whenever the entry encoding changes shape.
const FORMAT_VERSION: u32 = 1;
/// Salt mixed into the integrity tag so it cannot collide with a stored
/// payload hash used for some other purpose.
const INTEGRITY_SALT: u64 = 0x7571_6361_6368_6531; // "uqcache1"
/// Numbers this process's temporary files, one per write. Only the
/// counter's own value matters (it publishes no other data), so
/// `Relaxed` suffices: `fetch_add` never hands out one number twice.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Result of probing the disk cache for one query.
#[derive(Debug, PartialEq, Eq)]
pub enum LoadResult {
    /// No entry on disk (a plain cold miss).
    Miss,
    /// An entry exists but failed verification (bad magic, version or
    /// environment mismatch, torn payload, integrity failure).
    Rejected,
    /// A verified payload.
    Hit(Vec<u8>),
}

/// Resolves the cache directory: an explicit override wins, then
/// `UR_CACHE_DIR` (empty disables), then `.ur-cache` in the working
/// directory.
pub fn resolve_cache_dir(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(dir) = explicit {
        return Some(dir);
    }
    match std::env::var("UR_CACHE_DIR") {
        Ok(v) if v.is_empty() => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => Some(PathBuf::from(".ur-cache")),
    }
}

/// Path of the entry for input fingerprint `key`.
pub fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.urq"))
}

/// Loads and verifies the entry for `key`, if any.
pub fn load(dir: &Path, key: u64, env_fp: u64) -> LoadResult {
    let bytes = match fs::read(entry_path(dir, key)) {
        Ok(b) => b,
        Err(_) => return LoadResult::Miss,
    };
    #[cfg(feature = "failpoints")]
    if ur_core::failpoint::fire(ur_core::failpoint::Site::CacheLoad) {
        // Simulated corruption: the file was read but its contents are
        // treated as garbage.
        return LoadResult::Rejected;
    }
    let mut r = ByteReader::new(&bytes);
    let ok = (|| {
        let magic = [r.get_u8()?, r.get_u8()?, r.get_u8()?, r.get_u8()?];
        if magic != MAGIC {
            return None;
        }
        if r.get_u32()? != FORMAT_VERSION {
            return None;
        }
        if r.get_u64()? != env_fp {
            return None;
        }
        let payload = r.get_bytes()?;
        let tag = r.get_u64()?;
        if !r.is_empty() {
            return None;
        }
        if tag != hash_bytes(payload) ^ INTEGRITY_SALT {
            return None;
        }
        Some(payload)
    })();
    match ok {
        Some(payload) => LoadResult::Hit(payload.to_vec()),
        None => LoadResult::Rejected,
    }
}

/// Stores `payload` for `key`. Best-effort: I/O errors are swallowed (a
/// cache that cannot write is merely cold) and reported as `false` so
/// callers that care (tests, benches) can tell.
pub fn store(dir: &Path, key: u64, env_fp: u64, payload: &[u8]) -> bool {
    if fs::create_dir_all(dir).is_err() {
        return false;
    }
    let mut w = ByteWriter::new();
    for b in MAGIC {
        w.put_u8(b);
    }
    w.put_u32(FORMAT_VERSION);
    w.put_u64(env_fp);
    w.put_bytes(payload);
    let tag = hash_bytes(payload) ^ INTEGRITY_SALT;
    // Simulated torn write: flip the integrity tag so the next load of
    // this entry exercises the rejection path.
    #[cfg(feature = "failpoints")]
    let tag = if ur_core::failpoint::fire(ur_core::failpoint::Site::CacheStore) {
        tag ^ 1
    } else {
        tag
    };
    w.put_u64(tag);
    let bytes = w.into_bytes();
    let tmp = dir.join(format!(
        "{key:016x}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write_ok = (|| {
        let mut f = fs::File::create(&tmp).ok()?;
        f.write_all(&bytes).ok()?;
        f.sync_all().ok()?;
        Some(())
    })()
    .is_some();
    if !write_ok {
        let _ = fs::remove_file(&tmp);
        return false;
    }
    if fs::rename(&tmp, entry_path(dir, key)).is_ok() {
        return true;
    }
    // No other writer uses this name: remove it now rather than leave
    // it to the stale sweep.
    let _ = fs::remove_file(&tmp);
    false
}

/// Removes temporary files that writers in this directory left behind
/// when they died between create and rename (`kill -9` mid-store):
/// every name is used once, so no later store reuses or renames them.
/// Only names [`store`] makes are touched, and only once they are older
/// than `min_age`, so a live writer's file in flight is left alone.
/// Returns how many files were removed.
pub fn remove_stale_tmp(dir: &Path, min_age: Duration) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let now = SystemTime::now();
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        if !name.to_str().is_some_and(is_tmp_name) {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .is_ok_and(|t| now.duration_since(t).is_ok_and(|age| age >= min_age));
        if stale && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Whether `name` is a temporary name [`store`] makes:
/// `{key:016x}.{pid}.{seq}.tmp`, or the older `{key:016x}.tmp`.
fn is_tmp_name(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    let digits = |p: &&str| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
    matches!(parts.as_slice(), [key, mid @ .., "tmp"]
        if key.len() == 16
            && key.bytes().all(|b| b.is_ascii_hexdigit())
            && (mid.is_empty() || (mid.len() == 2 && mid.iter().all(digits))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ur-query-disk-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("rt");
        assert!(store(&dir, 42, 7, b"payload"));
        assert_eq!(load(&dir, 42, 7), LoadResult::Hit(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_miss_not_a_rejection() {
        let dir = tmp_dir("miss");
        assert_eq!(load(&dir, 1, 0), LoadResult::Miss);
    }

    #[test]
    fn env_mismatch_rejects() {
        let dir = tmp_dir("env");
        assert!(store(&dir, 5, 100, b"x"));
        assert_eq!(load(&dir, 5, 101), LoadResult::Rejected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_files_are_swept_and_fresh_ones_kept() {
        let dir = tmp_dir("sweep");
        assert!(store(&dir, 9, 5, b"entry"));
        let age = |name: &str, secs: u64| {
            let f = fs::File::create(dir.join(name)).unwrap();
            f.set_modified(SystemTime::now() - Duration::from_secs(secs))
                .unwrap();
        };
        // Orphans of dead writers, one per name scheme.
        age("00000000000000aa.4242.7.tmp", 120);
        age("00000000000000bb.tmp", 120);
        // A live writer's file in flight, and files that are not ours.
        age("00000000000000cc.4242.8.tmp", 1);
        age("notes.tmp", 120);
        age("00000000000000dd.x.y.tmp", 120);
        assert_eq!(remove_stale_tmp(&dir, Duration::from_secs(60)), 2);
        let mut left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            [
                "0000000000000009.urq",
                "00000000000000cc.4242.8.tmp",
                "00000000000000dd.x.y.tmp",
                "notes.tmp"
            ]
        );
        assert_eq!(load(&dir, 9, 5), LoadResult::Hit(b"entry".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        let dir = tmp_dir("race");
        let start = std::sync::Barrier::new(4);
        let failures: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u8)
                .map(|t| {
                    let (dir, start) = (&dir, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..200)
                            .filter(|_| !store(dir, 77, 5, &[t; 64]))
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "stores of one key raced");
        match load(&dir, 77, 5) {
            LoadResult::Hit(p) => assert!(p.len() == 64 && p.iter().all(|&b| b == p[0]), "{p:?}"),
            other => panic!("expected a verified hit, got {other:?}"),
        }
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(leftovers, 0, "temporary files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bit_flips_reject() {
        let dir = tmp_dir("corrupt");
        assert!(store(&dir, 9, 3, b"some cached outcome bytes"));
        let path = entry_path(&dir, 9);
        let clean = fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert_eq!(load(&dir, 9, 3), LoadResult::Rejected, "cut at {cut}");
        }
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert_eq!(load(&dir, 9, 3), LoadResult::Rejected, "flip at {pos}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
