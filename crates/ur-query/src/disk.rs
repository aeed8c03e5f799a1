//! Persistent on-disk cache for linked elaboration outcomes.
//!
//! Layout: one *pack* per rebuild that recomputed anything (or folded the
//! directory, below). A pack holds the linked entries ([`crate::link`])
//! of that rebuild's red declarations, keyed by input fingerprint, and
//! is named by its integrity tag (`{tag:016x}.urp`):
//!
//! ```text
//! magic "URP1" | format version u32 | env fingerprint u64
//!   | entry count u64 | key table: count × key u64
//!   | payloads, in key-table order, each with a u64 length prefix
//!   | integrity tag u64
//! ```
//!
//! The integrity tag is the FNV-64 hash of every byte before it xor a
//! salt, so a truncated or bit-flipped pack fails its check before any
//! payload reaches the decoder, and is rejected whole: none of its
//! entries is served. Each rejected pack (and each entry that then fails
//! to decode) is counted by the engine in `Stats::disk_rejections` and
//! degrades to recomputation — the cache can never make a build wrong,
//! only cold.
//!
//! **Writes.** A pack goes to a temporary file with a name of its own
//! (process id plus a process-wide counter), is made durable with one
//! `sync_all`, and is renamed into place once: one create, one fsync and
//! one rename per rebuild, however many declarations it recomputed. A
//! crash mid-write leaves the whole pack or none, and concurrent writers
//! never share a temporary file (two writers of the same content rename
//! to the same name, and either rename leaves it whole). The directory
//! itself is not synced: a crash may forget the newest pack, which costs
//! a recompute, not a wrong answer.
//!
//! **Reads.** An [`Index`] remembers which pack holds each key. Each
//! engine run reads through a [`Reader`], which lists the directory on
//! its first lookup — the run's first memory miss — and reads the packs
//! the index has not seen yet. A rebuild served entirely from the
//! engine's memory layer therefore touches no file, while packs that
//! other sessions or processes wrote since the last listing are still
//! found. A payload is served only from pack bytes read and checked in
//! the current run; between runs the index keeps keys and pack names,
//! not payloads. A pack that fails its check is deleted as well as
//! rejected: packs only appear whole, by rename, so a damaged one stays
//! damaged, and deleting it costs at most a recompute. A pack that has
//! vanished (folded by another engine, or the directory cleared) is a
//! miss.
//!
//! **Folding.** Every rebuild that recomputes something adds a pack,
//! and an engine's first listing reads every pack in the directory, so
//! a fresh engine would pay for the directory's whole history in files.
//! When that first listing reads more than one pack of the run's
//! environment, the run folds them: [`Reader::finish`] writes their
//! entries and its own red entries as one pack and, once that is
//! durable, deletes them. The next fresh engine opens one file plus
//! what was written since. Later listings of a live engine read only
//! packs written since its last one and never fold. Folding drops no
//! entry: the folded pack holds every distinct entry written to the
//! directory, stale ones included, and nothing evicts them yet.
//!
//! The cache directory defaults to `.ur-cache/` next to the current
//! working directory and can be redirected with the `UR_CACHE_DIR`
//! environment variable (an empty value disables the disk layer).
//! [`Index::open`] sweeps what nothing will read: temporary files of
//! writers killed between create and rename, once they are a minute old,
//! and the per-entry `{key:016x}.urq` files that earlier builds wrote.
//!
//! Under the `failpoints` feature the two cache sites fire here:
//! [`Site::CacheLoad`] fires when a pack's
//! bytes have been read, before they are checked, and rejects (so
//! deletes) the pack as corrupt; `Site::CacheStore` corrupts the integrity tag of a written
//! pack, so the next reader rejects it whole.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};
use ur_core::codec::{ByteReader, ByteWriter};
use ur_core::failpoint::{self, Site};
use ur_core::fingerprint::hash_bytes;

/// File magic for packs.
const MAGIC: [u8; 4] = *b"URP1";
/// Bumped whenever the pack or entry encoding changes shape.
const FORMAT_VERSION: u32 = 1;
/// Salt mixed into the integrity tag so it cannot collide with a stored
/// payload hash used for some other purpose.
const INTEGRITY_SALT: u64 = 0x7571_6361_6368_6531; // "uqcache1"
/// Age past which a temporary file is taken to belong to a writer that
/// died mid-write (a live write takes milliseconds).
const STALE_TMP_AGE: Duration = Duration::from_secs(60);
/// Numbers this process's temporary files, one per write. Only the
/// counter's own value matters (it publishes no other data), so
/// `Relaxed` suffices: `fetch_add` never hands out one number twice.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

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

/// Which pack in one cache directory holds each key. A pack is known by
/// its integrity tag, which names its file (`{tag:016x}.urp`).
pub struct Index {
    dir: PathBuf,
    /// Packs listed or written so far.
    seen: HashSet<u64>,
    /// The pack each indexed key is served from.
    keys: HashMap<u64, u64>,
}

impl Index {
    /// An empty index over `dir`, after [`sweep`]ing it.
    pub fn open(dir: PathBuf) -> Index {
        sweep(&dir, STALE_TMP_AGE);
        Index {
            dir,
            seen: HashSet::new(),
            keys: HashMap::new(),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Starts one run's reads and write, for entries of environment
    /// `env_fp`.
    pub fn reader(&mut self, env_fp: u64) -> Reader<'_> {
        Reader {
            index: self,
            env_fp,
            listed: false,
            packs: HashMap::new(),
            fold: Vec::new(),
            rejected: 0,
        }
    }

    /// Writes `entries` (key, linked payload) as one pack, and indexes
    /// it. Returns its tag, or `None` when an I/O error leaves the cache
    /// cold for these entries.
    fn write(&mut self, env_fp: u64, entries: &BTreeMap<u64, Vec<u8>>) -> Option<u64> {
        let mut w = ByteWriter::new();
        for b in MAGIC {
            w.put_u8(b);
        }
        w.put_u32(FORMAT_VERSION);
        w.put_u64(env_fp);
        w.put_u64(entries.len() as u64);
        for key in entries.keys() {
            w.put_u64(*key);
        }
        for payload in entries.values() {
            w.put_bytes(payload);
        }
        let mut bytes = w.into_bytes();
        let tag = hash_bytes(&bytes) ^ INTEGRITY_SALT;
        // Simulated torn write: flip the stored tag (not the name) so
        // the next reader of this pack exercises the rejection path.
        let stored = if failpoint::fire(Site::CacheStore) {
            tag ^ 1
        } else {
            tag
        };
        bytes.extend_from_slice(&stored.to_le_bytes());
        if !write_durably(&self.dir, tag, &bytes) {
            return None;
        }
        for key in entries.keys() {
            self.keys.insert(*key, tag);
        }
        self.seen.insert(tag);
        Some(tag)
    }
}

/// One engine run's reads through an [`Index`], ended by its write
/// ([`Reader::finish`]; see the module doc). Dropping it drops the
/// payloads it read.
pub struct Reader<'a> {
    index: &'a mut Index,
    env_fp: u64,
    listed: bool,
    /// Packs read and checked in this run, by tag.
    packs: HashMap<u64, Pack>,
    /// Packs of this environment that the index's first listing read,
    /// when it read more than one: `finish` folds them into its pack.
    fold: Vec<u64>,
    rejected: u64,
}

impl Reader<'_> {
    /// The payload stored for `key`, from pack bytes read and checked in
    /// this run. Lists the directory first if this run has not yet.
    pub fn get(&mut self, key: u64) -> Option<&[u8]> {
        if !self.listed {
            self.listed = true;
            self.list();
        }
        let tag = *self.index.keys.get(&key)?;
        if !self.load(tag) {
            return None;
        }
        let pack = self.packs.get(&tag)?;
        if pack.env_fp != self.env_fp {
            // Keys mix the environment fingerprint, so only a collision
            // gets here: reject rather than serve another environment's
            // entry.
            self.rejected = self.rejected.saturating_add(1);
            return None;
        }
        pack.entries.get(&key).map(Vec::as_slice)
    }

    /// Packs rejected in this run.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Ends the run: writes `red` (key, linked payload), with the
    /// entries of the packs this run folds, as one pack, then deletes
    /// the folded packs. Best-effort: returns `false` when that pack
    /// could not be written, which leaves the cache cold for `red` and
    /// the folded packs in place.
    pub fn finish(mut self, red: Vec<(u64, Vec<u8>)>) -> bool {
        let mut entries = BTreeMap::new();
        for tag in &self.fold {
            if let Some(pack) = self.packs.remove(tag) {
                entries.extend(pack.entries);
            }
        }
        entries.extend(red);
        if entries.is_empty() {
            return true;
        }
        let Some(written) = self.index.write(self.env_fp, &entries) else {
            return false;
        };
        // Make the new pack's name durable before the names it replaces
        // go: a crash in between leaves duplicates, never a loss.
        if self.fold.is_empty() || sync_dir(&self.index.dir).is_err() {
            return true;
        }
        for &tag in self.fold.iter().filter(|&&t| t != written) {
            let _ = fs::remove_file(pack_path(&self.index.dir, tag));
        }
        true
    }

    /// Indexes the packs in the directory that the index has not seen;
    /// a key in several packs is served from the last one listed. On
    /// the index's first listing, marks the packs read to be folded if
    /// there is more than one of this environment.
    fn list(&mut self) {
        let Ok(entries) = fs::read_dir(&self.index.dir) else {
            return;
        };
        let first = self.index.seen.is_empty();
        let mut listed = Vec::new();
        for entry in entries.flatten() {
            let Some(tag) = entry.file_name().to_str().and_then(pack_tag) else {
                continue;
            };
            if !self.index.seen.insert(tag) || !self.load(tag) {
                continue;
            }
            if let Some(pack) = self.packs.get(&tag) {
                for &key in pack.entries.keys() {
                    self.index.keys.insert(key, tag);
                }
                if pack.env_fp == self.env_fp {
                    listed.push(tag);
                }
            }
        }
        if first && listed.len() > 1 {
            self.fold = listed;
        }
    }

    /// Makes sure pack `tag` is read and checked in this run. A pack
    /// that is gone is a miss; one that cannot be read or fails its
    /// check is rejected whole, and one that fails its check is also
    /// deleted: packs only appear whole (see the module doc), so it is
    /// damaged for good. Either way its keys leave the index.
    fn load(&mut self, tag: u64) -> bool {
        if self.packs.contains_key(&tag) {
            return true;
        }
        let path = pack_path(&self.index.dir, tag);
        let read = fs::read(&path);
        let missing = matches!(&read, Err(e) if e.kind() == io::ErrorKind::NotFound);
        let checked = read.ok().map(|b| check(&b));
        if let Some(Some(pack)) = checked {
            self.packs.insert(tag, pack);
            return true;
        }
        self.index.keys.retain(|_, t| *t != tag);
        if !missing {
            self.rejected = self.rejected.saturating_add(1);
        }
        if checked.is_some() {
            let _ = fs::remove_file(&path);
        }
        false
    }
}

/// A pack read and checked: its environment and its entries.
struct Pack {
    env_fp: u64,
    entries: HashMap<u64, Vec<u8>>,
}

/// Checks a pack's bytes against its tag and layout; `None` rejects the
/// whole pack.
fn check(bytes: &[u8]) -> Option<Pack> {
    if failpoint::fire(Site::CacheLoad) {
        // Simulated corruption: the pack was read but its contents are
        // treated as garbage.
        return None;
    }
    let (body, tag) = bytes.split_at(bytes.len().checked_sub(8)?);
    if u64::from_le_bytes(tag.try_into().ok()?) != hash_bytes(body) ^ INTEGRITY_SALT {
        return None;
    }
    let mut r = ByteReader::new(body);
    let magic = [r.get_u8()?, r.get_u8()?, r.get_u8()?, r.get_u8()?];
    if magic != MAGIC || r.get_u32()? != FORMAT_VERSION {
        return None;
    }
    let env_fp = r.get_u64()?;
    let count = r.get_u64()?;
    // Bound the count by the bytes left before allocating for it: each
    // entry takes at least 16 (its key and its payload's length).
    if count > (r.remaining() / 16) as u64 {
        return None;
    }
    let keys: Vec<u64> = (0..count).map(|_| r.get_u64()).collect::<Option<_>>()?;
    let entries = keys
        .into_iter()
        .map(|key| Some((key, r.get_bytes()?.to_vec())))
        .collect::<Option<_>>()?;
    r.is_empty().then_some(Pack { env_fp, entries })
}

/// Writes `bytes` as pack `tag` in `dir` through a temporary file of
/// its own, fsync'd, then renamed into place.
fn write_durably(dir: &Path, tag: u64, bytes: &[u8]) -> bool {
    let tmp = dir.join(format!(
        "{tag:016x}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = (|| {
        fs::create_dir_all(dir).ok()?;
        let mut f = fs::File::create(&tmp).ok()?;
        f.write_all(bytes).ok()?;
        f.sync_all().ok()
    })()
    .is_some();
    if written && fs::rename(&tmp, pack_path(dir, tag)).is_ok() {
        return true;
    }
    // No other writer uses this name: remove it now rather than leave
    // it to the sweep.
    let _ = fs::remove_file(&tmp);
    false
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Removes what nothing in `dir` will read: temporary files that writers
/// left behind when they died between create and rename (`kill -9`
/// mid-write), once they are older than `min_age` so a live writer's
/// file in flight is left alone, and the per-entry `{key:016x}.urq`
/// files of earlier builds. Only names of those shapes are touched.
/// Returns how many files were removed.
pub fn sweep(dir: &Path, min_age: Duration) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let now = SystemTime::now();
    let mut removed = 0;
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(name) = file_name.to_str() else {
            continue;
        };
        let remove = if is_tmp_name(name) {
            entry
                .metadata()
                .and_then(|m| m.modified())
                .is_ok_and(|t| now.duration_since(t).is_ok_and(|age| age >= min_age))
        } else {
            name.strip_suffix(".urq").is_some_and(is_hex16)
        };
        if remove && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Whether `s` is a `{:016x}`-formatted number.
fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Where pack `tag` lives: packs are named by their integrity tag.
fn pack_path(dir: &Path, tag: u64) -> PathBuf {
    dir.join(format!("{tag:016x}.urp"))
}

/// The tag a pack's file name carries, if `name` is one.
fn pack_tag(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".urp").filter(|s| is_hex16(s))?;
    u64::from_str_radix(stem, 16).ok()
}

/// Whether `name` is a temporary name a writer makes:
/// `{hex16}.{pid}.{seq}.tmp`, or the older `{key:016x}.tmp`.
fn is_tmp_name(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    let digits = |p: &&str| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
    matches!(parts.as_slice(), [stem, mid @ .., "tmp"]
        if is_hex16(stem) && (mid.is_empty() || (mid.len() == 2 && mid.iter().all(digits))))
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

    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn packs(dir: &Path) -> Vec<PathBuf> {
        files(dir)
            .into_iter()
            .filter(|n| pack_tag(n).is_some())
            .map(|n| dir.join(n))
            .collect()
    }

    /// What a fresh index over `dir` serves for each of `keys`, and how
    /// many packs it rejected.
    fn serve(dir: &Path, env_fp: u64, keys: &[u64]) -> (Vec<Option<Vec<u8>>>, u64) {
        let mut index = Index::open(dir.to_path_buf());
        let mut reader = index.reader(env_fp);
        let got = keys
            .iter()
            .map(|&k| reader.get(k).map(<[u8]>::to_vec))
            .collect();
        (got, reader.rejected())
    }

    fn entries(pairs: &[(u64, &[u8])]) -> Vec<(u64, Vec<u8>)> {
        pairs.iter().map(|&(k, p)| (k, p.to_vec())).collect()
    }

    /// Writes `pairs` as one pack through a run of `index` that reads
    /// nothing (so it folds nothing).
    fn store(index: &mut Index, env_fp: u64, pairs: &[(u64, &[u8])]) -> bool {
        index.reader(env_fp).finish(entries(pairs))
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("rt");
        let mut index = Index::open(dir.clone());
        assert!(store(&mut index, 7, &[(42, b"payload"), (43, b"")]));
        assert_eq!(packs(&dir).len(), 1);
        let (got, rejected) = serve(&dir, 7, &[42, 43, 44]);
        assert_eq!(got, [Some(b"payload".to_vec()), Some(Vec::new()), None]);
        assert_eq!(rejected, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_miss_not_a_rejection() {
        let dir = tmp_dir("miss");
        assert_eq!(serve(&dir, 0, &[1]), (vec![None], 0));
    }

    #[test]
    fn env_mismatch_rejects() {
        let dir = tmp_dir("env");
        assert!(store(&mut Index::open(dir.clone()), 100, &[(5, b"x")]));
        assert_eq!(serve(&dir, 101, &[5]), (vec![None], 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_files_are_swept_and_fresh_ones_kept() {
        let dir = tmp_dir("sweep");
        assert!(store(&mut Index::open(dir.clone()), 5, &[(9, b"entry")]));
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
        assert_eq!(sweep(&dir, Duration::from_secs(60)), 2);
        let mut left = files(&dir);
        left.retain(|n| pack_tag(n).is_none());
        assert_eq!(
            left,
            [
                "00000000000000cc.4242.8.tmp",
                "00000000000000dd.x.y.tmp",
                "notes.tmp"
            ]
        );
        assert_eq!(serve(&dir, 5, &[9]).0, [Some(b"entry".to_vec())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn earlier_builds_entries_are_swept_and_other_names_kept() {
        let dir = tmp_dir("retire");
        assert!(store(&mut Index::open(dir.clone()), 5, &[(9, b"entry")]));
        for name in [
            "0123456789abcdef.urq",
            "00000000000000ff.urq",
            // Not of that shape exactly: kept.
            "0123456789abcde.urq",
            "0123456789abcdefa.urq",
            "0123456789abcdeg.urq",
            "0123456789abcdef.urq.bak",
            "notes.urq",
            "0123456789abcdef.txt",
        ] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        // Fresh files, so the age guard does not matter here.
        assert_eq!(sweep(&dir, Duration::from_secs(60)), 2);
        let mut left = files(&dir);
        left.retain(|n| pack_tag(n).is_none());
        assert_eq!(
            left,
            [
                "0123456789abcde.urq",
                "0123456789abcdef.txt",
                "0123456789abcdef.urq.bak",
                "0123456789abcdefa.urq",
                "0123456789abcdeg.urq",
                "notes.urq"
            ]
        );
        assert_eq!(packs(&dir).len(), 1, "the pack survives");
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
                        let mut index = Index::open(dir.clone());
                        start.wait();
                        (0..200u64)
                            .filter(|&i| {
                                // Key 77 is in every writer's packs; the
                                // other key is this writer's own.
                                let own = 100 * (u64::from(t) + 1) + i % 7;
                                !store(&mut index, 5, &[(77, &[t; 64]), (own, &[t; 8])])
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "pack writes raced");
        let leftovers = files(&dir).iter().filter(|n| n.ends_with(".tmp")).count();
        assert_eq!(leftovers, 0, "temporary files left behind");
        let keys: Vec<u64> = std::iter::once(77)
            .chain((1..=4).flat_map(|t| (0..7).map(move |i| 100 * t + i)))
            .collect();
        let (got, rejected) = serve(&dir, 5, &keys);
        assert_eq!(rejected, 0);
        for (key, p) in keys.iter().zip(got) {
            let p = p.unwrap_or_else(|| panic!("key {key} not served"));
            let len = if *key == 77 { 64 } else { 8 };
            assert!(
                p.len() == len && p.iter().all(|&b| b == p[0]),
                "{key}: {p:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bit_flips_reject() {
        let dir = tmp_dir("corrupt");
        let keys = [9, 10, 11];
        let payloads: [&[u8]; 3] = [b"some cached outcome bytes", b"", b"another one"];
        let pairs: Vec<(u64, &[u8])> = keys.iter().copied().zip(payloads).collect();
        assert!(store(&mut Index::open(dir.clone()), 3, &pairs));
        let path = packs(&dir).pop().unwrap();
        let clean = fs::read(&path).unwrap();
        let none = vec![None; keys.len()];
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert_eq!(serve(&dir, 3, &keys), (none.clone(), 1), "cut at {cut}");
        }
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert_eq!(serve(&dir, 3, &keys), (none.clone(), 1), "flip at {pos}");
        }
        fs::write(&path, &clean).unwrap();
        let (got, rejected) = serve(&dir, 3, &keys);
        assert_eq!(rejected, 0);
        assert!(got
            .iter()
            .zip(payloads)
            .all(|(g, p)| g.as_deref() == Some(p)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_pack_is_rejected_once_then_gone() {
        let dir = tmp_dir("damaged");
        assert!(store(&mut Index::open(dir.clone()), 3, &[(9, b"entry")]));
        let path = packs(&dir).pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 1;
        fs::write(&path, bytes).unwrap();
        assert_eq!(serve(&dir, 3, &[9]), (vec![None], 1));
        assert!(packs(&dir).is_empty(), "the damaged pack was kept");
        assert_eq!(serve(&dir, 3, &[9]), (vec![None], 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vanished_pack_is_a_miss_not_a_rejection() {
        let dir = tmp_dir("vanished");
        let mut index = Index::open(dir.clone());
        assert!(store(&mut index, 3, &[(9, b"entry")]));
        assert_eq!(index.reader(3).get(9), Some(&b"entry"[..]));
        fs::remove_file(packs(&dir).pop().unwrap()).unwrap();
        let mut reader = index.reader(3);
        assert_eq!(reader.get(9), None);
        assert_eq!(reader.rejected(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_index_finds_entries_that_another_index_folded() {
        let dir = tmp_dir("refold");
        assert!(store(&mut Index::open(dir.clone()), 5, &[(1, b"one")]));
        let mut live = Index::open(dir.clone());
        assert_eq!(live.reader(5).get(1), Some(&b"one"[..]));
        assert!(store(&mut Index::open(dir.clone()), 5, &[(2, b"two")]));
        // A fresh index folds both packs and deletes them.
        let mut fresh = Index::open(dir.clone());
        let mut reader = fresh.reader(5);
        assert_eq!(reader.get(2), Some(&b"two"[..]));
        assert!(reader.finish(Vec::new()));
        assert_eq!(packs(&dir).len(), 1);
        // The live index still serves key 1, now from the folded pack.
        let mut reader = live.reader(5);
        assert_eq!(reader.get(1), Some(&b"one"[..]));
        assert_eq!(reader.rejected(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_first_listing_folds_the_packs_it_read() {
        let dir = tmp_dir("fold");
        for k in 1..=3u8 {
            let pair = (u64::from(k), &[k; 4][..]);
            assert!(store(&mut Index::open(dir.clone()), 5, &[pair]));
        }
        assert!(store(&mut Index::open(dir.clone()), 6, &[(60, b"x")]));
        assert_eq!(packs(&dir).len(), 4);
        let mut index = Index::open(dir.clone());
        let mut reader = index.reader(5);
        assert_eq!(reader.get(1), Some(&[1u8; 4][..]));
        assert!(reader.finish(entries(&[(4, b"red")])));
        // The three packs of this environment and the red entry are now
        // one pack; the other environment's pack is left alone.
        assert_eq!(packs(&dir).len(), 2);
        let keys = [1, 2, 3, 4];
        let (got, rejected) = serve(&dir, 5, &keys);
        assert_eq!(rejected, 0);
        assert_eq!(
            got,
            [
                Some(vec![1; 4]),
                Some(vec![2; 4]),
                Some(vec![3; 4]),
                Some(b"red".to_vec())
            ]
        );
        assert_eq!(serve(&dir, 6, &[60]), (vec![Some(b"x".to_vec())], 0));
        // An index that has listed before does not fold: later runs read
        // only what other writers added since.
        assert!(store(&mut Index::open(dir.clone()), 5, &[(7, b"a")]));
        assert!(store(&mut Index::open(dir.clone()), 5, &[(8, b"b")]));
        let mut reader = index.reader(5);
        assert_eq!(reader.get(8), Some(&b"b"[..]));
        assert!(reader.finish(Vec::new()));
        assert_eq!(packs(&dir).len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
