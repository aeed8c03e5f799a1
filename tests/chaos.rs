//! Chaos suite: seeded fault injection (`ur_core::failpoint`) against
//! the layers that meet real faults — the incremental engine's disk
//! cache and `ur-db`'s write-ahead log — plus the failpoint
//! configuration surface itself.
//!
//! The contract under test: **faults cost recomputation or a reported
//! error, never results.** The WAL tests arm one deterministic fault per
//! site and check that the live handle and the recovered store both
//! hold exactly what committed.
//!
//! Requires `--features failpoints`:
//!
//! ```sh
//! cargo test -p ur --features failpoints --test chaos
//! ```
//!
//! Every schedule here is fixed, so any failure reproduces by re-running
//! the test (see docs/ROBUSTNESS.md).

use ur::core::failpoint::{self, FpConfig, Site};
use ur::Session;

/// A metaprogramming batch: a record metaprogram, then independent
/// clients.
fn corpus() -> String {
    use std::fmt::Write as _;
    let mut src = String::from(
        "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
            (x : $([nm = t] ++ r)) = x.nm\n\
         fun snd [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
            (x : $([nm = t] ++ r)) (y : t) = y",
    );
    for c in 0..6 {
        let _ = write!(
            src,
            "\nval a{c} = proj [#A] {{A = {c}, B = \"x\", C = {c}.5}}\
             \nval b{c} = snd [#B] {{A = {c}, B = \"x\"}} \"y\"",
        );
    }
    src
}

/// A malformed `UR_FAILPOINTS` is an error, not a silently empty
/// schedule: `urc` exits 2 and names the bad entry — here names of
/// removed sites, so a stale spec cannot run silently fault-free.
#[test]
fn malformed_failpoint_spec_is_rejected_by_urc() {
    for entry in ["worker_exec=500", "memo_load=250", "fuel_charge=500"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_urc"))
            .args(["--eval", "1 + 1"])
            .env("UR_FAILPOINTS", format!("seed=1;{entry}"))
            .output()
            .expect("run urc");
        assert_eq!(out.status.code(), Some(2), "{entry}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("`{entry}`")), "{entry}: {err}");
    }
}

/// The failpoint counters surface end to end: a torn cache-pack write
/// during `Session::reelaborate` shows up in `stats_snapshot` and in
/// its `Display` (the REPL's `:stats`), and a fresh session over the
/// same cache rejects the torn pack and recomputes the same values.
#[test]
fn stats_surface_fault_counters() {
    let dir = std::env::temp_dir().join(format!("ur-chaos-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = corpus();

    let mut sess = Session::new().expect("session");
    sess.cache_dir = Some(dir.clone());
    let _ = failpoint::take_counters();
    failpoint::install(Some(
        FpConfig::new(31)
            .with_rate(Site::CacheStore, 1000)
            .with_max_per_site(1),
    ));
    let (defs, diags) = sess.reelaborate(&src);
    failpoint::install(None);
    assert!(diags.is_empty(), "{diags:?}");

    // NB: the counters are left in place — `capture_failpoints` reads
    // the live thread-locals, so clearing them here would zero the
    // snapshot.
    let snap = sess.stats_snapshot();
    assert!(snap.fp_faults_injected >= 1, "{snap:?}");
    let display = snap.to_string();
    assert!(display.contains("faults[injected="), "{display}");
    assert!(!display.contains("faults[injected=0]"), "{display}");
    let _ = failpoint::take_counters();

    let mut fresh = Session::new().expect("session");
    fresh.cache_dir = Some(dir.clone());
    let (defs2, diags2) = fresh.reelaborate(&src);
    assert!(diags2.is_empty(), "{diags2:?}");
    assert!(fresh.stats().disk_rejections >= 1, "{}", fresh.stats());
    let show = |d: &[(String, ur::Value)]| -> Vec<String> {
        d.iter().map(|(n, v)| format!("{n} = {v}")).collect()
    };
    assert_eq!(show(&defs2), show(&defs), "torn pack changed a value");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------- durability-layer fault injection ----------------

mod wal_chaos {
    use super::*;
    use ur::db::{ColTy, Db, DbError, DbVal, Schema, SqlExpr};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ur-chaos-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema_ab() -> Schema {
        Schema::new(vec![("A".into(), ColTy::Int), ("B".into(), ColTy::Str)]).unwrap()
    }

    fn ins(db: &mut Db, a: i64, b: &str) -> Result<(), DbError> {
        db.insert(
            "t",
            &[
                ("A".into(), SqlExpr::lit(DbVal::Int(a))),
                ("B".into(), SqlExpr::lit(DbVal::Str(b.into()))),
            ],
        )
    }

    /// Arms exactly one deterministic fault at `site` (first draw fires).
    fn arm(site: Site) {
        let _ = failpoint::take_counters();
        failpoint::install(Some(
            FpConfig::new(7).with_rate(site, 1000).with_max_per_site(1),
        ));
    }

    /// A failed WAL append is an error with *no trace*: the in-memory
    /// state is unchanged, later commits work, and a reopen sees only
    /// the successful ones.
    #[test]
    fn wal_append_fault_leaves_no_trace() {
        let dir = tmpdir("append");
        let mut db = Db::open(&dir).expect("open");
        db.create_table("t", schema_ab()).unwrap();
        arm(Site::WalAppend);
        let err = ins(&mut db, 1, "doomed").unwrap_err();
        failpoint::install(None);
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert_eq!(db.row_count("t").unwrap(), 0, "failed commit left state");
        assert!(db.stats().wal_append_errs >= 1, "{}", db.stats());

        ins(&mut db, 2, "kept").unwrap();
        let dump = db.dump();
        drop(db);
        let db2 = Db::open(&dir).expect("reopen");
        assert_eq!(db2.dump(), dump);
        assert_eq!(db2.row_count("t").unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fsync failure fails the *explicit* transaction commit and rolls
    /// the whole transaction back — in memory and on disk.
    #[test]
    fn wal_sync_fault_rolls_back_explicit_txn() {
        let dir = tmpdir("sync");
        let mut db = Db::open(&dir).expect("open");
        db.create_table("t", schema_ab()).unwrap();
        db.begin().unwrap();
        ins(&mut db, 1, "a").unwrap();
        ins(&mut db, 2, "b").unwrap();
        arm(Site::WalSync);
        let err = db.commit().unwrap_err();
        failpoint::install(None);
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert!(!db.in_txn(), "failed commit must close the transaction");
        assert_eq!(db.row_count("t").unwrap(), 0, "rolled-back rows visible");
        assert_eq!(db.stats().txn_rollbacks, 1, "{}", db.stats());
        drop(db);
        assert_eq!(Db::open(&dir).expect("reopen").row_count("t").unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected torn commit record deliberately stays on disk: the
    /// live handle reports the failure and stays consistent, and the
    /// recovery path truncates the corrupt tail.
    #[test]
    fn torn_commit_record_is_truncated_on_recovery() {
        let dir = tmpdir("torn");
        let mut db = Db::open(&dir).expect("open");
        db.create_table("t", schema_ab()).unwrap();
        let committed = db.wal_len();
        arm(Site::WalCorrupt);
        let err = ins(&mut db, 1, "torn").unwrap_err();
        failpoint::install(None);
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert_eq!(db.row_count("t").unwrap(), 0);
        // The corrupt tail is really on disk, past the committed prefix.
        let disk_len = std::fs::metadata(dir.join(ur::db::WAL_FILE)).unwrap().len();
        assert!(disk_len > committed, "disk_len={disk_len} committed={committed}");
        drop(db);
        let db2 = Db::open(&dir).expect("recovery over torn tail");
        assert_eq!(db2.row_count("t").unwrap(), 0);
        assert!(db2.stats().truncated_bytes > 0, "{}", db2.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed snapshot write fails the checkpoint but loses nothing:
    /// the WAL is kept, the data stays recoverable, and the failure is
    /// counted.
    #[test]
    fn snapshot_write_fault_keeps_wal_and_data() {
        let dir = tmpdir("snap");
        let mut db = Db::open(&dir).expect("open");
        db.create_table("t", schema_ab()).unwrap();
        ins(&mut db, 1, "precious").unwrap();
        let wal_before = db.wal_len();
        arm(Site::SnapshotWrite);
        let err = db.checkpoint().unwrap_err();
        failpoint::install(None);
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert_eq!(db.stats().snapshot_errs, 1, "{}", db.stats());
        assert_eq!(db.wal_len(), wal_before, "failed checkpoint touched the WAL");
        let dump = db.dump();
        drop(db);
        let db2 = Db::open(&dir).expect("reopen");
        assert_eq!(db2.dump(), dump, "data lost by a failed checkpoint");
        assert_eq!(db2.stats().snapshot_loaded, 0, "partial snapshot was loaded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed WAL rotation *after* its snapshot landed poisons the
    /// handle — the old-generation log is superseded, so appends to it
    /// would be silently ignored at recovery. While poisoned, appends
    /// fail with the poison reason; each one first retries the
    /// checkpoint as its heal, so once the fault stops firing the next
    /// append succeeds and clears the poison.
    #[test]
    fn wal_rotate_fault_poisons_then_heals() {
        let dir = tmpdir("rotate");
        let mut db = Db::open(&dir).expect("open");
        db.create_table("t", schema_ab()).unwrap();
        ins(&mut db, 1, "kept").unwrap();
        assert_eq!(db.wal_generation(), 1);

        arm(Site::WalRotate);
        let err = db.checkpoint().unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert!(db.poison_reason().is_some(), "rotate failure must poison");
        assert_eq!(db.stats().rotate_errs, 1, "{}", db.stats());

        // Still poisoned and the fault still firing: the append's heal
        // checkpoint fails too, and the append is refused.
        arm(Site::WalRotate);
        let err = ins(&mut db, 2, "refused").unwrap_err();
        assert!(matches!(err, DbError::Poisoned(_)), "{err}");
        assert_eq!(db.row_count("t").unwrap(), 1, "refused append left state");

        // Fault gone: the next append self-heals, then lands normally.
        failpoint::install(None);
        ins(&mut db, 2, "after-heal").unwrap();
        assert!(db.poison_reason().is_none(), "heal did not clear the poison");
        assert_eq!(db.wal_generation(), 2, "heal checkpoint rotated the log");

        let dump = db.dump();
        drop(db);
        let db2 = Db::open(&dir).expect("reopen after heal");
        assert_eq!(db2.dump(), dump);
        assert_eq!(db2.row_count("t").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The live handle stays fully usable across an injected torn write:
    /// the next append overwrites the corrupt tail in place.
    #[test]
    fn live_handle_overwrites_torn_tail() {
        let dir = tmpdir("overwrite");
        let mut db = Db::open(&dir).expect("open");
        db.create_table("t", schema_ab()).unwrap();
        arm(Site::WalCorrupt);
        assert!(ins(&mut db, 1, "torn").is_err());
        failpoint::install(None);
        ins(&mut db, 2, "after").unwrap();
        let dump = db.dump();
        drop(db);
        let db2 = Db::open(&dir).expect("reopen");
        assert_eq!(db2.dump(), dump);
        assert_eq!(db2.row_count("t").unwrap(), 1);
        assert_eq!(db2.stats().truncated_bytes, 0, "tail survived the overwrite");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
