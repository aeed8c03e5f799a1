//! Chaos differential suite: seeded fault injection against the
//! self-healing elaboration pipeline (`ur_core::failpoint`,
//! `ur_web::Session`).
//!
//! The contract under test: **faults cost retries and recomputation,
//! never results.** Every test elaborates a batch under a deterministic
//! fault schedule and compares declarations (up to fresh symbol ids) and
//! diagnostics against the clean run, while asserting that
//! the intended recovery path actually ran (via the healing counters in
//! `Stats` and the per-site injection counters).
//!
//! Requires `--features failpoints`:
//!
//! ```sh
//! cargo test -p ur --features failpoints --test chaos
//! ```
//!
//! Every failure message carries the seed; reproduce a CI failure by
//! re-running with `UR_CHAOS_SEED=<seed>` (see docs/ROBUSTNESS.md).

use ur::core::failpoint::{self, FpConfig, FpCounters, Site};
use ur::core::prelude::{Fuel, Limits, Stats};
use ur::infer::Elaborator;
use ur::web::BreakerConfig;
use ur::Session;

const MATRIX_SEEDS: &[u64] = &[0xA11CE, 0xB0B, 0xC4A05];

/// Erases gensym counters (`foo#123` -> `foo#`) so runs drawing
/// different fresh-symbol numbers compare structurally.
fn strip_sym_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '#' {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        }
    }
    out
}

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

/// A fault schedule touching every elaboration site at moderate rates,
/// capped below the retry budget so healing always converges.
fn balanced(seed: u64) -> FpConfig {
    FpConfig::new(seed)
        .with_max_per_site(2)
        .with_rate(Site::MemoLoad, 60)
        .with_rate(Site::MemoStore, 60)
        .with_rate(Site::InternGrow, 40)
        .with_rate(Site::FuelCharge, 4)
}

/// Elaborates `src` once in a fresh session under `cfg` (clean when
/// `None`; the schedule starts after the prelude is installed). Returns
/// (decl fingerprints, diag fingerprints, stats, faults injected).
fn run_batch(src: &str, cfg: Option<FpConfig>) -> (Vec<String>, Vec<String>, Stats, FpCounters) {
    let mut sess = Session::new().expect("session");
    let _ = failpoint::take_counters();
    failpoint::install(cfg);
    let (decls, diags) = sess.elab.elab_source_all(src);
    failpoint::install(None);
    let fp = failpoint::take_counters();
    let decl_fps = decls
        .iter()
        .map(|d| strip_sym_ids(&format!("{d:?}")))
        .collect();
    let diag_fps = diags.iter().map(|d| d.to_string()).collect();
    (decl_fps, diag_fps, sess.elab.cx.stats.clone(), fp)
}

// ---------------- the differential matrix ----------------

/// Fixed seeds, all elaboration sites active: results must equal the
/// clean baseline, always.
#[test]
fn seeded_chaos_matrix_never_diverges() {
    let src = corpus();
    let (base_decls, base_diags, _, fp) = run_batch(&src, None);
    assert_eq!(fp, FpCounters::default(), "baseline must be fault-free");
    assert!(base_diags.is_empty(), "corpus must be clean: {base_diags:?}");

    let mut seeds: Vec<u64> = MATRIX_SEEDS.to_vec();
    // CI repro hook: an extra externally-chosen seed.
    if let Some(s) = std::env::var("UR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        seeds.push(s);
    }
    for seed in seeds {
        let (decls, diags, _, _) = run_batch(&src, Some(balanced(seed)));
        assert_eq!(
            decls, base_decls,
            "declarations diverged under chaos: UR_CHAOS_SEED={seed}"
        );
        assert_eq!(
            diags, base_diags,
            "diagnostics diverged under chaos: UR_CHAOS_SEED={seed}"
        );
    }
}

/// One randomized-seed run per invocation (the CI chaos job relies on
/// this): the seed is printed and embedded in every assertion message,
/// so any failure reproduces with `UR_CHAOS_SEED=<seed>`.
#[test]
fn randomized_seed_run_embeds_its_seed_in_failures() {
    let seed: u64 = std::env::var("UR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
                .unwrap_or(0xDEFA17);
            nanos | 1
        });
    println!("chaos randomized seed: UR_CHAOS_SEED={seed}");
    let src = corpus();
    let (base_decls, base_diags, _, _) = run_batch(&src, None);
    let (decls, diags, _, _) = run_batch(&src, Some(balanced(seed)));
    assert_eq!(
        decls, base_decls,
        "diverged — reproduce with UR_CHAOS_SEED={seed}"
    );
    assert_eq!(
        diags, base_diags,
        "diverged — reproduce with UR_CHAOS_SEED={seed}"
    );
}

// ---------------- per-site recovery paths ----------------

/// Corrupt memo entries (at store or load time) must be caught by the
/// per-entry integrity check, evicted, and recomputed — results equal,
/// rejections counted.
#[test]
fn memo_corruption_is_rejected_and_recomputed() {
    let src = corpus();
    let (base_decls, base_diags, _, _) = run_batch(&src, None);
    let cfg = FpConfig::new(13)
        .with_max_per_site(64)
        .with_rate(Site::MemoLoad, 500)
        .with_rate(Site::MemoStore, 500);
    let (decls, diags, _, fp) = run_batch(&src, Some(cfg));
    assert_eq!(decls, base_decls, "memo corruption leaked into results");
    assert_eq!(diags, base_diags, "memo corruption leaked into diagnostics");
    assert!(
        fp.injected[Site::MemoLoad.index()] + fp.injected[Site::MemoStore.index()] >= 1,
        "{fp:?}"
    );
    assert!(fp.integrity_rejections >= 1, "{fp:?}");
}

/// Phantom fuel bursts cause a spurious resource exhaustion; the
/// bounded declaration retry (whose final attempt is guaranteed
/// fault-free by the per-site cap) must converge to the clean result
/// with no diagnostic.
#[test]
fn phantom_fuel_exhaustion_is_retried_to_the_clean_result() {
    let src = "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
               (x : $([nm = t] ++ r)) = x.nm";
    let mut clean = Elaborator::new();
    let decls = clean.elab_source(src).expect("clean elaboration");
    let clean_fps: Vec<String> = decls
        .iter()
        .map(|d| strip_sym_ids(&format!("{d:?}")))
        .collect();
    let used = clean.cx.fuel.lifetime_norm_steps();
    assert!(used > 0, "corpus must charge fuel");

    // Budget 2x the real need: the clean run fits easily, but three
    // injected bursts of budget/4+1 steps each force an exhaustion on
    // the first attempt no matter how the real steps interleave.
    let mut el = Elaborator::new();
    el.cx.fuel = Fuel::new(Limits {
        max_norm_steps: used * 2,
        ..Limits::default()
    });
    let _ = failpoint::take_counters();
    failpoint::install(Some(
        FpConfig::new(17)
            .with_max_per_site(3)
            .with_rate(Site::FuelCharge, 1000),
    ));
    let (decls2, diags) = el.elab_source_all(src);
    failpoint::install(None);
    let fp = failpoint::take_counters();
    let fps2: Vec<String> = decls2
        .iter()
        .map(|d| strip_sym_ids(&format!("{d:?}")))
        .collect();
    assert!(
        diags.is_empty(),
        "phantom exhaustion leaked a diagnostic: {diags:?}"
    );
    assert_eq!(fps2, clean_fps, "retry produced a different declaration");
    assert!(fp.injected[Site::FuelCharge.index()] >= 1, "{fp:?}");
    assert!(el.cx.stats.decl_retries >= 1, "{:?}", el.cx.stats);
}

/// Intern-table growth faults (forced rehash) are semantically
/// invisible: hash-consing still canonicalizes, results still match.
#[test]
fn intern_growth_faults_are_invisible() {
    let src = corpus();
    let (base_decls, base_diags, _, _) = run_batch(&src, None);
    let cfg = FpConfig::new(19)
        .with_max_per_site(64)
        .with_rate(Site::InternGrow, 1000);
    let (decls, diags, _, fp) = run_batch(&src, Some(cfg));
    assert_eq!(decls, base_decls);
    assert_eq!(diags, base_diags);
    assert!(fp.injected[Site::InternGrow.index()] >= 1, "{fp:?}");
}

// ---------------- session-level self-healing ----------------

/// Satellite: a chaos-aborted batch must leave no trace after
/// `rollback` — env, folder caches, memo tables, stats, and database
/// all return to the pre-batch snapshot.
#[test]
fn chaos_batch_rolls_back_to_prebatch_state() {
    let mut sess = Session::new().expect("session");
    sess.run("val base = 10").expect("base decl");
    let stats_before = sess.stats().clone();
    let snap = sess.snapshot();

    let _ = failpoint::take_counters();
    failpoint::install(Some(balanced(23)));
    let (_defs, _diags) = sess.run_all(&format!(
        "{}\nval bad : int = \"nope\"\nval t = createTable \"chaos_t\" {{K = sqlInt}}",
        corpus()
    ));
    failpoint::install(None);
    let _ = failpoint::take_counters();

    sess.rollback(snap);
    assert_eq!(
        *sess.stats(),
        stats_before,
        "stats drifted across a rolled-back chaos batch"
    );
    assert!(sess.get("a0").is_none(), "binding survived rollback");
    assert!(sess.get("t").is_none(), "table binding survived rollback");
    assert!(
        sess.world.db.row_count("chaos_t").is_err(),
        "database table survived rollback"
    );
    assert_eq!(sess.get_int("base").expect("base survives"), 10);

    // The rolled-back session elaborates and evaluates normally.
    sess.run("val after = base + 32").expect("post-rollback decl");
    assert_eq!(sess.get_int("after").expect("after"), 42);
}

/// Sustained memo corruption must trip the session's circuit breaker;
/// the next batch runs degraded (memo off) and still correct.
#[test]
fn sustained_faults_trip_the_breaker_and_degrade() {
    let mut sess = Session::new().expect("session");
    sess.breaker.config = BreakerConfig {
        window: 2,
        threshold: 1,
        ..BreakerConfig::default()
    };

    let _ = failpoint::take_counters();
    failpoint::install(Some(
        FpConfig::new(29)
            .with_max_per_site(64)
            .with_rate(Site::MemoStore, 1000)
            .with_rate(Site::MemoLoad, 1000),
    ));
    let (defs, diags) = sess.run_all(&corpus());
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(defs.len(), 14);
    assert!(
        sess.breaker.is_open(),
        "memo rejections must trip the breaker:\n{}",
        sess.health_report()
    );
    assert_eq!(sess.stats().breaker_trips, 1);

    // Degraded batch: memoization is off, so the memo-corruption
    // schedule (still installed) has nothing to bite.
    let (defs2, diags2) = sess.run_all("val b1 = 5\nval b2 = 6");
    failpoint::install(None);
    let _ = failpoint::take_counters();
    assert!(diags2.is_empty(), "{diags2:?}");
    assert_eq!(defs2.len(), 2);
    assert_eq!(sess.stats().breaker_degraded_batches, 1);
    assert!(!sess.elab.cx.memo.enabled, "memo must be off while open");
    assert_eq!(sess.get_int("b2").expect("b2"), 6);

    let report = sess.health_report();
    assert!(report.contains("OPEN (degraded)"), "{report}");
    assert!(report.contains("trips=1"), "{report}");
}

/// A malformed `UR_FAILPOINTS` is an error, not a silently empty
/// schedule: `urc` exits 2 and names the bad entry (here a site name
/// that no longer exists).
#[test]
fn malformed_failpoint_spec_is_rejected_by_urc() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_urc"))
        .args(["--eval", "1 + 1"])
        .env("UR_FAILPOINTS", "seed=1;worker_exec=500")
        .output()
        .expect("run urc");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`worker_exec=500`"), "{err}");
}

/// The failpoint counters surface end to end: `Stats` display (the
/// REPL's `:stats`) and the health report both carry nonzero fault and
/// healing numbers after a chaotic batch.
#[test]
fn stats_and_health_surface_fault_counters() {
    let mut sess = Session::new().expect("session");
    let _ = failpoint::take_counters();
    failpoint::install(Some(
        FpConfig::new(31)
            .with_max_per_site(64)
            .with_rate(Site::MemoStore, 800)
            .with_rate(Site::MemoLoad, 800),
    ));
    let (_defs, diags) = sess.run_all(&corpus());
    failpoint::install(None);
    assert!(diags.is_empty(), "{diags:?}");

    // NB: the counters are left in place — `capture_failpoints` reads
    // the live thread-locals, so clearing them here would zero the
    // snapshot.
    let snap = sess.stats_snapshot();
    assert!(snap.fp_faults_injected >= 1, "{snap:?}");
    assert!(snap.fp_memo_rejections >= 1, "{snap:?}");
    let display = snap.to_string();
    assert!(display.contains("faults["), "{display}");

    let report = sess.health_report();
    assert!(report.contains("fault injection: injected="), "{report}");
    assert!(!report.contains("injected=0"), "{report}");
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
