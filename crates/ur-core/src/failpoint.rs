//! Deterministic fault injection ("failpoints").
//!
//! Production-grade recovery paths — the dead-worker fallback in the
//! parallel scheduler, memo-entry integrity rejection, fuel-accounting
//! audits — are unreachable from well-behaved inputs, so nothing in an
//! ordinary test run ever executes them. This module provides *named
//! fault sites* that the fragile layers consult, plus a seeded PRNG
//! schedule deciding which consultations actually inject a fault:
//!
//! * **Named sites** ([`Site`]): worker spawn/execution/send/stall in
//!   `ur-infer::batch`, memo-table load/store in [`crate::memo`],
//!   intern-table growth in [`crate::intern`], fuel accounting in
//!   [`crate::limits`], incremental-cache load/store in `ur-query`,
//!   WAL append/sync/corrupt/rotate + snapshot write in `ur-db`'s
//!   durability layer, and the `ur-serve` front door
//!   (accept/read/write/worker-wedge).
//! * **Seeded activation**: each site draws from a splitmix64 stream
//!   keyed by `(seed, site, hit index)`, so a given configuration
//!   produces the same fault schedule on every run — chaos tests print
//!   their seed and any failure reproduces from it.
//! * **Bounded chaos**: `max_per_site` caps how many times each site
//!   fires. The self-healing layers retry a bounded number of times, so
//!   capping the faults below the retry budget guarantees convergence to
//!   the clean result (see `docs/ROBUSTNESS.md`).
//! * **Zero cost when disabled**: without the `failpoints` cargo feature
//!   (the default), [`fire`] is a `const false` inline stub and every
//!   call site folds away; the memo integrity fields are not even
//!   compiled. Release builds ship with the feature off.
//!
//! Configuration is per-thread ([`install`]); the batch scheduler ships
//! the coordinator's config to its workers so one [`FpConfig`] governs a
//! whole parallel elaboration. The `UR_FAILPOINTS` environment variable
//! (`seed=42;max=3;worker_exec=500;memo_load=250`, rates in permille)
//! configures binaries without code changes ([`FpConfig::from_env`]).

use std::fmt;

/// Number of named sites (length of [`Site::ALL`]).
pub const NSITES: usize = 19;

/// A named fault-injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// Worker-thread spawn in the batch scheduler fails; the pool runs
    /// smaller (possibly empty, degrading to sequential elaboration).
    WorkerSpawn,
    /// A worker dies mid-task (announces the death, sends no outcome).
    WorkerExec,
    /// A worker finishes a task but the outcome is lost in transit; the
    /// coordinator's watchdog must notice and re-dispatch.
    WorkerSend,
    /// A worker stalls briefly before responding, exercising the
    /// watchdog's patience without losing the result.
    WorkerStall,
    /// A memo-table load observes a corrupt entry; the per-entry
    /// integrity check must reject it and recompute.
    MemoLoad,
    /// A memo-table store writes a corrupt entry (detected on a later
    /// load by the integrity check).
    MemoStore,
    /// Intern-table growth hiccups (transient rehash); healed in place.
    InternGrow,
    /// Fuel accounting mischarges a burst of phantom steps; a resulting
    /// spurious exhaustion is healed by the bounded declaration retry.
    FuelCharge,
    /// Reading an on-disk incremental-cache pack observes corruption;
    /// the pack is rejected whole and deleted, and its declarations
    /// recompute.
    CacheLoad,
    /// Writing an on-disk incremental-cache pack corrupts its integrity
    /// tag in flight (detected by a later reader's check).
    CacheStore,
    /// Appending a record to the `ur-db` write-ahead log fails (simulated
    /// `write(2)` error, or a mid-record crash under `UR_DB_CRASH=abort`).
    WalAppend,
    /// The fsync sealing a WAL commit fails (or the process dies between
    /// the write and the sync) — the transaction must not be acknowledged.
    WalSync,
    /// Writing a snapshot during checkpoint compaction fails; the WAL is
    /// kept so no committed data is lost.
    SnapshotWrite,
    /// A WAL record reaches the disk with a corrupt CRC (torn write);
    /// recovery must truncate the tail at the last committed boundary.
    WalCorrupt,
    /// The WAL rotation that follows a successful snapshot rename fails
    /// (or the process dies in that window) — the freshly renamed
    /// snapshot and the full pre-checkpoint WAL coexist on disk, and
    /// recovery must recognize the stale log by its generation number
    /// rather than double-applying it.
    WalRotate,
    /// A freshly accepted serve connection dies before the handler takes
    /// over (simulated reset at accept time); the acceptor must keep
    /// accepting and the client sees a clean close, never a hang.
    ServeAccept,
    /// Reading a request line from a serve connection fails mid-line;
    /// the connection is torn down without corrupting the session or
    /// leaking its admission slot.
    ServeRead,
    /// Writing a response back to a serve client fails after the request
    /// was already executed — the classic acked-vs-applied ambiguity the
    /// durable-write gate in `ur-bench serve` has to survive.
    ServeWrite,
    /// A pool worker wedges (bounded stall past the watchdog budget);
    /// the supervisor must replace it and restore its sessions without
    /// wrong answers or acked-write loss.
    ServeWedge,
}

impl Site {
    /// Every site, in stable order (indexes into [`FpCounters::injected`]).
    pub const ALL: [Site; NSITES] = [
        Site::WorkerSpawn,
        Site::WorkerExec,
        Site::WorkerSend,
        Site::WorkerStall,
        Site::MemoLoad,
        Site::MemoStore,
        Site::InternGrow,
        Site::FuelCharge,
        Site::CacheLoad,
        Site::CacheStore,
        Site::WalAppend,
        Site::WalSync,
        Site::SnapshotWrite,
        Site::WalCorrupt,
        Site::WalRotate,
        Site::ServeAccept,
        Site::ServeRead,
        Site::ServeWrite,
        Site::ServeWedge,
    ];

    /// Stable index of this site.
    pub fn index(self) -> usize {
        match self {
            Site::WorkerSpawn => 0,
            Site::WorkerExec => 1,
            Site::WorkerSend => 2,
            Site::WorkerStall => 3,
            Site::MemoLoad => 4,
            Site::MemoStore => 5,
            Site::InternGrow => 6,
            Site::FuelCharge => 7,
            Site::CacheLoad => 8,
            Site::CacheStore => 9,
            Site::WalAppend => 10,
            Site::WalSync => 11,
            Site::SnapshotWrite => 12,
            Site::WalCorrupt => 13,
            Site::WalRotate => 14,
            Site::ServeAccept => 15,
            Site::ServeRead => 16,
            Site::ServeWrite => 17,
            Site::ServeWedge => 18,
        }
    }

    /// The configuration/reporting name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::WorkerSpawn => "worker_spawn",
            Site::WorkerExec => "worker_exec",
            Site::WorkerSend => "worker_send",
            Site::WorkerStall => "worker_stall",
            Site::MemoLoad => "memo_load",
            Site::MemoStore => "memo_store",
            Site::InternGrow => "intern_grow",
            Site::FuelCharge => "fuel_charge",
            Site::CacheLoad => "cache_load",
            Site::CacheStore => "cache_store",
            Site::WalAppend => "wal_append",
            Site::WalSync => "wal_sync",
            Site::SnapshotWrite => "snapshot_write",
            Site::WalCorrupt => "wal_corrupt",
            Site::WalRotate => "wal_rotate",
            Site::ServeAccept => "serve_accept",
            Site::ServeRead => "serve_read",
            Site::ServeWrite => "serve_write",
            Site::ServeWedge => "serve_wedge",
        }
    }

    /// Parses a site name (as produced by [`Site::name`]).
    pub fn from_name(s: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|site| site.name() == s)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault schedule: a seed, a per-site activation rate in
/// permille (0..=1000), and a per-site cap on total fires.
///
/// `Copy + Send` so the batch scheduler can ship the coordinator's
/// schedule to worker threads inside its base snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpConfig {
    /// Seed of the activation PRNG. Printed by the chaos harnesses so
    /// any failure reproduces exactly.
    pub seed: u64,
    /// Cap on fires per site. Keep this *below* the retry budgets
    /// (`MAX_DECL_RETRIES`, the scheduler's task-retry cap) to guarantee
    /// the self-healing layers converge to the clean result.
    pub max_per_site: u32,
    rates: [u16; NSITES],
}

impl FpConfig {
    /// A schedule with the given seed and every rate zero.
    pub fn new(seed: u64) -> FpConfig {
        FpConfig {
            seed,
            max_per_site: 3,
            rates: [0; NSITES],
        }
    }

    /// Builder: sets `site`'s activation rate in permille (clamped to
    /// 1000).
    pub fn with_rate(mut self, site: Site, permille: u16) -> FpConfig {
        self.rates[site.index()] = permille.min(1000);
        self
    }

    /// Builder: sets the per-site fire cap.
    pub fn with_max_per_site(mut self, max: u32) -> FpConfig {
        self.max_per_site = max;
        self
    }

    /// `site`'s activation rate in permille.
    pub fn rate(&self, site: Site) -> u16 {
        self.rates[site.index()]
    }

    /// True when at least one site has a nonzero rate.
    pub fn any_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0)
    }

    /// Parses `seed=N;max=N;<site>=permille;...` (any order, `;` or `,`
    /// separated). Unknown keys and malformed entries yield `None` so a
    /// typo in `UR_FAILPOINTS` is loud, not silently ignored.
    pub fn parse(spec: &str) -> Option<FpConfig> {
        let mut cfg = FpConfig::new(0);
        for part in spec.split([';', ',']) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => cfg.seed = value.parse().ok()?,
                "max" => cfg.max_per_site = value.parse().ok()?,
                _ => {
                    let site = Site::from_name(key)?;
                    cfg.rates[site.index()] = value.parse::<u16>().ok()?.min(1000);
                }
            }
        }
        Some(cfg)
    }

    /// The schedule named by the `UR_FAILPOINTS` environment variable,
    /// if any ([`FpConfig::parse`] format).
    pub fn from_env() -> Option<FpConfig> {
        let spec = std::env::var("UR_FAILPOINTS").ok()?;
        FpConfig::parse(&spec)
    }
}

/// Per-thread fault-injection counters, merged across workers by the
/// batch coordinator with saturating arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpCounters {
    /// Faults injected per site ([`Site::index`] order).
    pub injected: [u64; NSITES],
    /// Memo entries rejected by the per-entry integrity check.
    pub integrity_rejections: u64,
}

impl FpCounters {
    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// Number of distinct sites that fired at least once.
    pub fn sites_exercised(&self) -> usize {
        self.injected.iter().filter(|&&n| n > 0).count()
    }

    /// Adds `other` into `self`, saturating at `u64::MAX` (the same
    /// contract as [`crate::stats::Stats::absorb`]).
    pub fn absorb(&mut self, other: &FpCounters) {
        for (a, b) in self.injected.iter_mut().zip(other.injected.iter()) {
            *a = a.saturating_add(*b);
        }
        self.integrity_rejections = self
            .integrity_rejections
            .saturating_add(other.integrity_rejections);
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FpConfig, FpCounters, Site, NSITES};
    use std::cell::RefCell;

    /// splitmix64: the standard 64-bit mixer; full-period, stateless here
    /// because we mix a composite key rather than advancing a stream.
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[derive(Default)]
    struct FpState {
        config: Option<FpConfig>,
        /// Total consultations per site (the PRNG stream position).
        hits: [u64; NSITES],
        counters: FpCounters,
    }

    thread_local! {
        static STATE: RefCell<FpState> = RefCell::new(FpState::default());
    }

    /// Installs (or clears, with `None`) this thread's fault schedule.
    /// Also resets the hit streams so a fresh install replays its
    /// schedule from the start; counters are left for [`take_counters`].
    pub fn install(config: Option<FpConfig>) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.config = config;
            s.hits = [0; NSITES];
        });
    }

    /// This thread's installed schedule, if any.
    pub fn config() -> Option<FpConfig> {
        STATE.with(|s| s.borrow().config)
    }

    /// True when a schedule with at least one nonzero rate is installed.
    pub fn active() -> bool {
        STATE.with(|s| s.borrow().config.is_some_and(|c| c.any_active()))
    }

    /// Consults `site`: true means *inject the fault now*. Deterministic
    /// given the installed config and the site's consultation count.
    pub fn fire(site: Site) -> bool {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some(cfg) = s.config else { return false };
            let ix = site.index();
            let rate = cfg.rate(site);
            if rate == 0 {
                return false;
            }
            let hit = s.hits[ix];
            s.hits[ix] = hit.wrapping_add(1);
            if s.counters.injected[ix] >= u64::from(cfg.max_per_site) {
                return false;
            }
            let draw = splitmix64(
                cfg.seed ^ (ix as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ hit,
            );
            if (draw % 1000) < u64::from(rate) {
                s.counters.injected[ix] = s.counters.injected[ix].saturating_add(1);
                true
            } else {
                false
            }
        })
    }

    /// This thread's counters (injected faults, integrity rejections),
    /// including any worker counters absorbed via [`absorb_counters`].
    pub fn counters() -> FpCounters {
        STATE.with(|s| s.borrow().counters)
    }

    /// Reads and clears this thread's counters (used by batch workers to
    /// ship per-task deltas to the coordinator).
    pub fn take_counters() -> FpCounters {
        STATE.with(|s| std::mem::take(&mut s.borrow_mut().counters))
    }

    /// Folds a worker's shipped counters into this thread's.
    pub fn absorb_counters(other: &FpCounters) {
        STATE.with(|s| s.borrow_mut().counters.absorb(other));
    }

    /// Records a memo-entry integrity rejection (called by [`crate::memo`]).
    pub fn note_integrity_rejection() {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.counters.integrity_rejections = s.counters.integrity_rejections.saturating_add(1);
        });
    }

    /// Faults injected so far at `site` on this thread (used by the
    /// declaration retry loop to decide whether an exhaustion is
    /// suspect).
    pub fn injected_at(site: Site) -> u64 {
        STATE.with(|s| s.borrow().counters.injected[site.index()])
    }

    /// Compile-time flag: the `failpoints` feature is on.
    pub const ENABLED: bool = true;
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::{FpConfig, FpCounters, Site};

    // Zero-cost stubs: `fire` is `const false`, so every call site's
    // fault branch folds away and release builds carry no failpoint
    // state at all.

    #[inline(always)]
    pub fn install(_config: Option<FpConfig>) {}

    #[inline(always)]
    pub fn config() -> Option<FpConfig> {
        None
    }

    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    #[inline(always)]
    pub fn fire(_site: Site) -> bool {
        false
    }

    #[inline(always)]
    pub fn counters() -> FpCounters {
        FpCounters::default()
    }

    #[inline(always)]
    pub fn take_counters() -> FpCounters {
        FpCounters::default()
    }

    #[inline(always)]
    pub fn absorb_counters(_other: &FpCounters) {}

    #[inline(always)]
    pub fn note_integrity_rejection() {}

    #[inline(always)]
    pub fn injected_at(_site: Site) -> u64 {
        0
    }

    /// Compile-time flag: the `failpoints` feature is off.
    pub const ENABLED: bool = false;
}

pub use imp::{
    absorb_counters, active, config, counters, fire, injected_at, install,
    note_integrity_rejection, take_counters, ENABLED,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_sites_and_meta_keys() {
        let cfg = FpConfig::parse("seed=42; max=5; worker_exec=500, memo_load=250")
            .expect("valid spec");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.max_per_site, 5);
        assert_eq!(cfg.rate(Site::WorkerExec), 500);
        assert_eq!(cfg.rate(Site::MemoLoad), 250);
        assert_eq!(cfg.rate(Site::FuelCharge), 0);
        assert!(cfg.any_active());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_garbage() {
        assert!(FpConfig::parse("bogus_site=10").is_none());
        assert!(FpConfig::parse("worker_exec").is_none());
        assert!(FpConfig::parse("seed=notanumber").is_none());
        // Empty spec is a valid (inert) schedule.
        let cfg = FpConfig::parse("").expect("empty is fine");
        assert!(!cfg.any_active());
    }

    #[test]
    fn rates_clamp_to_permille() {
        let cfg = FpConfig::new(1).with_rate(Site::MemoStore, 9999);
        assert_eq!(cfg.rate(Site::MemoStore), 1000);
    }

    #[test]
    fn site_names_round_trip() {
        for site in Site::ALL {
            assert_eq!(Site::from_name(site.name()), Some(site));
        }
        assert_eq!(Site::from_name("nope"), None);
    }

    #[test]
    fn counters_absorb_saturates() {
        let mut a = FpCounters::default();
        a.injected[0] = u64::MAX - 1;
        a.integrity_rejections = 2;
        let mut b = FpCounters::default();
        b.injected[0] = 10;
        b.injected[3] = 7;
        b.integrity_rejections = 5;
        a.absorb(&b);
        assert_eq!(a.injected[0], u64::MAX);
        assert_eq!(a.injected[3], 7);
        assert_eq!(a.integrity_rejections, 7);
        assert_eq!(a.sites_exercised(), 2);
        assert_eq!(a.total_injected(), u64::MAX);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn fire_is_deterministic_and_capped() {
        // Full-rate schedule: fires exactly `max_per_site` times, then
        // never again.
        install(Some(
            FpConfig::new(7)
                .with_rate(Site::InternGrow, 1000)
                .with_max_per_site(2),
        ));
        let fires: Vec<bool> = (0..6).map(|_| fire(Site::InternGrow)).collect();
        assert_eq!(fires, vec![true, true, false, false, false, false]);
        assert_eq!(injected_at(Site::InternGrow), 2);

        // Reinstalling the same schedule replays the same stream.
        let c1 = take_counters();
        install(Some(
            FpConfig::new(7)
                .with_rate(Site::InternGrow, 1000)
                .with_max_per_site(2),
        ));
        let fires2: Vec<bool> = (0..6).map(|_| fire(Site::InternGrow)).collect();
        assert_eq!(fires, fires2);
        assert_eq!(take_counters(), c1);
        install(None);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn partial_rates_follow_the_seeded_stream() {
        install(Some(
            FpConfig::new(0xC0FFEE)
                .with_rate(Site::MemoLoad, 500)
                .with_max_per_site(1000),
        ));
        let a: Vec<bool> = (0..64).map(|_| fire(Site::MemoLoad)).collect();
        install(Some(
            FpConfig::new(0xC0FFEE)
                .with_rate(Site::MemoLoad, 500)
                .with_max_per_site(1000),
        ));
        let b: Vec<bool> = (0..64).map(|_| fire(Site::MemoLoad)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "{a:?}");

        // A different seed gives a different schedule (overwhelmingly).
        install(Some(
            FpConfig::new(0xDECAF)
                .with_rate(Site::MemoLoad, 500)
                .with_max_per_site(1000),
        ));
        let c: Vec<bool> = (0..64).map(|_| fire(Site::MemoLoad)).collect();
        assert_ne!(a, c, "different seed, different schedule");
        let _ = take_counters();
        install(None);
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    // `ENABLED` is deliberately a constant here: the test pins the
    // compile-time contract of the disabled configuration.
    #[allow(clippy::assertions_on_constants)]
    fn disabled_stubs_are_inert() {
        install(Some(FpConfig::new(1).with_rate(Site::MemoLoad, 1000)));
        assert!(!active());
        assert!(!fire(Site::MemoLoad));
        assert_eq!(counters(), FpCounters::default());
        assert!(!ENABLED, "cfg(not(failpoints)) must report disabled");
    }
}
