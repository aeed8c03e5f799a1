//! Deterministic fault injection ("failpoints").
//!
//! Recovery paths for the faults real deployments see — torn WAL
//! writes, failed fsyncs, dying checkpoints, torn connections — are
//! unreachable from well-behaved inputs, so nothing in an ordinary test
//! run ever executes them. This module provides
//! *named fault sites* that those layers consult, plus a seeded PRNG
//! schedule deciding which consultations actually inject a fault:
//!
//! * **Named sites** ([`Site`]): WAL append/sync/corrupt/rotate +
//!   snapshot write in `ur-db`'s durability layer, and the `ur-serve`
//!   front door (accept/read/write).
//! * **Seeded activation**: each site draws from a splitmix64 stream
//!   keyed by `(seed, site, hit index)`, so a given configuration
//!   produces the same fault schedule on every run — chaos tests print
//!   their seed and any failure reproduces from it.
//! * **Bounded chaos**: `max_per_site` caps how many times each site
//!   fires, so once the caps are spent the system must converge to the
//!   clean result (see `docs/ROBUSTNESS.md`).
//! * **Zero cost when disabled**: without the `failpoints` cargo feature
//!   (the default), [`fire`] is a `const false` inline stub and every
//!   call site folds away. Release builds ship with the feature off.
//!
//! Configuration is per-thread ([`install`]); `ur-serve` installs its
//! configured schedule on every serve thread. The `UR_FAILPOINTS`
//! environment variable (`seed=42;max=3;wal_append=500;wal_sync=250`,
//! rates in permille) configures binaries without code changes
//! ([`FpConfig::from_env`]); a malformed value is an error naming the bad
//! entry.

use std::fmt;

/// Number of named sites (length of [`Site::ALL`]).
pub const NSITES: usize = 8;

/// A named fault-injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
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
}

impl Site {
    /// Every site, in stable order (indexes into [`FpCounters::injected`]).
    pub const ALL: [Site; NSITES] = [
        Site::WalAppend,
        Site::WalSync,
        Site::SnapshotWrite,
        Site::WalCorrupt,
        Site::WalRotate,
        Site::ServeAccept,
        Site::ServeRead,
        Site::ServeWrite,
    ];

    /// Stable index of this site.
    pub fn index(self) -> usize {
        match self {
            Site::WalAppend => 0,
            Site::WalSync => 1,
            Site::SnapshotWrite => 2,
            Site::WalCorrupt => 3,
            Site::WalRotate => 4,
            Site::ServeAccept => 5,
            Site::ServeRead => 6,
            Site::ServeWrite => 7,
        }
    }

    /// The configuration/reporting name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::WalAppend => "wal_append",
            Site::WalSync => "wal_sync",
            Site::SnapshotWrite => "snapshot_write",
            Site::WalCorrupt => "wal_corrupt",
            Site::WalRotate => "wal_rotate",
            Site::ServeAccept => "serve_accept",
            Site::ServeRead => "serve_read",
            Site::ServeWrite => "serve_write",
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
/// `Copy + Send` so `ur-serve` can install one schedule on each of its
/// threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpConfig {
    /// Seed of the activation PRNG. Printed by the chaos harnesses so
    /// any failure reproduces exactly.
    pub seed: u64,
    /// Cap on fires per site.
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

    /// Parses `seed=N;max=N;<site>=permille;...` (any order, `;` or `,`
    /// separated). An unknown key or a malformed entry is an error that
    /// names the entry, so a typo in `UR_FAILPOINTS` is loud, not
    /// silently ignored.
    pub fn parse(spec: &str) -> Result<FpConfig, String> {
        let mut cfg = FpConfig::new(0);
        for part in spec.split([';', ',']) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if cfg.parse_entry(part).is_none() {
                let sites: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
                return Err(format!(
                    "bad failpoint entry `{part}`: expected seed=N, max=N or SITE=PERMILLE \
                     with SITE one of {}",
                    sites.join(", ")
                ));
            }
        }
        Ok(cfg)
    }

    /// Applies one `key=value` entry; `None` when it is malformed.
    fn parse_entry(&mut self, part: &str) -> Option<()> {
        let (key, value) = part.split_once('=')?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "seed" => self.seed = value.parse().ok()?,
            "max" => self.max_per_site = value.parse().ok()?,
            _ => {
                let site = Site::from_name(key)?;
                self.rates[site.index()] = value.parse::<u16>().ok()?.min(1000);
            }
        }
        Some(())
    }

    /// The schedule named by the `UR_FAILPOINTS` environment variable:
    /// `Ok(None)` when it is unset, an error naming the bad entry when it
    /// is malformed ([`FpConfig::parse`] format).
    pub fn from_env() -> Result<Option<FpConfig>, String> {
        match std::env::var("UR_FAILPOINTS") {
            Ok(spec) => FpConfig::parse(&spec)
                .map(Some)
                .map_err(|e| format!("UR_FAILPOINTS: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(e) => Err(format!("UR_FAILPOINTS: {e}")),
        }
    }
}

/// Per-thread fault-injection counters, merged across serve threads with
/// saturating arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpCounters {
    /// Faults injected per site ([`Site::index`] order).
    pub injected: [u64; NSITES],
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
    }
}

/// Whether consultation number `hit` of `site` fires under a schedule
/// with this `seed` and `rate` (permille): the draw [`fire`] makes. The
/// chaos and serve benches call it to derive seeds whose streams they
/// must know in advance.
pub fn draw(seed: u64, site: Site, hit: u64, rate: u16) -> bool {
    let key = seed ^ (site.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ hit;
    crate::fingerprint::splitmix64(key) % 1000 < u64::from(rate)
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FpConfig, FpCounters, Site, NSITES};
    use std::cell::RefCell;

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
            if super::draw(cfg.seed, site, hit, rate) {
                s.counters.injected[ix] = s.counters.injected[ix].saturating_add(1);
                true
            } else {
                false
            }
        })
    }

    /// This thread's injected-fault counters.
    pub fn counters() -> FpCounters {
        STATE.with(|s| s.borrow().counters)
    }

    /// Reads and clears this thread's counters (used by serve threads to
    /// ship their faults home before they exit).
    pub fn take_counters() -> FpCounters {
        STATE.with(|s| std::mem::take(&mut s.borrow_mut().counters))
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

    /// Compile-time flag: the `failpoints` feature is off.
    pub const ENABLED: bool = false;
}

pub use imp::{counters, fire, install, take_counters, ENABLED};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_sites_and_meta_keys() {
        let cfg =
            FpConfig::parse("seed=42; max=5; serve_read=500, wal_append=250").expect("valid spec");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.max_per_site, 5);
        assert_eq!(cfg.rate(Site::ServeRead), 500);
        assert_eq!(cfg.rate(Site::WalAppend), 250);
        assert_eq!(cfg.rate(Site::WalSync), 0);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_garbage() {
        for bad in [
            "bogus_site=10",
            "wal_append",
            "seed=notanumber",
            "worker_exec=500",
            "memo_load=250",
            "fuel_charge=500",
            "cache_load=500",
            "cache_store=500",
        ] {
            let err = FpConfig::parse(&format!("seed=1;{bad}")).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
        // Empty spec is a valid (inert) schedule.
        let cfg = FpConfig::parse("").expect("empty is fine");
        assert_eq!(cfg, FpConfig::new(0));
    }

    #[test]
    fn rates_clamp_to_permille() {
        let cfg = FpConfig::new(1).with_rate(Site::WalSync, 9999);
        assert_eq!(cfg.rate(Site::WalSync), 1000);
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
        let mut b = FpCounters::default();
        b.injected[0] = 10;
        b.injected[3] = 7;
        a.absorb(&b);
        assert_eq!(a.injected[0], u64::MAX);
        assert_eq!(a.injected[3], 7);
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
                .with_rate(Site::WalAppend, 1000)
                .with_max_per_site(2),
        ));
        let fires: Vec<bool> = (0..6).map(|_| fire(Site::WalAppend)).collect();
        assert_eq!(fires, vec![true, true, false, false, false, false]);
        assert_eq!(counters().injected[Site::WalAppend.index()], 2);

        // Reinstalling the same schedule replays the same stream.
        let c1 = take_counters();
        install(Some(
            FpConfig::new(7)
                .with_rate(Site::WalAppend, 1000)
                .with_max_per_site(2),
        ));
        let fires2: Vec<bool> = (0..6).map(|_| fire(Site::WalAppend)).collect();
        assert_eq!(fires, fires2);
        assert_eq!(take_counters(), c1);
        install(None);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn partial_rates_follow_the_seeded_stream() {
        install(Some(
            FpConfig::new(0xC0FFEE)
                .with_rate(Site::SnapshotWrite, 500)
                .with_max_per_site(1000),
        ));
        let a: Vec<bool> = (0..64).map(|_| fire(Site::SnapshotWrite)).collect();
        install(Some(
            FpConfig::new(0xC0FFEE)
                .with_rate(Site::SnapshotWrite, 500)
                .with_max_per_site(1000),
        ));
        let b: Vec<bool> = (0..64).map(|_| fire(Site::SnapshotWrite)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "{a:?}");

        // A different seed gives a different schedule (overwhelmingly).
        install(Some(
            FpConfig::new(0xDECAF)
                .with_rate(Site::SnapshotWrite, 500)
                .with_max_per_site(1000),
        ));
        let c: Vec<bool> = (0..64).map(|_| fire(Site::SnapshotWrite)).collect();
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
        install(Some(FpConfig::new(1).with_rate(Site::SnapshotWrite, 1000)));
        assert!(!fire(Site::SnapshotWrite));
        assert_eq!(counters(), FpCounters::default());
        assert!(!ENABLED, "cfg(not(failpoints)) must report disabled");
    }
}
