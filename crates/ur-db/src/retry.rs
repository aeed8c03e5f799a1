//! Bounded-backoff retry for advisory-lock contention.
//!
//! A durable directory is guarded by an exclusive advisory lock
//! (`DIR/LOCK`, see [`crate::recover`]): a second [`Db::open`] while the
//! holder is alive fails fast with [`DbError::Locked`]. That is the
//! right *default* — two long-lived writers on one directory is a
//! deployment bug — but two callers legitimately race for the lock
//! during a handoff window: `urc --db-dir` started while a previous
//! invocation is still checkpointing on exit.
//!
//! [`Db::open_with_retry`] serves that window: jittered exponential
//! backoff under a hard wall-clock budget, retrying **only**
//! [`DbError::Locked`] — corruption or I/O errors surface immediately.
//! The jitter is seeded from the process id and attempt number
//! (splitmix64), so two racing processes decorrelate without any shared
//! state, while a single process's schedule stays reproducible.

use crate::db::Db;
use crate::error::DbError;
use std::path::Path;
use std::time::{Duration, Instant};
use ur_core::fingerprint::splitmix64;

/// Backoff tunables for [`Db::open_with_retry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total wall-clock budget across all attempts. Zero means a single
    /// attempt (fail fast, exactly [`Db::open`]).
    pub wait: Duration,
    /// First backoff delay; doubles each attempt up to [`Self::max_delay`].
    pub base_delay: Duration,
    /// Ceiling on a single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            wait: Duration::from_millis(1_000),
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
        }
    }
}

impl RetryConfig {
    /// A config with the given total budget and default delays.
    pub fn with_wait_ms(ms: u64) -> RetryConfig {
        RetryConfig {
            wait: Duration::from_millis(ms),
            ..RetryConfig::default()
        }
    }

    /// The config named by the `UR_DB_LOCK_WAIT_MS` environment
    /// variable (total budget in milliseconds), or the default.
    pub fn from_env() -> RetryConfig {
        match std::env::var("UR_DB_LOCK_WAIT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            Some(ms) => RetryConfig::with_wait_ms(ms),
            None => RetryConfig::default(),
        }
    }
}

/// The delay before attempt `attempt` (0-based count of failures so
/// far): exponential base doubling capped at `max_delay`, then jittered
/// to 50–100% of that span so two racing processes don't stay phase
/// locked.
fn backoff_delay(cfg: &RetryConfig, attempt: u32, seed: u64) -> Duration {
    let base_ms = cfg.base_delay.as_millis().min(u128::from(u64::MAX)) as u64;
    let cap_ms = cfg.max_delay.as_millis().min(u128::from(u64::MAX)) as u64;
    let exp_ms = base_ms
        .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX))
        .min(cap_ms)
        .max(1);
    let jitter = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
    let half = exp_ms / 2;
    Duration::from_millis(exp_ms - half + (jitter % (half + 1)))
}

impl Db {
    /// [`Db::open`], but when the directory's advisory lock is held
    /// ([`DbError::Locked`]) keeps retrying with jittered exponential
    /// backoff until the lock is acquired or `cfg.wait` of wall clock
    /// has elapsed. Every other error is returned immediately — only
    /// lock contention is transient by design.
    ///
    /// # Errors
    ///
    /// [`DbError::Locked`] when the budget expires with the lock still
    /// held; otherwise as [`Db::open`].
    pub fn open_with_retry(dir: impl AsRef<Path>, cfg: RetryConfig) -> Result<Db, DbError> {
        let dir = dir.as_ref();
        let start = Instant::now();
        let seed = u64::from(std::process::id())
            ^ dir.as_os_str().len() as u64
            ^ 0x5EED_5EED_5EED_5EED;
        let mut attempt: u32 = 0;
        loop {
            match Db::open(dir) {
                Err(DbError::Locked(who)) => {
                    let elapsed = start.elapsed();
                    if elapsed >= cfg.wait {
                        return Err(DbError::Locked(who));
                    }
                    let delay = backoff_delay(&cfg, attempt, seed)
                        .min(cfg.wait.saturating_sub(elapsed));
                    std::thread::sleep(delay);
                    attempt = attempt.saturating_add(1);
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_grows() {
        let cfg = RetryConfig::default();
        let mut last_cap = Duration::ZERO;
        for attempt in 0..16 {
            let d = backoff_delay(&cfg, attempt, 42);
            assert!(d >= Duration::from_millis(1));
            assert!(d <= cfg.max_delay, "attempt {attempt}: {d:?}");
            last_cap = last_cap.max(d);
        }
        // The exponential ramp must actually reach the cap region.
        assert!(last_cap >= cfg.base_delay);
        // Huge attempt numbers must not overflow the shift.
        let d = backoff_delay(&cfg, u32::MAX, 7);
        assert!(d <= cfg.max_delay);
    }

    #[test]
    fn jitter_decorrelates_seeds() {
        let cfg = RetryConfig {
            wait: Duration::from_secs(1),
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(100),
        };
        let a: Vec<Duration> = (0..8).map(|n| backoff_delay(&cfg, n, 1)).collect();
        let b: Vec<Duration> = (0..8).map(|n| backoff_delay(&cfg, n, 2)).collect();
        assert_ne!(a, b, "different seeds must give different schedules");
        // Deterministic per seed.
        let a2: Vec<Duration> = (0..8).map(|n| backoff_delay(&cfg, n, 1)).collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn zero_budget_fails_fast_on_contention() {
        let dir = std::env::temp_dir().join(format!("ur-db-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let holder = Db::open(&dir).expect("first open");
        let start = Instant::now();
        let err = Db::open_with_retry(&dir, RetryConfig::with_wait_ms(0))
            .expect_err("second open must contend");
        assert!(matches!(err, DbError::Locked(_)), "{err:?}");
        assert!(start.elapsed() < Duration::from_millis(500), "must not wait");
        drop(holder);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_acquires_after_holder_exits() {
        let dir = std::env::temp_dir().join(format!("ur-db-retry2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // `Db` is not Send, so the holder lives on its own thread: it
        // opens, signals, keeps the lock for ~100ms, then drops — while
        // this thread is already inside the retry loop.
        let (tx, rx) = std::sync::mpsc::channel();
        let hold_dir = dir.clone();
        let h = std::thread::spawn(move || {
            let mut holder = Db::open(&hold_dir).expect("first open");
            holder
                .create_table(
                    "t",
                    crate::table::Schema::new(vec![("A".into(), crate::value::ColTy::Int)])
                        .expect("schema"),
                )
                .expect("create");
            tx.send(()).expect("signal");
            std::thread::sleep(Duration::from_millis(100));
        });
        rx.recv().expect("holder ready");
        let db = Db::open_with_retry(&dir, RetryConfig::with_wait_ms(5_000))
            .expect("retry must acquire once the holder exits");
        assert!(db.dump().contains("table t"));
        h.join().expect("holder thread");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
