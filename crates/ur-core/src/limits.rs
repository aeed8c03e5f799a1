//! Resource limits (fuel) for the inference judgments.
//!
//! The §4 judgments — head normalization, definitional equality, row
//! normalization, the disjointness prover — recurse over untrusted input.
//! Pathological programs (10k-deep `map` nests, 5k-field wide rows,
//! metavariable cycles) would otherwise hang or overflow the stack.
//!
//! [`Fuel`] lives in [`crate::Cx`], which is already threaded `&mut`
//! through every judgment, so no signature changes are needed. Each
//! judgment *charges* fuel on entry; when a budget runs out the fuel
//! becomes **sticky-exhausted**: every further charge fails immediately,
//! so the whole judgment tree unwinds quickly, each level returning a
//! conservative degenerate value (`hnf` returns its input unreduced,
//! `defeq` returns `false`, the prover returns `NotYet`, unification
//! postpones). The elaborator observes [`Fuel::exhausted`] at declaration
//! boundaries and turns it into a structured `ResourceExhausted`
//! diagnostic, then calls [`Fuel::reset`] so later declarations get a
//! fresh budget.

use std::fmt;

/// Which budget ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceKind {
    /// Recursion depth of `hnf`/`defeq`/row collection (guards the stack).
    Depth,
    /// Total normalization steps (guards against non-termination).
    NormSteps,
    /// Disjointness-prover piece pairs (guards the §4.1 cross product).
    ProverPairs,
    /// Postponed-constraint solver rounds (guards the retry loop).
    SolverRounds,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Depth => write!(f, "recursion depth"),
            ResourceKind::NormSteps => write!(f, "normalization steps"),
            ResourceKind::ProverPairs => write!(f, "disjointness-prover pairs"),
            ResourceKind::SolverRounds => write!(f, "constraint-solver rounds"),
        }
    }
}

/// Configurable budgets. The defaults are far above anything a legitimate
/// program needs (the entire Figure-5 suite stays under 1% of each) while
/// still bounding adversarial input to well under a second of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Maximum recursion depth for the core judgments.
    pub max_depth: usize,
    /// Maximum total normalization steps between [`Fuel::reset`]s.
    pub max_norm_steps: u64,
    /// Maximum disjointness piece-pair checks between resets.
    pub max_prover_pairs: u64,
    /// Maximum postponed-constraint rounds per elaboration fixed point.
    pub max_solver_rounds: u32,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_depth: 512,
            max_norm_steps: 2_000_000,
            max_prover_pairs: 2_000_000,
            // Every round of the fixed-point loop must solve at least one
            // constraint, so round count is bounded by queue size; large
            // generated programs legitimately need hundreds of rounds.
            max_solver_rounds: 4096,
        }
    }
}

impl Limits {
    /// Effectively no limits (for trusted, already-checked input).
    pub fn unlimited() -> Limits {
        Limits {
            max_depth: usize::MAX,
            max_norm_steps: u64::MAX,
            max_prover_pairs: u64::MAX,
            max_solver_rounds: u32::MAX,
        }
    }

    /// Tight limits for tests that want exhaustion to trigger quickly.
    pub fn strict() -> Limits {
        Limits {
            max_depth: 64,
            max_norm_steps: 10_000,
            max_prover_pairs: 10_000,
            max_solver_rounds: 8,
        }
    }

    /// Maps a wall-clock deadline budget to fuel ceilings, for serving:
    /// a request that arrives with `deadline_ms` of budget left gets a
    /// step budget it can plausibly spend inside that window, so a slow
    /// elaboration degrades to a structured E0900 diagnostic instead of
    /// wedging its worker past the deadline.
    ///
    /// The conversion is deliberately conservative
    /// ([`DEADLINE_STEPS_PER_MS`] is a low-end steps/ms figure): a tight
    /// deadline must *reliably* exhaust rather than occasionally sneak
    /// through on a fast machine, because the supervisor treats the fuel
    /// ceiling — not wall-clock preemption, which Rust threads don't
    /// have — as the mechanism that keeps workers responsive. Depth is
    /// never scaled below [`Limits::strict`]'s (it guards the stack, not
    /// time), and no budget ever exceeds the [`Limits::default`] one.
    pub fn for_deadline_ms(deadline_ms: u64) -> Limits {
        let d = Limits::default();
        let steps = deadline_ms
            .saturating_mul(DEADLINE_STEPS_PER_MS)
            .clamp(1, d.max_norm_steps);
        Limits {
            max_depth: d.max_depth,
            max_norm_steps: steps,
            max_prover_pairs: steps.min(d.max_prover_pairs),
            max_solver_rounds: d.max_solver_rounds,
        }
    }
}

/// Conservative lower-bound estimate of normalization steps per
/// millisecond used by [`Limits::for_deadline_ms`]. Measured throughput
/// on the Figure-5 studies is 10-50x higher; the low figure biases tight
/// deadlines toward deterministic E0900 degradation over machine-speed
/// lottery.
pub const DEADLINE_STEPS_PER_MS: u64 = 2_000;

/// Mutable fuel state charged by the judgments. See the module docs for
/// the sticky-exhaustion protocol.
#[derive(Clone, Debug)]
pub struct Fuel {
    pub limits: Limits,
    depth: usize,
    norm_steps: u64,
    prover_pairs: u64,
    /// Total steps ever charged, *not* cleared by [`Fuel::reset`]. The
    /// elaborator resets fuel at every declaration boundary, so this is
    /// the only whole-run normalization-work metric (used by the
    /// interning benchmark to compare cached vs. uncached runs).
    lifetime_norm_steps: u64,
    exhausted: Option<ResourceKind>,
}

impl Default for Fuel {
    fn default() -> Fuel {
        Fuel::new(Limits::default())
    }
}

impl Fuel {
    pub fn new(limits: Limits) -> Fuel {
        Fuel {
            limits,
            depth: 0,
            norm_steps: 0,
            prover_pairs: 0,
            lifetime_norm_steps: 0,
            exhausted: None,
        }
    }

    /// The budget that ran out, if any. Sticky until [`Fuel::reset`].
    pub fn exhausted(&self) -> Option<ResourceKind> {
        self.exhausted
    }

    /// Records exhaustion of `kind` (the first one wins).
    pub fn exhaust(&mut self, kind: ResourceKind) {
        if self.exhausted.is_none() {
            self.exhausted = Some(kind);
        }
    }

    /// Enters one recursion level. `false` means the budget is gone (or
    /// already was): the caller must return its degenerate value *without*
    /// calling [`Fuel::ascend`].
    #[must_use]
    pub fn descend(&mut self) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        if self.depth >= self.limits.max_depth {
            self.exhausted = Some(ResourceKind::Depth);
            return false;
        }
        self.depth += 1;
        true
    }

    /// Leaves a recursion level entered with a successful [`Fuel::descend`].
    pub fn ascend(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Charges one normalization step.
    #[must_use]
    pub fn step(&mut self) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        if self.norm_steps >= self.limits.max_norm_steps {
            self.exhausted = Some(ResourceKind::NormSteps);
            return false;
        }
        self.norm_steps += 1;
        // Saturating: a long-lived session's whole-run metric pins at
        // `u64::MAX` instead of wrapping back through small values.
        self.lifetime_norm_steps = self.lifetime_norm_steps.saturating_add(1);
        true
    }

    /// Charges one disjointness piece-pair check.
    #[must_use]
    pub fn prover_pair(&mut self) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        if self.prover_pairs >= self.limits.max_prover_pairs {
            self.exhausted = Some(ResourceKind::ProverPairs);
            return false;
        }
        self.prover_pairs += 1;
        true
    }

    /// Steps charged since the last reset (for instrumentation).
    pub fn norm_steps_used(&self) -> u64 {
        self.norm_steps
    }

    /// Prover pairs charged since the last reset (for instrumentation).
    pub fn prover_pairs_used(&self) -> u64 {
        self.prover_pairs
    }

    /// Total normalization steps charged over the fuel's whole lifetime,
    /// across [`Fuel::reset`]s.
    pub fn lifetime_norm_steps(&self) -> u64 {
        self.lifetime_norm_steps
    }

    /// Clears exhaustion and all counters — called by the elaborator at
    /// declaration boundaries after reporting a `ResourceExhausted`
    /// diagnostic, so later declarations get a fresh budget.
    pub fn reset(&mut self) {
        self.depth = 0;
        self.norm_steps = 0;
        self.prover_pairs = 0;
        self.exhausted = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_budget_is_sticky() {
        let mut f = Fuel::new(Limits {
            max_depth: 2,
            ..Limits::default()
        });
        assert!(f.descend());
        assert!(f.descend());
        assert!(!f.descend());
        assert_eq!(f.exhausted(), Some(ResourceKind::Depth));
        // Sticky: even after ascending, further charges fail.
        f.ascend();
        f.ascend();
        assert!(!f.descend());
        assert!(!f.step());
        f.reset();
        assert!(f.descend());
        assert_eq!(f.exhausted(), None);
    }

    #[test]
    fn step_budget_exhausts() {
        let mut f = Fuel::new(Limits {
            max_norm_steps: 3,
            ..Limits::default()
        });
        assert!(f.step());
        assert!(f.step());
        assert!(f.step());
        assert!(!f.step());
        assert_eq!(f.exhausted(), Some(ResourceKind::NormSteps));
    }

    #[test]
    fn prover_budget_exhausts() {
        let mut f = Fuel::new(Limits {
            max_prover_pairs: 1,
            ..Limits::default()
        });
        assert!(f.prover_pair());
        assert!(!f.prover_pair());
        assert_eq!(f.exhausted(), Some(ResourceKind::ProverPairs));
    }

    #[test]
    fn lifetime_steps_survive_reset() {
        let mut f = Fuel::new(Limits::default());
        assert!(f.step());
        assert!(f.step());
        f.reset();
        assert!(f.step());
        assert_eq!(f.norm_steps_used(), 1);
        assert_eq!(f.lifetime_norm_steps(), 3);
    }

    #[test]
    fn lifetime_merge_saturates_instead_of_wrapping() {
        let mut f = Fuel::new(Limits::default());
        assert!(f.step());
        assert_eq!(f.lifetime_norm_steps(), 1);
        // A counter already at the ceiling must not wrap to 0.
        f.lifetime_norm_steps = u64::MAX;
        // step() on a saturated counter stays pinned.
        assert!(f.step());
        assert_eq!(f.lifetime_norm_steps(), u64::MAX);
        // reset() never clears the lifetime metric.
        f.reset();
        assert_eq!(f.lifetime_norm_steps(), u64::MAX);
        assert!(f.step());
        assert_eq!(f.lifetime_norm_steps(), u64::MAX);
    }

    #[test]
    fn deadline_limits_scale_and_clamp() {
        let tiny = Limits::for_deadline_ms(1);
        assert_eq!(tiny.max_norm_steps, DEADLINE_STEPS_PER_MS);
        assert_eq!(tiny.max_prover_pairs, DEADLINE_STEPS_PER_MS);
        // Depth guards the stack, not time: never scaled down.
        assert_eq!(tiny.max_depth, Limits::default().max_depth);

        // Zero budget still leaves one step so exhaustion is reported
        // through the normal sticky path, not a panic.
        assert_eq!(Limits::for_deadline_ms(0).max_norm_steps, 1);

        // Monotone in the deadline, capped at the default budget.
        let a = Limits::for_deadline_ms(10);
        let b = Limits::for_deadline_ms(100);
        assert!(a.max_norm_steps < b.max_norm_steps);
        let huge = Limits::for_deadline_ms(u64::MAX);
        assert_eq!(huge, Limits::default());
    }

    #[test]
    fn unlimited_never_exhausts_in_practice() {
        let mut f = Fuel::new(Limits::unlimited());
        for _ in 0..10_000 {
            assert!(f.descend());
            assert!(f.step());
            assert!(f.prover_pair());
        }
        assert_eq!(f.exhausted(), None);
    }
}
