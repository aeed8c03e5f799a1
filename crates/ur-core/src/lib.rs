// Library code must be panic-free: unwrap/expect/panic are denied
// outside cfg(test) (see docs/ROBUSTNESS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # ur-core — Featherweight Ur, the core calculus
//!
//! This crate implements the core calculus of
//! *Ur: Statically-Typed Metaprogramming with Type-Level Record Computation*
//! (Chlipala, PLDI 2010), Section 3:
//!
//! * [`kind`] — kinds `Type | Name | k -> k | {k} | k * k` (Figure 1);
//! * [`con`] — constructors, including first-class names `#n`, record types
//!   `$c`, rows `[] | [c = c] | c ++ c`, and the `map` constant (Figure 1);
//! * [`expr`] — expressions, including record operations and guarded
//!   abstraction (Figure 1);
//! * [`kinding`] — the kinding judgment (Figure 2);
//! * [`row`] / [`defeq`] — definitional equality with the algebraic row laws
//!   (Figure 3), instrumented with the counters the paper reports in
//!   Figure 5;
//! * [`typing`] — the typing judgment (Figure 4);
//! * [`disjoint`] — the automatic disjointness prover (§4.1).
//!
//! Inference (unification, elaboration) lives in the `ur-infer` crate; this
//! crate provides the judgments those heuristics must respect.
//!
//! ## Example
//!
//! ```
//! use ur_core::prelude::*;
//!
//! let mut cx = Cx::new();
//! let env = Env::new();
//! // map (fn a :: Type => a) [A = int]  ≡  [A = int]   (identity law)
//! let a = Sym::fresh("a");
//! let idf = Con::lam(a.clone(), Kind::Type, Con::var(&a));
//! let row = Con::row_one(Con::name("A"), Con::int());
//! let mapped = Con::map_app(Kind::Type, Kind::Type, idf, row.clone());
//! assert!(ur_core::defeq::defeq(&env, &mut cx, &mapped, &row));
//! assert_eq!(cx.stats.law_map_identity, 1);
//! ```

pub mod arena;
pub mod codec;
pub mod con;
pub mod defeq;
pub mod disjoint;
pub mod env;
pub mod error;
pub mod expr;
pub mod failpoint;
pub mod fingerprint;
pub mod folder;
pub mod hnf;
pub mod json;
pub mod kind;
pub mod kinding;
pub mod limits;
pub mod memo;
pub mod meta;
pub mod pretty;
pub mod row;
pub mod stats;
pub mod subst;
pub mod sym;
pub mod typing;

pub use limits::{Fuel, Limits, ResourceKind};
use meta::MetaCx;
use stats::Stats;

/// Which of the three nontrivial Figure-3 laws the normalizer may apply.
/// All are on by default; the ablation benches/tests disable them
/// selectively to demonstrate they are load-bearing (e.g. `toDb` from
/// §2.2 fails to elaborate without fusion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LawConfig {
    pub identity: bool,
    pub distrib: bool,
    pub fusion: bool,
}

impl Default for LawConfig {
    fn default() -> LawConfig {
        LawConfig {
            identity: true,
            distrib: true,
            fusion: true,
        }
    }
}

/// Mutable checking context threaded through every judgment: the
/// metavariable arena, the Figure-5 statistics counters, the law
/// configuration, the resource budget (see [`limits`]), and the memo
/// tables for the four expensive judgments (see [`memo`]).
#[derive(Clone, Debug, Default)]
pub struct Cx {
    pub metas: MetaCx,
    pub stats: Stats,
    pub laws: LawConfig,
    pub fuel: Fuel,
    pub memo: memo::Memo,
}

impl Cx {
    pub fn new() -> Cx {
        Cx::default()
    }

    /// A context with explicit resource limits.
    pub fn with_limits(limits: Limits) -> Cx {
        Cx {
            fuel: Fuel::new(limits),
            ..Cx::default()
        }
    }
}

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::con::{Con, MetaId, PrimType, RCon};
    pub use crate::env::Env;
    pub use crate::error::CoreError;
    pub use crate::expr::{Expr, Lit, RExpr};
    pub use crate::kind::Kind;
    pub use crate::limits::{Fuel, Limits, ResourceKind};
    pub use crate::meta::MetaCx;
    pub use crate::stats::Stats;
    pub use crate::sym::Sym;
    pub use crate::Cx;
}
