// Library code must be panic-free: unwrap/expect/panic are denied
// outside cfg(test) (see docs/ROBUSTNESS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # ur-query — incremental elaboration for the Ur reproduction
//!
//! A salsa-style red-green query engine over the batch elaborator:
//! every declaration is a query keyed by a content fingerprint mixed
//! with the fingerprints of its dependency cone ([`engine`]), cached
//! outcomes live in memory as this process's own terms and on disk
//! ([`disk`], one pack per rebuild) in a process-independent linked
//! form ([`link`]), and
//! machine-readable output for editors and CI shares one JSON encoder
//! ([`json`]).
//!
//! The contract, checked by `tests/incremental.rs`: a rebuild through
//! the engine is observably **byte-identical** to a cold sequential
//! elaboration of the same source — same declarations (up to fresh
//! symbol ids), same span-sorted diagnostics — while re-running only
//! the declarations whose transitive inputs actually changed. A no-op
//! rebuild re-runs zero declarations and charges zero elaboration fuel.

pub mod disk;
pub mod engine;
pub mod json;
pub mod link;

pub use engine::{Engine, EngineConfig, RunReport};
