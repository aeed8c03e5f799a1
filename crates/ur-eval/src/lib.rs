// Library code must be panic-free: unwrap/expect/panic are denied
// outside cfg(test) (see docs/ROBUSTNESS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # ur-eval — call-by-value interpreter for elaborated Ur
//!
//! The paper specifies Ur's dynamic semantics by elaboration into the
//! Calculus of Inductive Constructions (§3.3) and implements it with a
//! whole-program monomorphizing compiler (§5). This crate substitutes a
//! *type-passing* interpreter: constructor abstraction/application are
//! runtime closures, so first-class names resolve to concrete record
//! fields at projection time. Observable behaviour of every paper example
//! is preserved (see DESIGN.md §3).
//!
//! Builtins (the Ur/Web standard library primitives, supplied by `ur-web`)
//! receive the accumulated constructor arguments, the evaluated value
//! arguments, and mutable access to the [`interp::World`] (database +
//! debug output).
//!
//! Two execution engines share that machinery (DESIGN.md §7): the
//! tree-walking interpreter in [`interp`] — the semantic reference — and
//! a bytecode VM ([`compile`] lowers core terms to flat [`compile::Chunk`]s,
//! [`vm`] executes them) that is the default in `ur-web` sessions. The
//! differential test suites run both and require identical observable
//! results; [`EvalEngine`] selects an engine at the embedder level.

pub mod compile;
pub mod error;
pub mod interp;
pub mod value;
pub mod vm;

pub use compile::{compile, Chunk, Op};
pub use error::{EvalError, EvalErrorKind};
pub use interp::{Interp, World, MAX_EVAL_DEPTH};
pub use value::{Builtin, BuiltinApp, VEnv, Value, XmlVal};
pub use vm::EvalStats;

/// Which execution engine an embedder runs elaborated declarations on.
/// The VM is the default; the interpreter remains as the differential
/// oracle and as an escape hatch (`--eval=interp`, `UR_EVAL=interp`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalEngine {
    /// Compile to bytecode and run on [`vm`] (default).
    #[default]
    Vm,
    /// Walk the core term directly with [`interp::Interp`].
    Interp,
}

impl EvalEngine {
    /// Parses a `--eval=` / `UR_EVAL=` engine name.
    pub fn parse(s: &str) -> Option<EvalEngine> {
        match s {
            "vm" => Some(EvalEngine::Vm),
            "interp" => Some(EvalEngine::Interp),
            _ => None,
        }
    }

    /// The flag-value name (`vm` / `interp`).
    pub fn name(self) -> &'static str {
        match self {
            EvalEngine::Vm => "vm",
            EvalEngine::Interp => "interp",
        }
    }
}

#[cfg(test)]
mod engine_tests {
    use super::EvalEngine;

    #[test]
    fn parse_round_trips() {
        for e in [EvalEngine::Vm, EvalEngine::Interp] {
            assert_eq!(EvalEngine::parse(e.name()), Some(e));
        }
        assert_eq!(EvalEngine::parse("jit"), None);
    }

    #[test]
    fn default_is_vm() {
        assert_eq!(EvalEngine::default(), EvalEngine::Vm);
    }
}
