//! Evaluation errors.

use std::fmt;

/// A stable classification of runtime failures. Tests match on the kind,
/// not the message, so wording can evolve without breaking assertions;
/// the differential suites use it to check that the VM and the
/// interpreter fail the same way, not just that both fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvalErrorKind {
    /// Builtin failures and uncategorized interpreter errors.
    Generic,
    /// A variable had no runtime binding (an elaborator bug).
    UnboundVar,
    /// A value in function position was not applicable.
    NotAFunction,
    /// A primitive accessor saw the wrong shape of value
    /// (`as_int` on a string, record ops on a non-record, …).
    TypeMismatch,
    /// Projection or cut named a field the record does not have.
    MissingField,
    /// Record concatenation produced a duplicate field (the type system
    /// should make this unreachable).
    DuplicateField,
    /// A type-level field name did not reduce to a literal at runtime.
    UnresolvedName,
    /// A database builtin failed (`ur_db::DbError`).
    Db,
    /// Evaluation nested deeper than [`crate::interp::MAX_EVAL_DEPTH`]
    /// (a resource limit, E0900 in a load's diagnostics).
    TooDeep,
    /// Evaluation charged more steps than its ceiling allows
    /// ([`crate::Interp::max_steps`]; a resource limit, E0900 in a load's
    /// diagnostics).
    OutOfFuel,
}

/// A runtime error. Since elaborated programs are statically typed, these
/// only arise from builtin misuse (e.g. `error`-primitive calls) or from
/// interpreter-level invariant violations, which the test suite treats as
/// bugs.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalError {
    pub message: String,
    pub kind: EvalErrorKind,
}

impl EvalError {
    pub fn new(message: impl Into<String>) -> EvalError {
        EvalError {
            message: message.into(),
            kind: EvalErrorKind::Generic,
        }
    }

    /// An error with an explicit stable classification.
    pub fn of_kind(kind: EvalErrorKind, message: impl Into<String>) -> EvalError {
        EvalError {
            message: message.into(),
            kind,
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl From<ur_db::DbError> for EvalError {
    fn from(e: ur_db::DbError) -> Self {
        EvalError::of_kind(EvalErrorKind::Db, format!("database: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(EvalError::new("boom").to_string(), "runtime error: boom");
    }

    #[test]
    fn new_is_generic() {
        assert_eq!(EvalError::new("x").kind, EvalErrorKind::Generic);
    }

    #[test]
    fn of_kind_preserves_kind_and_message() {
        let e = EvalError::of_kind(EvalErrorKind::MissingField, "no field A");
        assert_eq!(e.kind, EvalErrorKind::MissingField);
        assert_eq!(e.to_string(), "runtime error: no field A");
    }

    #[test]
    fn from_db_error() {
        let e: EvalError = ur_db::DbError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
        assert_eq!(e.kind, EvalErrorKind::Db);
    }
}
