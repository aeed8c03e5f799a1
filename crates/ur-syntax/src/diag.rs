//! Unified diagnostics: every user-facing error in the pipeline — lexing,
//! parsing, kinding, typing, disjointness, evaluation, resource
//! exhaustion — is reported as a [`Diagnostic`] carrying a source span, a
//! stable error code, a primary message, and optional notes.
//!
//! ## Error-code scheme
//!
//! | Range  | Layer                                   |
//! |--------|-----------------------------------------|
//! | E01xx  | lexer (bad token, unterminated literal) |
//! | E02xx  | parser (unexpected token, nesting)      |
//! | E03xx  | kind checking                           |
//! | E04xx  | type checking / unification             |
//! | E05xx  | disjointness constraints                |
//! | E06xx  | evaluation / runtime substrate          |
//! | E07xx  | batch scheduling (dependency graph)     |
//! | E09xx  | resource exhaustion (fuel limits)       |

use crate::ast::Span;
use std::fmt;

/// Stable machine-readable error codes. Display as `E0xxx`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// E0100: malformed token (bad character, bad escape, bad number).
    Lex,
    /// E0101: unterminated string or comment.
    LexUnterminated,
    /// E0200: unexpected token / malformed syntax.
    Parse,
    /// E0201: nesting too deep for the parser.
    ParseTooDeep,
    /// E0300: ill-kinded constructor.
    Kind,
    /// E0400: type mismatch.
    TypeMismatch,
    /// E0401: unbound name.
    Unbound,
    /// E0402: unresolved unification constraint / ambiguous inference.
    Unresolved,
    /// E0500: disjointness constraint refuted or unprovable.
    Disjoint,
    /// E0600: evaluation error.
    Eval,
    /// E0900: a resource limit was exhausted during inference.
    ResourceExhausted,
    /// E0999: uncategorized.
    Other,
}

impl Code {
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::Lex => "E0100",
            Code::LexUnterminated => "E0101",
            Code::Parse => "E0200",
            Code::ParseTooDeep => "E0201",
            Code::Kind => "E0300",
            Code::TypeMismatch => "E0400",
            Code::Unbound => "E0401",
            Code::Unresolved => "E0402",
            Code::Disjoint => "E0500",
            Code::Eval => "E0600",
            Code::ResourceExhausted => "E0900",
            Code::Other => "E0999",
        }
    }

    /// Every code, in `as_str` order (used to invert the mapping).
    pub const ALL: [Code; 12] = [
        Code::Lex,
        Code::LexUnterminated,
        Code::Parse,
        Code::ParseTooDeep,
        Code::Kind,
        Code::TypeMismatch,
        Code::Unbound,
        Code::Unresolved,
        Code::Disjoint,
        Code::Eval,
        Code::ResourceExhausted,
        Code::Other,
    ];

    /// Parses an `E0xxx` string (as produced by [`Code::as_str`]); the
    /// incremental cache persists codes in this form.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single user-facing diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub span: Span,
    pub code: Code,
    pub message: String,
    /// Secondary lines (hints, involved types, budget figures).
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(span: Span, code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            span,
            code,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Appends a secondary note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// True for E09xx resource-exhaustion diagnostics.
    pub fn is_resource(&self) -> bool {
        self.code == Code::ResourceExhausted
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {} (at {})", self.code, self.message, self.span)?;
        for n in &self.notes {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

/// An ordered batch of diagnostics from one elaboration pass.
pub type Diagnostics = Vec<Diagnostic>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::Lex.to_string(), "E0100");
        assert_eq!(Code::ResourceExhausted.to_string(), "E0900");
    }

    #[test]
    fn code_strings_round_trip() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("E1234"), None);
        assert_eq!(Code::parse(""), None);
    }

    #[test]
    fn display_includes_code_span_and_notes() {
        let d = Diagnostic::new(
            Span { line: 3, col: 7 },
            Code::TypeMismatch,
            "expected int, found string",
        )
        .with_note("in the second field of the record");
        let s = d.to_string();
        assert!(s.contains("E0400"));
        assert!(s.contains("3:7"));
        assert!(s.contains("note: in the second field"));
    }

    #[test]
    fn resource_predicate() {
        let d = Diagnostic::new(Span::default(), Code::ResourceExhausted, "x");
        assert!(d.is_resource());
        let d2 = Diagnostic::new(Span::default(), Code::Parse, "y");
        assert!(!d2.is_resource());
    }
}
