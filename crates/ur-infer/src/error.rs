//! Elaboration errors with source positions.

use std::fmt;
use ur_syntax::{Code, Diagnostic, Span};

/// An error produced during elaboration or constraint solving.
#[derive(Clone, Debug)]
pub struct ElabError {
    pub span: Span,
    pub message: String,
    /// Stable diagnostic code; classified from the message if not set
    /// explicitly.
    pub code: Option<Code>,
}

impl ElabError {
    pub fn new(span: Span, message: impl Into<String>) -> ElabError {
        ElabError {
            span,
            message: message.into(),
            code: None,
        }
    }

    /// Tags this error with an explicit diagnostic code.
    pub fn with_code(mut self, code: Code) -> ElabError {
        self.code = Some(code);
        self
    }

    /// The diagnostic code: the explicit tag if set, otherwise classified
    /// from the message text.
    pub fn code(&self) -> Code {
        self.code.unwrap_or_else(|| classify(&self.message))
    }
}

/// Best-effort classification of a legacy message-only error into the
/// stable code scheme (see [`ur_syntax::diag`]).
fn classify(message: &str) -> Code {
    if message.contains("resource limit exhausted") {
        Code::ResourceExhausted
    } else if message.contains("unbound") {
        Code::Unbound
    } else if message.contains("share a field name") || message.contains("disjoint") {
        Code::Disjoint
    } else if message.contains("could not infer")
        || message.contains("unsolved constraint")
        || message.contains("undetermined part")
    {
        Code::Unresolved
    } else if message.contains("kind") {
        Code::Kind
    } else if message.starts_with("expected ") || message.contains("nesting too deep") {
        Code::Parse
    } else {
        Code::TypeMismatch
    }
}

/// Renumbers metavariable numerals (`?3`, `?k17`) in a message by first
/// appearance, so the same error renders identically regardless of how
/// many metavariables the context happened to allocate earlier.
///
/// Metavariable indices are per-`MetaCx` allocation order, which depends
/// on which earlier declarations were elaborated — an incremental rebuild
/// that reuses them allocates none. Everything else in a message (symbols
/// display by name only, types are zonked) is independent of that.
pub(crate) fn canon_meta_numerals(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    let mut con_ids: Vec<String> = Vec::new();
    let mut kind_ids: Vec<String> = Vec::new();
    let bytes = msg.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'?' {
            let mut j = i + 1;
            let is_kind = bytes.get(j) == Some(&b'k')
                && bytes.get(j + 1).is_some_and(u8::is_ascii_digit);
            if is_kind {
                j += 1;
            }
            let digits_start = j;
            while bytes.get(j).is_some_and(u8::is_ascii_digit) {
                j += 1;
            }
            if j > digits_start {
                let numeral = &msg[digits_start..j];
                let ids = if is_kind { &mut kind_ids } else { &mut con_ids };
                let canon = match ids.iter().position(|n| n == numeral) {
                    Some(p) => p,
                    None => {
                        ids.push(numeral.to_string());
                        ids.len() - 1
                    }
                };
                out.push('?');
                if is_kind {
                    out.push('k');
                }
                out.push_str(&canon.to_string());
                i = j;
                continue;
            }
        }
        // Advance over one whole UTF-8 scalar, not one byte.
        let ch_len = msg[i..].chars().next().map_or(1, char::len_utf8);
        out.push_str(&msg[i..i + ch_len]);
        i += ch_len;
    }
    out
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ElabError {}

impl From<ElabError> for Diagnostic {
    fn from(e: ElabError) -> Self {
        let code = e.code();
        Diagnostic::new(e.span, code, canon_meta_numerals(&e.message))
    }
}

/// Result alias used throughout the elaborator.
pub type EResult<T> = Result<T, ElabError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ElabError::new(Span { line: 4, col: 7 }, "boom");
        assert_eq!(e.to_string(), "error at 4:7: boom");
    }

    #[test]
    fn explicit_code_wins() {
        let e = ElabError::new(Span::default(), "anything")
            .with_code(Code::ResourceExhausted);
        assert_eq!(e.code(), Code::ResourceExhausted);
    }

    #[test]
    fn classification_covers_common_messages() {
        let cases = [
            ("resource limit exhausted: recursion depth", Code::ResourceExhausted),
            ("unbound variable x", Code::Unbound),
            ("rows [A] and [A] share a field name", Code::Disjoint),
            ("could not infer ?t", Code::Unresolved),
            ("cannot unify kind Type with Name", Code::Kind),
            ("cannot unify int with string", Code::TypeMismatch),
        ];
        for (msg, want) in cases {
            assert_eq!(ElabError::new(Span::default(), msg).code(), want, "{msg}");
        }
    }

    #[test]
    fn converts_to_diagnostic() {
        let d: Diagnostic =
            ElabError::new(Span { line: 1, col: 2 }, "unbound variable y").into();
        assert_eq!(d.code, Code::Unbound);
        assert!(d.to_string().contains("1:2"));
    }

    #[test]
    fn meta_numerals_canonicalize_by_first_appearance() {
        assert_eq!(
            canon_meta_numerals("unsolved constraint: ?17 = ?5 -> ?17"),
            "unsolved constraint: ?0 = ?1 -> ?0"
        );
        // Kind metas get their own counter; already-canonical text is a
        // fixed point.
        assert_eq!(
            canon_meta_numerals("?k9 vs ?9 vs ?k9"),
            "?k0 vs ?0 vs ?k0"
        );
        assert_eq!(canon_meta_numerals("?0 = ?1"), "?0 = ?1");
        // A bare '?' (no digits) passes through untouched.
        assert_eq!(canon_meta_numerals("what? nothing"), "what? nothing");
    }

    #[test]
    fn diagnostic_conversion_canonicalizes_metas() {
        let d: Diagnostic =
            ElabError::new(Span::default(), "could not infer ?42").into();
        assert_eq!(d.message, "could not infer ?0");
    }
}
