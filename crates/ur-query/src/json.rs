//! Minimal hand-rolled JSON support (the workspace takes no external
//! dependencies): an escaping encoder for machine-readable diagnostics
//! and a flat-object parser for the serve protocol.
//!
//! One encoder serves every consumer — `urc --emit-json`, serve-mode
//! responses, and the CI benchmark reports — so the wire format cannot
//! drift between them.

use std::collections::HashMap;
use ur_syntax::Diagnostic;

pub use ur_core::json::escape;

/// One diagnostic as a JSON object:
/// `{"code":"E0400","line":3,"col":7,"message":"…","notes":["…"]}`.
pub fn diag_to_json(d: &Diagnostic) -> String {
    let notes: Vec<String> = d.notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
    format!(
        "{{\"code\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"notes\":[{}]}}",
        d.code.as_str(),
        d.span.line,
        d.span.col,
        escape(&d.message),
        notes.join(",")
    )
}

/// A batch of diagnostics as a JSON array.
pub fn diags_to_json(ds: &[Diagnostic]) -> String {
    let items: Vec<String> = ds.iter().map(diag_to_json).collect();
    format!("[{}]", items.join(","))
}

/// Parses one *flat* JSON object — string, integer, or boolean values
/// only, no nesting — into a string→string map (non-string scalars keep
/// their literal spelling). This is the entire grammar of serve-mode
/// requests, so a full JSON parser would be dead weight. Returns `None`
/// on anything malformed.
pub fn parse_flat_object(line: &str) -> Option<HashMap<String, String>> {
    let mut chars = line.trim().chars().peekable();
    let mut map = HashMap::new();
    if chars.next()? != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        skip_ws(&mut chars);
        return chars.next().is_none().then_some(map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let val = match chars.peek()? {
            '"' => parse_string(&mut chars)?,
            _ => {
                // Bare scalar: number / true / false / null.
                let mut tok = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' || c == '}' || c.is_whitespace() {
                        break;
                    }
                    tok.push(c);
                    chars.next();
                }
                let numeric = !tok.is_empty()
                    && tok
                        .chars()
                        .all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'));
                if !(numeric || matches!(tok.as_str(), "true" | "false" | "null")) {
                    return None;
                }
                tok
            }
        };
        map.insert(key, val);
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    skip_ws(&mut chars);
    chars.next().is_none().then_some(map)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut v = hex4(chars)?;
                    // A character outside the BMP arrives as a surrogate
                    // pair; a lone surrogate is no character and fails
                    // `char::from_u32`.
                    if (0xD800..0xDC00).contains(&v) {
                        if (chars.next()?, chars.next()?) != ('\\', 'u') {
                            return None;
                        }
                        let low = hex4(chars)?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return None;
                        }
                        v = 0x10000 + ((v - 0xD800) << 10) + (low - 0xDC00);
                    }
                    out.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// The value of the four hex digits after a `\u` escape.
fn hex4(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<u32> {
    let mut v = 0u32;
    for _ in 0..4 {
        v = v * 16 + chars.next()?.to_digit(16)?;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ur_syntax::{Code, Span};

    #[test]
    fn diag_json_shape_is_stable() {
        let d = Diagnostic::new(
            Span { line: 3, col: 7 },
            Code::TypeMismatch,
            "expected \"int\"",
        )
        .with_note("hint");
        assert_eq!(
            diag_to_json(&d),
            "{\"code\":\"E0400\",\"line\":3,\"col\":7,\
             \"message\":\"expected \\\"int\\\"\",\"notes\":[\"hint\"]}"
        );
        assert_eq!(diags_to_json(&[]), "[]");
    }

    #[test]
    fn encoded_diag_parses_back_as_flat_object() {
        let d = Diagnostic::new(Span { line: 1, col: 2 }, Code::Unbound, "no \"x\"\nhere");
        let m = parse_flat_object(&diag_to_json(&d));
        // notes is an array, not flat — so full round-trip only holds
        // for a note-free diagnostic once we cut the notes field.
        assert!(m.is_none(), "nested arrays are out of the flat grammar");
        let flat = "{\"cmd\":\"edit\",\"line\":3,\"text\":\"val x = \\\"s\\\"\"}";
        let m = parse_flat_object(flat).expect("parses");
        assert_eq!(m.get("cmd").map(String::as_str), Some("edit"));
        assert_eq!(m.get("line").map(String::as_str), Some("3"));
        assert_eq!(m.get("text").map(String::as_str), Some("val x = \"s\""));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":bogus}",
            "{\"a\":\"unterminated}",
            "{\"a\":1} trailing",
            "[1,2]",
        ] {
            assert!(parse_flat_object(bad).is_none(), "accepted: {bad}");
        }
        assert_eq!(parse_flat_object("{}"), Some(Default::default()));
        assert_eq!(parse_flat_object("  { }  "), Some(Default::default()));
    }

    #[test]
    fn unicode_escapes_decode() {
        let m = parse_flat_object("{\"k\":\"\\u0041\\u00e9\"}").expect("parses");
        assert_eq!(m.get("k").map(String::as_str), Some("Aé"));
        // Surrogate pairs, as Python's `json.dumps` writes them.
        let m = parse_flat_object("{\"cmd\":\"eval\",\"expr\":\"\\\"\\ud83d\\ude00\\\"\"}")
            .expect("parses");
        assert_eq!(m.get("expr").map(String::as_str), Some("\"😀\""));
        for lone in [
            "\\ud83d",
            "\\ude00",
            "\\ud83d\\u0041",
            "\\ud83dx",
            "\\ud83d\\ud83d",
        ] {
            let req = format!("{{\"k\":\"{lone}\"}}");
            assert!(parse_flat_object(&req).is_none(), "accepted: {req}");
        }
    }
}
