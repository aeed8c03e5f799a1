//! Hand-written lexer for the Ur surface language.
//!
//! Comments are ML-style `(* ... *)` and nest. Floats require a digit on
//! both sides of the point (`2.3`); a lone `.` is the projection operator,
//! so nested pair projections are written with parentheses: `(p.1).2`.

use crate::ast::Span;
use std::fmt;

/// Lexical tokens.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // keywords
    Fn,
    Val,
    Fun,
    Con,
    Type,
    Let,
    In,
    End,
    If,
    Then,
    Else,
    True,
    False,
    KwType, // the kind `Type`
    KwName, // the kind `Name`
    // punctuation
    DColon,   // ::
    Colon,    // :
    Eq,       // =
    DArrow,   // =>
    Arrow,    // ->
    PlusPlus, // ++
    MinusMinus, // --
    Tilde,    // ~
    Bang,     // !
    Hash,     // #
    Dollar,   // $
    LBrack,
    RBrack,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Caret,   // ^
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,   // ==
    Ne,     // !=
    AndAnd, // &&
    OrOr,   // ||
    Under,  // _
    At,     // @
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Fn => write!(f, "fn"),
            Tok::Val => write!(f, "val"),
            Tok::Fun => write!(f, "fun"),
            Tok::Con => write!(f, "con"),
            Tok::Type => write!(f, "type"),
            Tok::Let => write!(f, "let"),
            Tok::In => write!(f, "in"),
            Tok::End => write!(f, "end"),
            Tok::If => write!(f, "if"),
            Tok::Then => write!(f, "then"),
            Tok::Else => write!(f, "else"),
            Tok::True => write!(f, "True"),
            Tok::False => write!(f, "False"),
            Tok::KwType => write!(f, "Type"),
            Tok::KwName => write!(f, "Name"),
            Tok::DColon => write!(f, "::"),
            Tok::Colon => write!(f, ":"),
            Tok::Eq => write!(f, "="),
            Tok::DArrow => write!(f, "=>"),
            Tok::Arrow => write!(f, "->"),
            Tok::PlusPlus => write!(f, "++"),
            Tok::MinusMinus => write!(f, "--"),
            Tok::Tilde => write!(f, "~"),
            Tok::Bang => write!(f, "!"),
            Tok::Hash => write!(f, "#"),
            Tok::Dollar => write!(f, "$"),
            Tok::LBrack => write!(f, "["),
            Tok::RBrack => write!(f, "]"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Dot => write!(f, "."),
            Tok::Star => write!(f, "*"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::Caret => write!(f, "^"),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::EqEq => write!(f, "=="),
            Tok::Ne => write!(f, "!="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Under => write!(f, "_"),
            Tok::At => write!(f, "@"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token paired with its source position.
#[derive(Clone, PartialEq, Debug)]
pub struct SpannedTok {
    pub tok: Tok,
    pub span: Span,
}

/// Lexing errors.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    pub span: Span,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

impl From<LexError> for crate::diag::Diagnostic {
    fn from(e: LexError) -> Self {
        let code = if e.message.starts_with("unterminated") {
            crate::diag::Code::LexUnterminated
        } else {
            crate::diag::Code::Lex
        };
        crate::diag::Diagnostic::new(e.span, code, e.message)
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    /// Advances one byte. Columns count characters: a UTF-8
    /// continuation byte (`0b10xx_xxxx`) belongs to the character its
    /// lead byte already counted.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if c & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(c)
    }

    /// The whole character starting at byte `at`, for messages. Callers
    /// pass a token start or the byte after a backslash; both follow an
    /// ASCII byte, so `at` is a character boundary.
    fn char_at(&self, at: usize) -> char {
        self.src
            .get(at..)
            .and_then(|s| s.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'(') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    let mut depth = 1;
                    while depth > 0 {
                        match (self.peek(), self.peek2()) {
                            (Some(b'('), Some(b'*')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some(b'*'), Some(b')')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LexError {
                                    span: start,
                                    message: "unterminated comment".into(),
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' {
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src.as_bytes()[start..self.pos]).into_owned()
    }

    fn number(&mut self, span: Span) -> Result<Tok, LexError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let is_float = self.peek() == Some(b'.')
            && self.peek2().is_some_and(|c| c.is_ascii_digit());
        if is_float {
            self.bump(); // '.'
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            // Only ASCII digits and '.' were bumped, so the slice is valid
            // UTF-8; `from_utf8_lossy` keeps this path panic-free anyway.
            let text = String::from_utf8_lossy(&self.src.as_bytes()[start..self.pos]);
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| LexError {
                    span,
                    message: format!("bad float literal: {e}"),
                })
        } else {
            let text = String::from_utf8_lossy(&self.src.as_bytes()[start..self.pos]);
            text.parse::<i64>().map(Tok::Int).map_err(|e| LexError {
                span,
                message: format!("bad int literal: {e}"),
            })
        }
    }

    /// Lexes a string literal by copying its UTF-8 bytes, so multibyte
    /// characters stay whole. Quotes, backslashes and escapes are ASCII,
    /// which never occurs inside a multibyte sequence, so the bytes are
    /// always valid UTF-8 and the lossy conversion replaces nothing.
    fn string(&mut self, span: Span) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let unterminated = || LexError {
            span,
            message: "unterminated string literal".into(),
        };
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err(unterminated()),
                Some(b'"') => return Ok(Tok::Str(String::from_utf8_lossy(&out).into_owned())),
                Some(b'\\') => {
                    let at = self.pos;
                    match self.bump() {
                        None => return Err(unterminated()),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'"') => out.push(b'"'),
                        Some(_) => {
                            return Err(LexError {
                                span,
                                message: format!("bad escape \\{}", self.char_at(at)),
                            })
                        }
                    }
                }
                Some(c) => out.push(c),
            }
        }
    }
}

/// Lexes an entire source string into tokens (ending with [`Tok::Eof`]).
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated comments/strings or malformed
/// literals.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    let mut lx = Lexer {
        src,
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    loop {
        lx.skip_trivia()?;
        let span = lx.span();
        let Some(c) = lx.peek() else {
            out.push(SpannedTok {
                tok: Tok::Eof,
                span,
            });
            return Ok(out);
        };
        let tok = match c {
            b'a'..=b'z' | b'A'..=b'Z' => {
                let id = lx.ident();
                match id.as_str() {
                    "fn" => Tok::Fn,
                    "val" => Tok::Val,
                    "fun" => Tok::Fun,
                    "con" => Tok::Con,
                    "type" => Tok::Type,
                    "let" => Tok::Let,
                    "in" => Tok::In,
                    "end" => Tok::End,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "True" => Tok::True,
                    "False" => Tok::False,
                    "Type" => Tok::KwType,
                    "Name" => Tok::KwName,
                    _ => Tok::Ident(id),
                }
            }
            b'_' => {
                // `_` alone is the wildcard; `_foo` is an identifier.
                if lx.peek2().is_some_and(|c2| {
                    c2.is_ascii_alphanumeric() || c2 == b'_' || c2 == b'\''
                }) {
                    Tok::Ident(lx.ident())
                } else {
                    lx.bump();
                    Tok::Under
                }
            }
            b'0'..=b'9' => lx.number(span)?,
            b'"' => lx.string(span)?,
            _ => {
                let start = lx.pos;
                lx.bump();
                match c {
                    b':' => {
                        if lx.peek() == Some(b':') {
                            lx.bump();
                            Tok::DColon
                        } else {
                            Tok::Colon
                        }
                    }
                    b'=' => match lx.peek() {
                        Some(b'>') => {
                            lx.bump();
                            Tok::DArrow
                        }
                        Some(b'=') => {
                            lx.bump();
                            Tok::EqEq
                        }
                        _ => Tok::Eq,
                    },
                    b'-' => match lx.peek() {
                        Some(b'>') => {
                            lx.bump();
                            Tok::Arrow
                        }
                        Some(b'-') => {
                            lx.bump();
                            Tok::MinusMinus
                        }
                        _ => Tok::Minus,
                    },
                    b'+' => {
                        if lx.peek() == Some(b'+') {
                            lx.bump();
                            Tok::PlusPlus
                        } else {
                            Tok::Plus
                        }
                    }
                    b'~' => Tok::Tilde,
                    b'!' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Ne
                        } else {
                            Tok::Bang
                        }
                    }
                    b'#' => Tok::Hash,
                    b'$' => Tok::Dollar,
                    b'[' => Tok::LBrack,
                    b']' => Tok::RBrack,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b',' => Tok::Comma,
                    b'.' => Tok::Dot,
                    b'@' => Tok::At,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    b'^' => Tok::Caret,
                    b'<' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Le
                        } else {
                            Tok::Lt
                        }
                    }
                    b'>' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Ge
                        } else {
                            Tok::Gt
                        }
                    }
                    b'&' => {
                        if lx.peek() == Some(b'&') {
                            lx.bump();
                            Tok::AndAnd
                        } else {
                            return Err(LexError {
                                span,
                                message: "expected && (single & is not an operator)".into(),
                            });
                        }
                    }
                    b'|' => {
                        if lx.peek() == Some(b'|') {
                            lx.bump();
                            Tok::OrOr
                        } else {
                            return Err(LexError {
                                span,
                                message: "expected || (single | is not an operator)".into(),
                            });
                        }
                    }
                    _ => {
                        return Err(LexError {
                            span,
                            message: format!("unexpected character {:?}", lx.char_at(start)),
                        })
                    }
                }
            }
        };
        out.push(SpannedTok { tok, span });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| t.tok)
            .filter(|t| *t != Tok::Eof)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("fun proj val x"),
            vec![
                Tok::Fun,
                Tok::Ident("proj".into()),
                Tok::Val,
                Tok::Ident("x".into())
            ]
        );
    }

    #[test]
    fn kind_keywords() {
        assert_eq!(toks("Type Name"), vec![Tok::KwType, Tok::KwName]);
    }

    #[test]
    fn punctuation() {
        assert_eq!(
            toks(":: : = => -> ++ -- ~ ! # $"),
            vec![
                Tok::DColon,
                Tok::Colon,
                Tok::Eq,
                Tok::DArrow,
                Tok::Arrow,
                Tok::PlusPlus,
                Tok::MinusMinus,
                Tok::Tilde,
                Tok::Bang,
                Tok::Hash,
                Tok::Dollar
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42 2.3"), vec![Tok::Int(42), Tok::Float(2.3)]);
    }

    #[test]
    fn projection_dot_does_not_eat_float() {
        // x.1 must lex as Ident Dot Int, not Ident Float.
        assert_eq!(
            toks("x.1"),
            vec![Tok::Ident("x".into()), Tok::Dot, Tok::Int(1)]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""a\"b\n""#),
            vec![Tok::Str("a\"b\n".into())]
        );
    }

    #[test]
    fn strings_keep_multibyte_characters() {
        assert_eq!(toks("\"hé😀\\n\""), vec![Tok::Str("hé😀\n".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
    }

    fn lex_error(src: &str) -> LexError {
        lex(src).expect_err(src)
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let col_of_last = |src: &str| lex(src).unwrap().iter().rev().nth(1).unwrap().span;
        let ascii = col_of_last("val s = \"aaaaa\" val t = nope");
        assert_eq!(ascii, Span { line: 1, col: 25 });
        assert_eq!(col_of_last("val s = \"ééééé\" val t = nope"), ascii);
        assert_eq!(col_of_last("val s = \"😀😀😀😀😀\" val t = nope"), ascii);
    }

    #[test]
    fn unexpected_characters_are_printed_whole() {
        let e = lex_error("val s = 1 é");
        assert_eq!(e.message, "unexpected character 'é'");
        assert_eq!(e.span, Span { line: 1, col: 11 });
        assert_eq!(lex_error("x ~ `").message, "unexpected character '`'");
    }

    #[test]
    fn bad_escapes_name_the_escape() {
        assert_eq!(lex_error(r#""a\qb""#).message, "bad escape \\q");
        assert_eq!(lex_error("\"a\\éb\"").message, "bad escape \\é");
    }

    #[test]
    fn a_backslash_at_end_of_input_is_an_unterminated_string() {
        let e = lex_error("val s = \"ab\\");
        assert_eq!(e.message, "unterminated string literal");
        assert_eq!(e.span, Span { line: 1, col: 9 });
    }

    #[test]
    fn nested_comments() {
        assert_eq!(
            toks("a (* x (* y *) z *) b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into())]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= == != && ||"),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::EqEq,
                Tok::Ne,
                Tok::AndAnd,
                Tok::OrOr
            ]
        );
    }

    #[test]
    fn wildcard_vs_ident() {
        assert_eq!(
            toks("_ _x"),
            vec![Tok::Under, Tok::Ident("_x".into())]
        );
    }

    #[test]
    fn spans_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].span, Span { line: 1, col: 1 });
        assert_eq!(ts[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn double_minus_vs_arrow() {
        assert_eq!(
            toks("a -- b - c -> d"),
            vec![
                Tok::Ident("a".into()),
                Tok::MinusMinus,
                Tok::Ident("b".into()),
                Tok::Minus,
                Tok::Ident("c".into()),
                Tok::Arrow,
                Tok::Ident("d".into())
            ]
        );
    }
}
