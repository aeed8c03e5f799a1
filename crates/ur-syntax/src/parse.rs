//! Recursive-descent parser for the Ur surface language (paper §2 syntax).
//!
//! Noteworthy disambiguations:
//!
//! * `[ ... ]` in type position is a row literal unless a `~` follows the
//!   first constructor, in which case it is a disjointness guard
//!   `[c1 ~ c2] => t`.
//! * `x :: K -> t` parses as a polymorphic type when an identifier is
//!   immediately followed by `::` (the paper: "the parsing precedence of
//!   the :: operator is such that it binds more tightly than any other").
//! * In an application spine, `e [c]` is explicit constructor application
//!   and `e !` discharges a disjointness guard.
//!
//! The parser runs on the caller's thread, so the stack one nesting level
//! costs decides how deep an input fits. Nesting recurses only through
//! `Parser::expr`, `Parser::con` and `Parser::kind`, which charge the
//! [`MAX_PARSE_DEPTH`] budget, and a level passes through a handful of
//! small frames:
//!
//! * binary operators are one precedence-climbing loop over a stack of
//!   pending operands, not one function per precedence level;
//! * right-nested chains (`fn`, `let` and `if` heads; `x :: K ->`
//!   binders, type-level `fn`s, guards and arrows) are loops that charge
//!   one budget level per link;
//! * so are left-associative operator chains and `$`/`@` prefix runs,
//!   whose ASTs nest one node per link although the parser does not
//!   recurse on them: a later pass that walks the AST recursively (drop,
//!   elaboration) must not meet a chain deeper than the budget. `++`
//!   chains and application spines stay uncharged;
//! * parentheses, records, parameter lists, `[c]`, `!`, `--` and the
//!   error messages live in functions of their own, so their locals stay
//!   out of the frames every level passes through;
//! * nodes travel boxed between the functions on the nesting path, so
//!   their frames hold pointers rather than whole nodes.

use crate::ast::*;
use crate::lex::{lex, LexError, SpannedTok, Tok};
use std::fmt;
use std::ops::Range;

/// Parse errors, carrying the offending position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub span: Span,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

impl From<ParseError> for crate::diag::Diagnostic {
    fn from(e: ParseError) -> Self {
        let code = if e.message.contains(TOO_DEEP_MSG) {
            crate::diag::Code::ParseTooDeep
        } else if e.message.starts_with("unterminated") {
            crate::diag::Code::LexUnterminated
        } else {
            crate::diag::Code::Parse
        };
        crate::diag::Diagnostic::new(e.span, code, e.message)
    }
}

/// Maximum nesting depth of the parser. Inputs nested deeper than this
/// (e.g. ten thousand unbalanced `(`s) are rejected with a `ParseTooDeep`
/// diagnostic instead of overflowing the caller's stack: every recursive
/// shape nested this deep fits in 1.5 MiB of stack in a debug build
/// (`tests/parse_stack.rs`).
pub const MAX_PARSE_DEPTH: usize = 200;

const TOO_DEEP_MSG: &str = "nesting too deep";

type PResult<T> = Result<T, ParseError>;

/// Parses a full program (a sequence of declarations).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_program(src: &str) -> PResult<Program> {
    let mut p = Parser::new(src)?;
    let mut decls = Vec::new();
    while *p.peek() != Tok::Eof {
        decls.push(p.decl()?);
    }
    Ok(Program { decls })
}

/// Parses a single expression (useful for tests and the REPL example).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_expr(src: &str) -> PResult<SExpr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok(*e)
}

/// Parses a single constructor (type).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_con(src: &str) -> PResult<SCon> {
    let mut p = Parser::new(src)?;
    let c = p.con()?;
    p.expect(&Tok::Eof)?;
    Ok(*c)
}

/// Binary operators by binding strength, loosest first.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Prec {
    Or,
    And,
    Cmp,
    Cat,
    Add,
    Mul,
}

fn binop(t: &Tok) -> Option<(&'static str, Prec)> {
    Some(match t {
        Tok::OrOr => ("||", Prec::Or),
        Tok::AndAnd => ("&&", Prec::And),
        Tok::EqEq => ("==", Prec::Cmp),
        Tok::Ne => ("!=", Prec::Cmp),
        Tok::Lt => ("<", Prec::Cmp),
        Tok::Le => ("<=", Prec::Cmp),
        Tok::Gt => (">", Prec::Cmp),
        Tok::Ge => (">=", Prec::Cmp),
        Tok::PlusPlus => ("++", Prec::Cat),
        Tok::Plus => ("+", Prec::Add),
        Tok::Minus => ("-", Prec::Add),
        Tok::Caret => ("^", Prec::Add),
        Tok::Star => ("*", Prec::Mul),
        Tok::Slash => ("/", Prec::Mul),
        Tok::Percent => ("%", Prec::Mul),
        _ => return None,
    })
}

/// A left operand waiting for its operator's right operand.
struct Pending {
    span: Span,
    lhs: Box<SExpr>,
    op: &'static str,
    prec: Prec,
}

/// A `fn`, `let` or `if` head waiting for the expression it scopes over.
enum ExprLink {
    Fn(Span, Vec<SParam>),
    Let(Span, Vec<SDecl>),
    If(Span, Box<SExpr>, Box<SExpr>),
}

/// A constructor prefix waiting for the constructor to its right.
enum ConLink {
    Poly(Span, String, SKind),
    Lam(Span, Vec<(String, Option<SKind>)>),
    Guard(Span, Box<SCon>, Box<SCon>),
    Arrow(Span, Box<SCon>),
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Nesting levels open on the current path.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> PResult<Parser> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> PResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.expected(t))
        }
    }

    #[cold]
    #[inline(never)]
    fn err(&self, message: String) -> ParseError {
        ParseError {
            span: self.span(),
            message,
        }
    }

    #[cold]
    #[inline(never)]
    fn expected(&self, t: &Tok) -> ParseError {
        self.err(format!("expected `{t}`, found `{}`", self.peek()))
    }

    /// The current token cannot start `what`.
    #[cold]
    #[inline(never)]
    fn unexpected(&self, what: &str) -> ParseError {
        self.err(format!("expected {what}, found `{}`", self.peek()))
    }

    /// Charges one nesting level; deeply nested inputs get a
    /// `ParseTooDeep` error instead of a stack overflow. Errors abort the
    /// parse, so only the successful path gives levels back
    /// ([`Parser::ascend`]); the guard probe, the one place that
    /// backtracks, restores the depth it saved, and never backtracks
    /// over a depth failure.
    fn descend(&mut self) -> PResult<()> {
        if self.depth < MAX_PARSE_DEPTH {
            self.depth += 1;
            Ok(())
        } else {
            Err(self.too_deep())
        }
    }

    fn ascend(&mut self, levels: usize) {
        self.depth = self.depth.saturating_sub(levels);
    }

    #[cold]
    #[inline(never)]
    fn too_deep(&self) -> ParseError {
        self.err(format!(
            "{TOO_DEEP_MSG}: the parse-depth budget of {MAX_PARSE_DEPTH} \
             nesting levels is exhausted"
        ))
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek() {
            Tok::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    /// An identifier in name-literal position (`#N`); the kind keywords
    /// `Type` and `Name` are acceptable names there.
    fn name_ident(&mut self) -> PResult<String> {
        let name = match self.peek() {
            Tok::Ident(s) => s.clone(),
            Tok::KwType => "Type".to_string(),
            Tok::KwName => "Name".to_string(),
            _ => return Err(self.unexpected("a name")),
        };
        self.bump();
        Ok(name)
    }

    // ---------------- declarations ----------------

    fn decl(&mut self) -> PResult<SDecl> {
        let span = self.span();
        match self.peek() {
            Tok::Con => self.decl_con(span),
            Tok::Type => self.decl_type(span),
            Tok::Val => self.decl_val(span),
            Tok::Fun => self.decl_fun(span),
            _ => Err(self.unexpected("a declaration")),
        }
    }

    fn decl_con(&mut self, span: Span) -> PResult<SDecl> {
        self.bump();
        let name = self.ident()?;
        self.expect(&Tok::DColon)?;
        let k = self.kind()?;
        if self.eat(&Tok::Eq) {
            let c = self.con()?;
            Ok(SDecl::ConDef(span, name, Some(k), *c))
        } else {
            Ok(SDecl::ConAbs(span, name, k))
        }
    }

    fn decl_type(&mut self, span: Span) -> PResult<SDecl> {
        self.bump();
        let name = self.ident()?;
        // Optional parameters: `(x :: K)` groups or bare idents.
        let mut params = Vec::new();
        loop {
            match self.peek() {
                Tok::Ident(x) => {
                    params.push((x.clone(), None));
                    self.bump();
                }
                Tok::LParen => params.push(self.paren_binder()?),
                _ => break,
            }
        }
        self.expect(&Tok::Eq)?;
        let body = self.con()?;
        Ok(SDecl::ConDef(span, name, None, *lams(span, params, body)))
    }

    fn decl_val(&mut self, span: Span) -> PResult<SDecl> {
        self.bump();
        let name = self.ident()?;
        let ann = self.annotation()?;
        if self.eat(&Tok::Eq) {
            let e = self.expr()?;
            Ok(SDecl::Val(span, name, ann, *e))
        } else {
            match ann {
                Some(t) => Ok(SDecl::ValAbs(span, name, t)),
                None => Err(self.err("`val` without a body needs a type annotation".into())),
            }
        }
    }

    fn decl_fun(&mut self, span: Span) -> PResult<SDecl> {
        self.bump();
        let name = self.ident()?;
        let params = self.params()?;
        let ann = self.annotation()?;
        self.expect(&Tok::Eq)?;
        let e = self.expr()?;
        Ok(SDecl::Fun(span, name, params, ann, *e))
    }

    /// An optional `: t`.
    fn annotation(&mut self) -> PResult<Option<SCon>> {
        if self.eat(&Tok::Colon) {
            Ok(Some(*self.con()?))
        } else {
            Ok(None)
        }
    }

    /// Parses zero or more `fn`/`fun` parameters.
    fn params(&mut self) -> PResult<Vec<SParam>> {
        let mut out = Vec::new();
        loop {
            let param = match self.peek() {
                Tok::LBrack => {
                    self.bump();
                    self.bracket_param()?
                }
                // `(x : t)`. Parameters only appear before `=`/`=>`, so a
                // `(` here is always a typed value binder.
                Tok::LParen => {
                    self.bump();
                    self.typed_param()?
                }
                Tok::Ident(x) => {
                    let p = SParam::VParam(x.clone(), None);
                    self.bump();
                    p
                }
                Tok::Under => {
                    self.bump();
                    SParam::VParam("_".into(), None)
                }
                _ => return Ok(out),
            };
            out.push(param);
        }
    }

    /// The rest of a `(x : t)` parameter, after the `(`.
    fn typed_param(&mut self) -> PResult<SParam> {
        let x = match self.peek() {
            Tok::Ident(x) => x.clone(),
            Tok::Under => "_".into(),
            _ => return Err(self.unexpected("parameter name")),
        };
        self.bump();
        self.expect(&Tok::Colon)?;
        let t = self.con()?;
        self.expect(&Tok::RParen)?;
        Ok(SParam::VParam(x, Some(*t)))
    }

    /// Parses the interior of a `[...]` parameter: either a constructor
    /// binder `[a :: K]` / `[a]`, or a disjointness binder `[c1 ~ c2]`.
    fn bracket_param(&mut self) -> PResult<SParam> {
        if let (Tok::Ident(x), next @ (Tok::RBrack | Tok::DColon)) = (self.peek(), self.peek2()) {
            let (x, kinded) = (x.clone(), *next == Tok::DColon);
            self.bump();
            self.bump();
            let k = if kinded {
                let k = self.kind()?;
                self.expect(&Tok::RBrack)?;
                Some(k)
            } else {
                None
            };
            return Ok(SParam::CParam(x, k));
        }
        let c1 = self.con()?;
        self.expect(&Tok::Tilde)?;
        let c2 = self.con()?;
        self.expect(&Tok::RBrack)?;
        Ok(SParam::DParam(*c1, *c2))
    }

    /// `(x :: K)`, starting at the `(`.
    fn paren_binder(&mut self) -> PResult<(String, Option<SKind>)> {
        self.bump();
        let x = self.ident()?;
        self.expect(&Tok::DColon)?;
        let k = self.kind()?;
        self.expect(&Tok::RParen)?;
        Ok((x, Some(k)))
    }

    // ---------------- kinds ----------------

    /// `k1 -> k2`, right-associative; each `->` charges one level.
    fn kind(&mut self) -> PResult<SKind> {
        self.descend()?;
        let mut lhs = Vec::new();
        let mut last = self.kind_pair()?;
        while self.eat(&Tok::Arrow) {
            self.descend()?;
            lhs.push(last);
            last = self.kind_pair()?;
        }
        self.ascend(lhs.len() + 1);
        while let Some(l) = lhs.pop() {
            last = SKind::Arrow(Box::new(l), Box::new(last));
        }
        Ok(last)
    }

    /// `k1 * k2 * ... * kn`, right-associative, in O(1) stack.
    fn kind_pair(&mut self) -> PResult<SKind> {
        let mut lhs = Vec::new();
        let mut last = self.kind_atom()?;
        while self.eat(&Tok::Star) {
            lhs.push(last);
            last = self.kind_atom()?;
        }
        while let Some(l) = lhs.pop() {
            last = SKind::Pair(Box::new(l), Box::new(last));
        }
        Ok(last)
    }

    fn kind_atom(&mut self) -> PResult<SKind> {
        let k = match self.peek() {
            Tok::KwType => SKind::Type,
            Tok::KwName => SKind::Name,
            Tok::Under => SKind::Wild,
            Tok::LBrace => return Ok(SKind::Row(Box::new(self.kind_group(&Tok::RBrace)?))),
            Tok::LParen => return self.kind_group(&Tok::RParen),
            _ => return Err(self.unexpected("a kind")),
        };
        self.bump();
        Ok(k)
    }

    /// A kind between the current token and `close`.
    fn kind_group(&mut self, close: &Tok) -> PResult<SKind> {
        self.bump();
        let k = self.kind()?;
        self.expect(close)?;
        Ok(k)
    }

    // ---------------- constructors ----------------

    /// A constructor: its right-nested prefixes (`x :: K ->` binders,
    /// type-level `fn`s, guards and arrow left-hand sides) collected in a
    /// loop, then closed around the constructor that ends the chain.
    fn con(&mut self) -> PResult<Box<SCon>> {
        self.descend()?;
        let mut links = Vec::new();
        let last = loop {
            let span = self.span();
            let link = match self.peek() {
                // Polymorphic type `x :: K -> c`. The binder kind parses
                // without a top-level arrow (write `tf :: ({Type} -> Type)
                // -> ...` for function kinds), so the `->` always belongs
                // to the polymorphic type itself.
                Tok::Ident(_) if *self.peek2() == Tok::DColon => Some(self.poly_head(span)?),
                Tok::Fn => Some(self.con_fn_head(span)?),
                Tok::LBrack => self.try_guard(span)?,
                _ => None,
            };
            let link = match link {
                Some(link) => link,
                None => {
                    let lhs = self.con_cat()?;
                    if !self.eat(&Tok::Arrow) {
                        break lhs;
                    }
                    ConLink::Arrow(span, lhs)
                }
            };
            links.push(link);
            self.descend()?;
        };
        self.ascend(links.len() + 1);
        Ok(close_con(links, last))
    }

    /// `x :: K ->`.
    fn poly_head(&mut self, span: Span) -> PResult<ConLink> {
        let x = self.ident()?;
        self.bump();
        let k = self.kind_pair()?;
        self.expect(&Tok::Arrow)?;
        Ok(ConLink::Poly(span, x, k))
    }

    /// `fn binders =>` at type level.
    fn con_fn_head(&mut self, span: Span) -> PResult<ConLink> {
        self.bump();
        // Binders: `x`, `x :: K` (single, unparenthesized), or repeated
        // `(x :: K)` groups.
        let mut binders: Vec<(String, Option<SKind>)> = Vec::new();
        loop {
            match self.peek() {
                Tok::Ident(x) => {
                    let x = x.clone();
                    self.bump();
                    if binders.is_empty() && self.eat(&Tok::DColon) {
                        let k = self.kind()?;
                        binders.push((x, Some(k)));
                        break;
                    }
                    binders.push((x, None));
                }
                Tok::Under => {
                    self.bump();
                    binders.push(("_".to_string(), None));
                }
                Tok::LParen => binders.push(self.paren_binder()?),
                _ => break,
            }
        }
        if binders.is_empty() {
            return Err(self.err("`fn` at type level needs at least one binder".into()));
        }
        self.expect(&Tok::DArrow)?;
        Ok(ConLink::Lam(span, binders))
    }

    /// At a `[`, determines whether a guard `[c1 ~ c2] =>` starts here. On
    /// success consumes through the `=>`; otherwise rewinds and returns
    /// `None`. The probe parses `c1` and backtracks over any error there
    /// but a depth failure, restoring the position and depth it saved.
    fn try_guard(&mut self, span: Span) -> PResult<Option<ConLink>> {
        let (pos, depth) = (self.pos, self.depth);
        self.bump();
        let c1 = match self.con() {
            Ok(c) => c,
            Err(e) if e.message.contains(TOO_DEEP_MSG) => return Err(e),
            Err(_) => {
                self.pos = pos;
                self.depth = depth;
                return Ok(None);
            }
        };
        if !self.eat(&Tok::Tilde) {
            self.pos = pos;
            return Ok(None);
        }
        let c2 = self.con()?;
        self.expect(&Tok::RBrack)?;
        self.expect(&Tok::DArrow)?;
        Ok(Some(ConLink::Guard(span, c1, c2)))
    }

    /// `c1 ++ c2 ++ ...` over application spines `c c' ...`. `++` is
    /// right-associative and every node of one chain spans from its first
    /// operand; the chain is folded iteratively, so its width costs no
    /// stack.
    fn con_cat(&mut self) -> PResult<Box<SCon>> {
        let span = self.span();
        let mut lhs = Vec::new();
        loop {
            let app_span = self.span();
            let mut app = self.con_atom()?;
            while matches!(
                self.peek(),
                Tok::Ident(_)
                    | Tok::Hash
                    | Tok::Dollar
                    | Tok::LParen
                    | Tok::LBrace
                    | Tok::LBrack
                    | Tok::Under
            ) {
                let arg = self.con_atom()?;
                app = Box::new(SCon::App(app_span, app, arg));
            }
            if !self.eat(&Tok::PlusPlus) {
                let mut out = app;
                while let Some(l) = lhs.pop() {
                    out = Box::new(SCon::Cat(span, l, out));
                }
                return Ok(out);
            }
            lhs.push(app);
        }
    }

    /// An atom after any `$` markers, with its `.1` / `.2` projections.
    fn con_atom(&mut self) -> PResult<Box<SCon>> {
        // `$` prefixes are counted, not recursed on; each charges the
        // level of the `Record` node it wraps around the atom.
        let dollars = self.pos;
        while *self.peek() == Tok::Dollar {
            self.descend()?;
            self.bump();
        }
        let dollars = dollars..self.pos;
        let span = self.span();
        let atom = match self.peek() {
            Tok::LParen => self.con_paren(span)?,
            Tok::LBrace => self.record_type(span)?,
            Tok::LBrack => self.row_lit(span)?,
            _ => self.con_leaf(span)?,
        };
        self.ascend(dollars.len());
        Ok(self.con_postfix(span, dollars, atom))
    }

    fn con_leaf(&mut self, span: Span) -> PResult<Box<SCon>> {
        let leaf = match self.peek() {
            Tok::Ident(x) => SCon::Var(span, x.clone()),
            Tok::Under => SCon::Wild(span),
            Tok::Hash => {
                self.bump();
                return Ok(Box::new(SCon::Name(span, self.name_ident()?)));
            }
            _ => return Err(self.unexpected("a type")),
        };
        self.bump();
        Ok(Box::new(leaf))
    }

    /// Applies the projections after `atom`, then the `$`s before it.
    fn con_postfix(&mut self, span: Span, dollars: Range<usize>, mut atom: Box<SCon>) -> Box<SCon> {
        loop {
            atom = match (self.peek(), self.peek2()) {
                (Tok::Dot, Tok::Int(1)) => Box::new(SCon::Fst(span, atom)),
                (Tok::Dot, Tok::Int(2)) => Box::new(SCon::Snd(span, atom)),
                _ => break,
            };
            self.bump();
            self.bump();
        }
        for at in dollars.rev() {
            atom = Box::new(SCon::Record(self.toks[at].span, atom));
        }
        atom
    }

    /// `(c)` or the pair `(c1, c2)`.
    fn con_paren(&mut self, span: Span) -> PResult<Box<SCon>> {
        self.bump();
        let first = self.con()?;
        let out = if self.eat(&Tok::Comma) {
            let second = self.con()?;
            Box::new(SCon::Pair(span, first, second))
        } else {
            first
        };
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    /// `{A : t, ...}`.
    fn record_type(&mut self, span: Span) -> PResult<Box<SCon>> {
        self.bump();
        let mut fields = Vec::new();
        if !self.eat(&Tok::RBrace) {
            loop {
                let name = self.field_name()?;
                self.expect(&Tok::Colon)?;
                let t = self.con()?;
                fields.push((name, *t));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
        }
        Ok(Box::new(SCon::RecordType(span, fields)))
    }

    /// `[A = t, B, ...]`.
    fn row_lit(&mut self, span: Span) -> PResult<Box<SCon>> {
        self.bump();
        let mut entries = Vec::new();
        if !self.eat(&Tok::RBrack) {
            loop {
                let name = self.field_name()?;
                let value = if self.eat(&Tok::Eq) {
                    Some(*self.con()?)
                } else {
                    None
                };
                entries.push((name, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrack)?;
        }
        Ok(Box::new(SCon::RowLit(span, entries)))
    }

    /// A field-name position: an identifier (resolved later: variable if
    /// bound, literal otherwise) or an explicit `#Name`. The kind keywords
    /// `Type` and `Name` are valid literal field names here.
    fn field_name(&mut self) -> PResult<SCon> {
        let span = self.span();
        let c = match self.peek() {
            Tok::Ident(x) => SCon::Var(span, x.clone()),
            Tok::KwType => SCon::Name(span, "Type".to_string()),
            Tok::KwName => SCon::Name(span, "Name".to_string()),
            Tok::Hash => {
                self.bump();
                return Ok(SCon::Name(span, self.name_ident()?));
            }
            _ => return Err(self.unexpected("a field name")),
        };
        self.bump();
        Ok(c)
    }

    // ---------------- expressions ----------------

    /// An expression: its `fn`, `let` and `if` heads collected in a loop,
    /// each charging one level for the expression it scopes over, then
    /// closed around the operator expression that ends the chain.
    fn expr(&mut self) -> PResult<Box<SExpr>> {
        self.descend()?;
        let mut links = Vec::new();
        loop {
            let span = self.span();
            let link = match self.peek() {
                Tok::Fn => self.fn_head(span)?,
                Tok::Let => self.let_head(span)?,
                Tok::If => self.if_head(span)?,
                _ => break,
            };
            links.push(link);
            self.descend()?;
        }
        let last = self.binary()?;
        self.ascend(links.len() + 1);
        self.close_expr(links, last)
    }

    /// `fn params =>`.
    fn fn_head(&mut self, span: Span) -> PResult<ExprLink> {
        self.bump();
        let params = self.params()?;
        if params.is_empty() {
            return Err(self.err("`fn` needs at least one parameter".into()));
        }
        self.expect(&Tok::DArrow)?;
        Ok(ExprLink::Fn(span, params))
    }

    /// `let decls in`; [`Parser::close_expr`] takes the `end`.
    fn let_head(&mut self, span: Span) -> PResult<ExprLink> {
        self.bump();
        let mut decls = Vec::new();
        while *self.peek() != Tok::In {
            decls.push(self.decl()?);
        }
        self.bump();
        Ok(ExprLink::Let(span, decls))
    }

    /// `if e1 then e2 else`.
    fn if_head(&mut self, span: Span) -> PResult<ExprLink> {
        self.bump();
        let c = self.expr()?;
        self.expect(&Tok::Then)?;
        let t = self.expr()?;
        self.expect(&Tok::Else)?;
        Ok(ExprLink::If(span, c, t))
    }

    /// Closes `links`, innermost first, around `body`.
    fn close_expr(&mut self, links: Vec<ExprLink>, mut body: Box<SExpr>) -> PResult<Box<SExpr>> {
        for link in links.into_iter().rev() {
            body = Box::new(match link {
                ExprLink::Fn(span, params) => SExpr::Fn(span, params, body),
                ExprLink::If(span, c, t) => SExpr::If(span, c, t, body),
                ExprLink::Let(span, decls) => {
                    self.expect(&Tok::End)?;
                    SExpr::Let(span, decls, body)
                }
            });
        }
        Ok(body)
    }

    /// Binary operators by precedence climbing over a stack of pending
    /// left operands. `||`, `&&`, `+ - ^` and `* / %` associate to the
    /// left, every node spanning from its left operand. `++` associates
    /// to the right, every node of one chain spanning from the chain's
    /// first operand. Comparisons do not associate: a comparison is never
    /// an operand of one, so `a < b < c` stops before the second `<`.
    ///
    /// Every operator but `++` charges one nesting level until the
    /// expression ends: a left-associative chain nests its first operand
    /// one node deeper per link, so `1 + 1 + …` is as deep as it is long.
    /// `++` stays exempt: a long record concatenation is bounded by the
    /// disjointness fuel instead (2,000 links end in E0900).
    fn binary(&mut self) -> PResult<Box<SExpr>> {
        let mut pending: Vec<Pending> = Vec::new();
        let mut links = 0;
        let mut span = self.span();
        let mut rhs = self.app()?;
        while let Some((op, prec)) = binop(self.peek()) {
            while let Some(top) = pending.pop_if(|top| {
                top.prec > prec || (top.prec == prec && !matches!(prec, Prec::Cmp | Prec::Cat))
            }) {
                span = top.span;
                rhs = combine(top, rhs);
            }
            let start = match pending.last() {
                Some(top) if top.prec == Prec::Cmp && prec == Prec::Cmp => break,
                Some(top) if top.prec == Prec::Cat && prec == Prec::Cat => top.span,
                _ => span,
            };
            if prec != Prec::Cat {
                self.descend()?;
                links += 1;
            }
            pending.push(Pending {
                span: start,
                lhs: rhs,
                op,
                prec,
            });
            self.bump();
            span = self.span();
            rhs = self.app()?;
        }
        self.ascend(links);
        while let Some(top) = pending.pop() {
            rhs = combine(top, rhs);
        }
        Ok(rhs)
    }

    /// An application spine with interleaved `[c]`, `!` and `-- c`, every
    /// node spanning from the head.
    fn app(&mut self) -> PResult<Box<SExpr>> {
        let span = self.span();
        let mut head = self.postfix()?;
        loop {
            head = match self.peek() {
                Tok::LBrack => self.con_arg(span, head)?,
                Tok::Bang => self.bang(span, head),
                Tok::MinusMinus => self.cut(span, head)?,
                Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Float(_)
                | Tok::Str(_)
                | Tok::True
                | Tok::False
                | Tok::LParen
                | Tok::LBrace
                | Tok::At => {
                    let arg = self.postfix()?;
                    Box::new(SExpr::App(span, head, arg))
                }
                _ => return Ok(head),
            };
        }
    }

    /// `head [c]`.
    fn con_arg(&mut self, span: Span, head: Box<SExpr>) -> PResult<Box<SExpr>> {
        self.bump();
        let c = self.con()?;
        self.expect(&Tok::RBrack)?;
        Ok(Box::new(SExpr::CApp(span, head, *c)))
    }

    /// `head !`.
    fn bang(&mut self, span: Span, head: Box<SExpr>) -> Box<SExpr> {
        self.bump();
        Box::new(SExpr::Bang(span, head))
    }

    /// `head -- c`.
    fn cut(&mut self, span: Span, head: Box<SExpr>) -> PResult<Box<SExpr>> {
        self.bump();
        let c = self.field_name()?;
        Ok(Box::new(SExpr::Cut(span, head, c)))
    }

    /// An atom after any `@` markers, with its `.field` projections.
    fn postfix(&mut self) -> PResult<Box<SExpr>> {
        let span = self.span();
        // `@` prefixes are counted, not recursed on; each charges the
        // level of the `Explicit` node it wraps around the atom.
        let markers = self.pos;
        while *self.peek() == Tok::At {
            self.descend()?;
            self.bump();
        }
        let markers = markers..self.pos;
        let at = self.span();
        let e = match self.peek() {
            Tok::LParen => self.paren(at)?,
            Tok::LBrace => self.record(at)?,
            _ => self.leaf(at)?,
        };
        self.ascend(markers.len());
        self.projections(span, markers, e)
    }

    fn leaf(&mut self, span: Span) -> PResult<Box<SExpr>> {
        let leaf = match self.peek() {
            Tok::Ident(x) => SExpr::Var(span, x.clone()),
            Tok::Int(n) => SExpr::Lit(span, SLit::Int(*n)),
            Tok::Float(x) => SExpr::Lit(span, SLit::Float(*x)),
            Tok::Str(s) => SExpr::Lit(span, SLit::Str(s.clone())),
            Tok::True => SExpr::Lit(span, SLit::Bool(true)),
            Tok::False => SExpr::Lit(span, SLit::Bool(false)),
            _ => return Err(self.unexpected("an expression")),
        };
        self.bump();
        Ok(Box::new(leaf))
    }

    /// Applies the `@`s before `e`, then the `.field` projections after it.
    fn projections(
        &mut self,
        span: Span,
        markers: Range<usize>,
        mut e: Box<SExpr>,
    ) -> PResult<Box<SExpr>> {
        for marker in markers.rev() {
            e = Box::new(SExpr::Explicit(self.toks[marker].span, e));
        }
        while *self.peek() == Tok::Dot {
            self.bump();
            let c = self.field_name()?;
            e = Box::new(SExpr::Proj(span, e, c));
        }
        Ok(e)
    }

    /// `()`, `(e)` or the ascription `(e : t)`.
    fn paren(&mut self, span: Span) -> PResult<Box<SExpr>> {
        self.bump();
        if self.eat(&Tok::RParen) {
            return Ok(Box::new(SExpr::Lit(span, SLit::Unit)));
        }
        let e = self.expr()?;
        let out = if self.eat(&Tok::Colon) {
            let t = self.con()?;
            Box::new(SExpr::Ann(span, e, *t))
        } else {
            e
        };
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    /// `{A = e, ...}`.
    fn record(&mut self, span: Span) -> PResult<Box<SExpr>> {
        self.bump();
        let mut fields = Vec::new();
        if !self.eat(&Tok::RBrace) {
            loop {
                let name = self.field_name()?;
                self.expect(&Tok::Eq)?;
                let e = self.expr()?;
                fields.push((name, *e));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
        }
        Ok(Box::new(SExpr::Record(span, fields)))
    }
}

/// `fn x1 ... xn => body` at type level: one `Lam` per binder, all
/// spanning from the `fn`.
fn lams(span: Span, binders: Vec<(String, Option<SKind>)>, mut body: Box<SCon>) -> Box<SCon> {
    for (x, k) in binders.into_iter().rev() {
        body = Box::new(SCon::Lam(span, x, k, body));
    }
    body
}

/// Closes `links`, innermost first, around `body`.
fn close_con(links: Vec<ConLink>, mut body: Box<SCon>) -> Box<SCon> {
    for link in links.into_iter().rev() {
        body = match link {
            ConLink::Poly(span, x, k) => Box::new(SCon::Poly(span, x, k, body)),
            ConLink::Lam(span, binders) => lams(span, binders, body),
            ConLink::Guard(span, c1, c2) => Box::new(SCon::Guarded(span, c1, c2, body)),
            ConLink::Arrow(span, lhs) => Box::new(SCon::Arrow(span, lhs, body)),
        };
    }
    body
}

/// The node for a pending left operand and its right operand.
fn combine(p: Pending, rhs: Box<SExpr>) -> Box<SExpr> {
    Box::new(if p.prec == Prec::Cat {
        SExpr::Cat(p.span, p.lhs, rhs)
    } else {
        SExpr::BinOp(p.span, p.op.to_string(), p.lhs, rhs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_proj_declaration() {
        let src = "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
                   (x : $([nm = t] ++ r)) = x.nm";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.decls.len(), 1);
        match &prog.decls[0] {
            SDecl::Fun(_, name, params, None, body) => {
                assert_eq!(name, "proj");
                assert_eq!(params.len(), 5);
                assert!(matches!(params[0], SParam::CParam(_, Some(SKind::Name))));
                assert!(matches!(params[3], SParam::DParam(_, _)));
                assert!(matches!(params[4], SParam::VParam(_, Some(_))));
                assert!(matches!(body, SExpr::Proj(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_proj_call() {
        let e = parse_expr("proj [#A] {A = 1, B = 2.3}").unwrap();
        match e {
            SExpr::App(_, f, arg) => {
                assert!(matches!(*f, SExpr::CApp(_, _, SCon::Name(_, _))));
                assert!(matches!(*arg, SExpr::Record(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_poly_type() {
        let c = parse_con("nm :: Name -> t :: Type -> r :: {Type} -> [[nm = t]~r] => $([nm=t] ++ r) -> t").unwrap();
        match c {
            SCon::Poly(_, n, SKind::Name, rest) => {
                assert_eq!(n, "nm");
                assert!(matches!(*rest, SCon::Poly(_, _, SKind::Type, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_record_type_sugar() {
        let c = parse_con("{Label : string, Show : t -> string}").unwrap();
        match c {
            SCon::RecordType(_, fields) => assert_eq!(fields.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_folder_type() {
        let src = "tf :: ({Type} -> Type) -> \
                   (nm :: Name -> t :: Type -> r :: {Type} -> [[nm]~r] => tf r -> tf ([nm=t] ++ r)) -> \
                   tf [] -> tf r";
        let c = parse_con(src).unwrap();
        assert!(matches!(c, SCon::Poly(_, _, SKind::Arrow(_, _), _)));
    }

    #[test]
    fn parse_con_level_fn_without_kind() {
        let c = parse_con("fn r => $(map meta r) -> $r -> string").unwrap();
        match c {
            SCon::Lam(_, x, None, body) => {
                assert_eq!(x, "r");
                assert!(matches!(*body, SCon::Arrow(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_expression_level_step_function() {
        let src = "fn [nm] [t] [r] [[nm] ~ r] acc mr x => acc (mr -- nm) (x -- nm)";
        let e = parse_expr(src).unwrap();
        match e {
            SExpr::Fn(_, params, _) => {
                assert_eq!(params.len(), 7);
                assert!(matches!(params[0], SParam::CParam(_, None)));
                assert!(matches!(params[3], SParam::DParam(_, _)));
                assert!(matches!(params[4], SParam::VParam(_, None)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_bang_in_spine() {
        let e = parse_expr("acc (x -- nm) [[nm = t] ++ rest] !").unwrap();
        assert!(matches!(e, SExpr::Bang(_, _)));
    }

    #[test]
    fn parse_binops_with_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            SExpr::BinOp(_, op, _, rhs) => {
                assert_eq!(op, "+");
                assert!(matches!(*rhs, SExpr::BinOp(_, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_string_concat() {
        let e = parse_expr(r#""<tr>" ^ x.Label ^ "</tr>""#).unwrap();
        assert!(matches!(e, SExpr::BinOp(_, _, _, _)));
    }

    #[test]
    fn parse_let_and_if() {
        let e = parse_expr("let val x = 1 in if x == 1 then x else 0 end").unwrap();
        match e {
            SExpr::Let(_, decls, body) => {
                assert_eq!(decls.len(), 1);
                assert!(matches!(*body, SExpr::If(_, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_type_declaration_with_params() {
        let prog =
            parse_program("type meta (t :: Type) = {Label : string, Show : t -> string}")
                .unwrap();
        match &prog.decls[0] {
            SDecl::ConDef(_, name, None, SCon::Lam(_, p, Some(SKind::Type), _)) => {
                assert_eq!(name, "meta");
                assert_eq!(p, "t");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_abstract_declarations() {
        let prog = parse_program(
            "con folder :: {Type} -> Type\nval insert : r :: {Type} -> table r -> unit",
        )
        .unwrap();
        assert!(matches!(prog.decls[0], SDecl::ConAbs(_, _, _)));
        assert!(matches!(prog.decls[1], SDecl::ValAbs(_, _, _)));
    }

    #[test]
    fn parse_pair_kinds_and_projections() {
        let c = parse_con("fn (p :: Type * Type) => p.1 -> p.2").unwrap();
        match c {
            SCon::Lam(_, _, Some(SKind::Pair(_, _)), body) => match *body {
                SCon::Arrow(_, l, r) => {
                    assert!(matches!(*l, SCon::Fst(_, _)));
                    assert!(matches!(*r, SCon::Snd(_, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_row_literal_without_values() {
        // Constraint shorthand `[nm]` is a row whose single entry has no
        // explicit value.
        let c = parse_con("[nm]").unwrap();
        match c {
            SCon::RowLit(_, entries) => {
                assert_eq!(entries.len(), 1);
                assert!(entries[0].1.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_guarded_con_type() {
        let c = parse_con("[rest ~ r] => exp (r ++ rest) bool").unwrap();
        assert!(matches!(c, SCon::Guarded(_, _, _, _)));
    }

    #[test]
    fn parse_wildcards() {
        let e = parse_expr("toDb [_] x").unwrap();
        assert!(matches!(e, SExpr::App(_, _, _)));
        let c = parse_con("_ -> int").unwrap();
        assert!(matches!(c, SCon::Arrow(_, _, _)));
    }

    #[test]
    fn parse_ascription() {
        let e = parse_expr("(x : int)").unwrap();
        assert!(matches!(e, SExpr::Ann(_, _, _)));
    }

    #[test]
    fn parse_unit_literal() {
        let e = parse_expr("f ()").unwrap();
        match e {
            SExpr::App(_, _, arg) => assert!(matches!(*arg, SExpr::Lit(_, SLit::Unit))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("fun = 3").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn parse_nested_record_value() {
        let e = parse_expr(
            "mkTable {A = {Label = \"A\", Show = showInt}, B = {Label = \"B\", Show = showFloat}}",
        )
        .unwrap();
        match e {
            SExpr::App(_, _, arg) => match *arg {
                SExpr::Record(_, fields) => assert_eq!(fields.len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
