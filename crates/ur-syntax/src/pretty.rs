//! Pretty-printing of surface syntax back to parseable source.
//!
//! The printer is the inverse of the parser up to spans: for every
//! surface tree `t`, `parse(print(t))` equals `t` with spans erased. This
//! is checked by property tests over randomly generated trees
//! (`tests/roundtrip.rs`), which doubles as a fuzzer for the parser's
//! precedence and disambiguation rules.

use crate::ast::*;
use std::fmt::Write;

/// Prints a constructor as parseable source.
pub fn con_to_string(c: &SCon) -> String {
    let mut s = String::new();
    con(&mut s, c, 0);
    s
}

/// Prints an expression as parseable source.
pub fn expr_to_string(e: &SExpr) -> String {
    let mut s = String::new();
    expr(&mut s, e, 0);
    s
}

/// Prints a declaration as parseable source.
pub fn decl_to_string(d: &SDecl) -> String {
    let mut s = String::new();
    decl(&mut s, d);
    s
}

/// Prints a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut s = String::new();
    for d in &p.decls {
        decl(&mut s, d);
        s.push('\n');
    }
    s
}

fn paren(out: &mut String, needed: bool, f: impl FnOnce(&mut String)) {
    if needed {
        out.push('(');
        f(out);
        out.push(')');
    } else {
        f(out);
    }
}

// Kind precedence: 0 = arrow, 1 = pair, 2 = atom.
fn kind(out: &mut String, k: &SKind, prec: u8) {
    match k {
        SKind::Type => out.push_str("Type"),
        SKind::Name => out.push_str("Name"),
        SKind::Wild => out.push('_'),
        SKind::Row(inner) => {
            out.push('{');
            kind(out, inner, 0);
            out.push('}');
        }
        SKind::Arrow(a, b) => paren(out, prec > 0, |out| {
            kind(out, a, 1);
            out.push_str(" -> ");
            kind(out, b, 0);
        }),
        SKind::Pair(a, b) => paren(out, prec > 1, |out| {
            kind(out, a, 2);
            out.push_str(" * ");
            kind(out, b, 1);
        }),
    }
}

// Con precedence: 0 = arrow/poly/guard/lam, 1 = ++, 2 = app, 3 = atom.
fn con(out: &mut String, c: &SCon, prec: u8) {
    match c {
        SCon::Var(_, x) => out.push_str(x),
        SCon::Wild(_) => out.push('_'),
        SCon::Name(_, n) => {
            out.push('#');
            out.push_str(n);
        }
        SCon::Record(_, inner) => {
            out.push('$');
            con(out, inner, 3);
        }
        SCon::RowLit(_, entries) => {
            out.push('[');
            for (i, (n, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                con(out, n, 3);
                if let Some(v) = v {
                    out.push_str(" = ");
                    con(out, v, 0);
                }
            }
            out.push(']');
        }
        SCon::RecordType(_, fields) => {
            out.push('{');
            for (i, (n, t)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                con(out, n, 3);
                out.push_str(" : ");
                con(out, t, 0);
            }
            out.push('}');
        }
        SCon::Cat(_, a, b) => paren(out, prec > 1, |out| {
            con(out, a, 2);
            out.push_str(" ++ ");
            con(out, b, 1);
        }),
        SCon::App(_, f, a) => paren(out, prec > 2, |out| {
            con(out, f, 2);
            out.push(' ');
            con(out, a, 3);
        }),
        SCon::Lam(_, x, k, body) => paren(out, prec > 0, |out| {
            out.push_str("fn ");
            match k {
                Some(k) => {
                    out.push('(');
                    out.push_str(x);
                    out.push_str(" :: ");
                    kind(out, k, 0);
                    out.push(')');
                }
                None => out.push_str(x),
            }
            out.push_str(" => ");
            con(out, body, 0);
        }),
        SCon::Arrow(_, a, b) => paren(out, prec > 0, |out| {
            con(out, a, 1);
            out.push_str(" -> ");
            con(out, b, 0);
        }),
        SCon::Poly(_, x, k, body) => paren(out, prec > 0, |out| {
            out.push_str(x);
            out.push_str(" :: ");
            kind(out, k, 1);
            out.push_str(" -> ");
            con(out, body, 0);
        }),
        SCon::Guarded(_, c1, c2, body) => paren(out, prec > 0, |out| {
            out.push('[');
            con(out, c1, 0);
            out.push_str(" ~ ");
            con(out, c2, 0);
            out.push_str("] => ");
            con(out, body, 0);
        }),
        SCon::Pair(_, a, b) => {
            out.push('(');
            con(out, a, 0);
            out.push_str(", ");
            con(out, b, 0);
            out.push(')');
        }
        SCon::Fst(_, p) => {
            // Nested projections need parens: `x.1.1` would re-lex as a
            // float (see the lexer's note), so print `(x.1).1`. A `$`
            // operand needs them too: the parser gives `$` a full atom
            // including postfix projections, so `$c.1` means `$(c.1)`.
            let nested = matches!(
                &**p,
                SCon::Fst(_, _) | SCon::Snd(_, _) | SCon::Record(_, _)
            );
            paren(out, nested, |out| con(out, p, 3));
            out.push_str(".1");
        }
        SCon::Snd(_, p) => {
            let nested = matches!(
                &**p,
                SCon::Fst(_, _) | SCon::Snd(_, _) | SCon::Record(_, _)
            );
            paren(out, nested, |out| con(out, p, 3));
            out.push_str(".2");
        }
    }
}

fn lit(out: &mut String, l: &SLit) {
    match l {
        SLit::Int(n) => {
            let _ = write!(out, "{n}");
        }
        SLit::Float(x) => {
            // Always keep a decimal point so it re-lexes as a float.
            if x.fract() == 0.0 && x.is_finite() {
                let _ = write!(out, "{:.1}", x);
            } else {
                let _ = write!(out, "{x}");
            }
        }
        SLit::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        SLit::Bool(true) => out.push_str("True"),
        SLit::Bool(false) => out.push_str("False"),
        SLit::Unit => out.push_str("()"),
    }
}

fn param(out: &mut String, p: &SParam) {
    match p {
        SParam::CParam(x, None) => {
            let _ = write!(out, "[{x}]");
        }
        SParam::CParam(x, Some(k)) => {
            let _ = write!(out, "[{x} :: ");
            kind(out, k, 0);
            out.push(']');
        }
        SParam::DParam(c1, c2) => {
            out.push('[');
            con(out, c1, 0);
            out.push_str(" ~ ");
            con(out, c2, 0);
            out.push(']');
        }
        SParam::VParam(x, None) => out.push_str(x),
        SParam::VParam(x, Some(t)) => {
            let _ = write!(out, "({x} : ");
            con(out, t, 0);
            out.push(')');
        }
    }
}

/// Operator precedence table matching the parser
/// (`||` < `&&` < comparisons < `++` < additive < multiplicative).
fn binop_prec(op: &str) -> (u8, bool) {
    // (precedence, left-assoc)
    match op {
        "||" => (1, true),
        "&&" => (2, true),
        "==" | "!=" | "<" | "<=" | ">" | ">=" => (3, false),
        "+" | "-" | "^" => (5, true),
        "*" | "/" | "%" => (6, true),
        _ => (5, true),
    }
}

// Expr precedence: 0 = fn/let/if, 1..6 = binops (see table), 7 = ++ is 4,
// 8 = application, 9 = postfix/atom.
fn expr(out: &mut String, e: &SExpr, prec: u8) {
    match e {
        SExpr::Var(_, x) => out.push_str(x),
        SExpr::Lit(_, l) => lit(out, l),
        SExpr::Fn(_, params, body) => paren(out, prec > 0, |out| {
            out.push_str("fn");
            for p in params {
                out.push(' ');
                param(out, p);
            }
            out.push_str(" => ");
            expr(out, body, 0);
        }),
        SExpr::Let(_, decls, body) => paren(out, prec > 0, |out| {
            out.push_str("let ");
            for d in decls {
                decl(out, d);
                out.push(' ');
            }
            out.push_str("in ");
            expr(out, body, 0);
            out.push_str(" end");
        }),
        SExpr::If(_, c, t, el) => paren(out, prec > 0, |out| {
            out.push_str("if ");
            expr(out, c, 1);
            out.push_str(" then ");
            expr(out, t, 1);
            out.push_str(" else ");
            expr(out, el, 0);
        }),
        SExpr::BinOp(_, op, a, b) => {
            let (p, left) = binop_prec(op);
            paren(out, prec > p, |out| {
                expr(out, a, if left { p } else { p + 1 });
                out.push(' ');
                out.push_str(op);
                out.push(' ');
                expr(out, b, p + 1);
            });
        }
        SExpr::Cat(_, a, b) => paren(out, prec > 4, |out| {
            expr(out, a, 5);
            out.push_str(" ++ ");
            expr(out, b, 4);
        }),
        SExpr::App(_, f, a) => paren(out, prec > 8, |out| {
            expr(out, f, 8);
            out.push(' ');
            expr(out, a, 9);
        }),
        SExpr::CApp(_, f, c) => paren(out, prec > 8, |out| {
            expr(out, f, 8);
            out.push_str(" [");
            con(out, c, 0);
            out.push(']');
        }),
        SExpr::Bang(_, f) => paren(out, prec > 8, |out| {
            expr(out, f, 8);
            out.push_str(" !");
        }),
        SExpr::Cut(_, f, c) => paren(out, prec > 8, |out| {
            expr(out, f, 8);
            out.push_str(" -- ");
            con(out, c, 3);
        }),
        SExpr::Record(_, fields) => {
            out.push('{');
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                con(out, n, 3);
                out.push_str(" = ");
                expr(out, v, 0);
            }
            out.push('}');
        }
        SExpr::Proj(_, f, c) => {
            expr(out, f, 9);
            out.push('.');
            con(out, c, 3);
        }
        SExpr::Ann(_, inner, t) => {
            out.push('(');
            expr(out, inner, 0);
            out.push_str(" : ");
            con(out, t, 0);
            out.push(')');
        }
        SExpr::Explicit(_, inner) => {
            out.push('@');
            expr(out, inner, 9);
        }
    }
}

fn decl(out: &mut String, d: &SDecl) {
    match d {
        SDecl::ConAbs(_, name, k) => {
            let _ = write!(out, "con {name} :: ");
            kind(out, k, 0);
        }
        SDecl::ConDef(_, name, Some(k), c) => {
            let _ = write!(out, "con {name} :: ");
            kind(out, k, 0);
            out.push_str(" = ");
            con(out, c, 0);
        }
        SDecl::ConDef(_, name, None, c) => {
            let _ = write!(out, "type {name} = ");
            con(out, c, 0);
        }
        SDecl::ValAbs(_, name, t) => {
            let _ = write!(out, "val {name} : ");
            con(out, t, 0);
        }
        SDecl::Val(_, name, ann, e) => {
            let _ = write!(out, "val {name}");
            if let Some(t) = ann {
                out.push_str(" : ");
                con(out, t, 0);
            }
            out.push_str(" = ");
            expr(out, e, 0);
        }
        SDecl::Fun(_, name, params, ann, e) => {
            let _ = write!(out, "fun {name}");
            for p in params {
                out.push(' ');
                param(out, p);
            }
            if let Some(t) = ann {
                out.push_str(" : ");
                con(out, t, 0);
            }
            out.push_str(" = ");
            expr(out, e, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_con, parse_expr, parse_program};

    fn roundtrip_expr(src: &str) {
        let e1 = parse_expr(src).unwrap();
        let printed = expr_to_string(&e1);
        let e2 = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        assert_eq!(
            crate::pretty::expr_to_string(&e2),
            printed,
            "print-parse-print not stable for `{src}`"
        );
    }

    fn roundtrip_con(src: &str) {
        let c1 = parse_con(src).unwrap();
        let printed = con_to_string(&c1);
        let c2 = parse_con(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        assert_eq!(con_to_string(&c2), printed);
    }

    #[test]
    fn exprs_roundtrip() {
        for src in [
            "proj [#A] {A = 1, B = 2.3}",
            "acc (mr -- nm) (x -- nm)",
            "f ! (g 1) !",
            "1 + 2 * 3 - 4",
            "\"a\" ^ showInt (x.A)",
            "if a < b then {X = 1} else {X = 2}",
            "let val x = 1 in x + 1 end",
            "fn [nm] [t] [r] [[nm] ~ r] acc (x : $r) => acc x",
            "@folderCat a b",
            "(x : int)",
        ] {
            roundtrip_expr(src);
        }
    }

    #[test]
    fn cons_roundtrip() {
        for src in [
            "nm :: Name -> t :: Type -> r :: {Type} -> [[nm = t] ~ r] => $([nm = t] ++ r) -> t",
            "fn r => $(map meta r) -> $r -> string",
            "{Label : string, Show : t -> string}",
            "(int, float)",
            "fn (p :: Type * Type) => p.1 -> p.2",
            "[A = int, B = float] ++ r",
            "map (fn t => sql_type (option t)) r",
        ] {
            roundtrip_con(src);
        }
    }

    #[test]
    fn programs_roundtrip() {
        let src = "type meta (t :: Type) = {L : string}\n\
                   fun f [r :: {Type}] (x : $r) : int = 3\n\
                   val y = f {A = 1}\n\
                   con table :: {Type} -> Type\n\
                   val insert : r :: {Type} -> table r -> unit";
        let p1 = parse_program(src).unwrap();
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(program_to_string(&p2), printed);
    }

    #[test]
    fn float_literals_relex_as_floats() {
        let e = parse_expr("1.0").unwrap();
        assert_eq!(expr_to_string(&e), "1.0");
        roundtrip_expr("f 2.0 3.5");
    }
}
