//! Pretty-printing of constructors and expressions, in the paper's ASCII
//! surface notation.
//!
//! Precedence levels (constructors): 0 = `->`/poly/guard (lowest),
//! 1 = `++`, 2 = application, 3 = atoms.

use crate::con::Con;
use crate::expr::Expr;
use std::fmt;

/// Bytes one `Display` of a constructor, a core term or a runtime value
/// writes before it ends in `…`. A hash-consed type is a DAG whose tree
/// can be exponentially larger (`d (d (… 1))` nested n deep has 2^n
/// leaves), and so is a value whose fields share one record; rendering
/// stops at the cap instead of paying for the whole tree.
pub const RENDER_CAP: usize = 1 << 20;

/// Writes what `body` formats into `f`, cut off with `…` once it has
/// written [`RENDER_CAP`] bytes. Every write past the cap fails, so a
/// `body` that propagates each write's error with `?` stops descending
/// there. Output below the cap is exactly `body`'s.
pub fn capped(
    f: &mut fmt::Formatter<'_>,
    body: impl Fn(&mut fmt::Formatter<'_>) -> fmt::Result,
) -> fmt::Result {
    let mut w = Capped {
        out: f,
        left: RENDER_CAP,
    };
    match fmt::write(&mut w, format_args!("{}", fmt::from_fn(body))) {
        // A write that reached past the cap left nothing.
        Err(_) if w.left == 0 => w.out.write_str("…"),
        r => r,
    }
}

/// The writer behind [`capped`]: passes writes on until the cap, then
/// fails them.
struct Capped<'a, 'b> {
    out: &'a mut fmt::Formatter<'b>,
    left: usize,
}

impl fmt::Write for Capped<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.len() <= self.left {
            self.left -= s.len();
            return self.out.write_str(s);
        }
        let end = s.floor_char_boundary(std::mem::take(&mut self.left));
        self.out.write_str(&s[..end])?;
        Err(fmt::Error)
    }
}

/// Formats a constructor at the given ambient precedence.
pub fn fmt_con(c: &Con, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    match c {
        Con::Var(s) => write!(f, "{s}"),
        Con::Meta(m) => write!(f, "{m}"),
        Con::Prim(p) => write!(f, "{p}"),
        Con::Name(n) => write!(f, "#{n}"),
        Con::Arrow(a, b) => {
            paren(f, prec > 0, |f| {
                fmt_con(a, f, 1)?;
                write!(f, " -> ")?;
                fmt_con(b, f, 0)
            })
        }
        Con::Poly(s, k, t) => paren(f, prec > 0, |f| {
            write!(f, "{s} :: {k} -> ")?;
            fmt_con(t, f, 0)
        }),
        Con::Guarded(c1, c2, t) => paren(f, prec > 0, |f| {
            write!(f, "[")?;
            fmt_guard_side(c1, f)?;
            write!(f, " ~ ")?;
            fmt_guard_side(c2, f)?;
            write!(f, "] => ")?;
            fmt_con(t, f, 0)
        }),
        Con::Lam(s, k, body) => paren(f, prec > 0, |f| {
            write!(f, "fn {s} :: {k} => ")?;
            fmt_con(body, f, 0)
        }),
        Con::App(a, b) => paren(f, prec > 2, |f| {
            fmt_con(a, f, 2)?;
            write!(f, " ")?;
            fmt_con(b, f, 3)
        }),
        Con::Record(r) => {
            write!(f, "$")?;
            fmt_con(r, f, 3)
        }
        Con::RowNil(_) => write!(f, "[]"),
        Con::RowOne(n, v) => {
            write!(f, "[")?;
            fmt_con(n, f, 0)?;
            write!(f, " = ")?;
            fmt_con(v, f, 0)?;
            write!(f, "]")
        }
        Con::RowCat(a, b) => paren(f, prec > 1, |f| {
            fmt_con(a, f, 2)?;
            write!(f, " ++ ")?;
            fmt_con(b, f, 1)
        }),
        Con::Map(_, _) => write!(f, "map"),
        Con::Folder(_) => write!(f, "folder"),
        Con::Pair(a, b) => {
            write!(f, "(")?;
            fmt_con(a, f, 0)?;
            write!(f, ", ")?;
            fmt_con(b, f, 0)?;
            write!(f, ")")
        }
        Con::Fst(p) => {
            fmt_con(p, f, 3)?;
            write!(f, ".1")
        }
        Con::Snd(p) => {
            fmt_con(p, f, 3)?;
            write!(f, ".2")
        }
    }
}

/// Formats one side of a disjointness guard. Rows whose field values are
/// all `unit` came from the `[nm]` constraint shorthand and are printed
/// back that way (`[nm, mn2]`), as in the paper.
fn fmt_guard_side(c: &Con, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fn unit_names<'a>(c: &'a Con, out: &mut Vec<&'a Con>) -> bool {
        match c {
            Con::RowOne(n, v) => {
                if matches!(&**v, Con::Prim(crate::con::PrimType::Unit)) {
                    out.push(n);
                    true
                } else {
                    false
                }
            }
            Con::RowCat(a, b) => unit_names(a, out) && unit_names(b, out),
            _ => false,
        }
    }
    let mut names = Vec::new();
    if unit_names(c, &mut names) && !names.is_empty() {
        write!(f, "[")?;
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            fmt_con(n, f, 0)?;
        }
        write!(f, "]")
    } else {
        fmt_con(c, f, 0)
    }
}

/// Formats an expression at the given ambient precedence
/// (0 = lowest, 2 = application, 3 = atoms).
pub fn fmt_expr(e: &Expr, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    match e {
        Expr::Var(s) => write!(f, "{s}"),
        Expr::Lit(l) => write!(f, "{l}"),
        Expr::App(a, b) => paren(f, prec > 2, |f| {
            fmt_expr(a, f, 2)?;
            write!(f, " ")?;
            fmt_expr(b, f, 3)
        }),
        Expr::Lam(x, t, body) => paren(f, prec > 0, |f| {
            write!(f, "fn {x} : ")?;
            fmt_con(t, f, 1)?;
            write!(f, " => ")?;
            fmt_expr(body, f, 0)
        }),
        Expr::CApp(e, c) => paren(f, prec > 2, |f| {
            fmt_expr(e, f, 2)?;
            write!(f, " [")?;
            fmt_con(c, f, 0)?;
            write!(f, "]")
        }),
        Expr::CLam(a, k, body) => paren(f, prec > 0, |f| {
            write!(f, "fn [{a} :: {k}] => ")?;
            fmt_expr(body, f, 0)
        }),
        Expr::RecNil => write!(f, "{{}}"),
        Expr::RecOne(n, e) => {
            write!(f, "{{")?;
            fmt_con(n, f, 0)?;
            write!(f, " = ")?;
            fmt_expr(e, f, 0)?;
            write!(f, "}}")
        }
        Expr::RecCat(a, b) => paren(f, prec > 1, |f| {
            fmt_expr(a, f, 2)?;
            write!(f, " ++ ")?;
            fmt_expr(b, f, 1)
        }),
        Expr::Proj(e, c) => {
            fmt_expr(e, f, 3)?;
            write!(f, ".")?;
            fmt_con(c, f, 3)
        }
        Expr::Cut(e, c) => paren(f, prec > 1, |f| {
            fmt_expr(e, f, 2)?;
            write!(f, " -- ")?;
            fmt_con(c, f, 3)
        }),
        Expr::DLam(c1, c2, body) => paren(f, prec > 0, |f| {
            write!(f, "fn [")?;
            fmt_con(c1, f, 0)?;
            write!(f, " ~ ")?;
            fmt_con(c2, f, 0)?;
            write!(f, "] => ")?;
            fmt_expr(body, f, 0)
        }),
        Expr::DApp(e) => paren(f, prec > 2, |f| {
            fmt_expr(e, f, 2)?;
            write!(f, " !")
        }),
        Expr::Let(x, t, bound, body) => paren(f, prec > 0, |f| {
            write!(f, "let {x} : ")?;
            fmt_con(t, f, 0)?;
            write!(f, " = ")?;
            fmt_expr(bound, f, 0)?;
            write!(f, " in ")?;
            fmt_expr(body, f, 0)
        }),
        Expr::If(c, t, e) => paren(f, prec > 0, |f| {
            write!(f, "if ")?;
            fmt_expr(c, f, 0)?;
            write!(f, " then ")?;
            fmt_expr(t, f, 0)?;
            write!(f, " else ")?;
            fmt_expr(e, f, 0)
        }),
    }
}

fn paren(
    f: &mut fmt::Formatter<'_>,
    needed: bool,
    inner: impl FnOnce(&mut fmt::Formatter<'_>) -> fmt::Result,
) -> fmt::Result {
    if needed {
        write!(f, "(")?;
        inner(f)?;
        write!(f, ")")
    } else {
        inner(f)
    }
}

#[cfg(test)]
mod tests {
    use crate::con::Con;
    use crate::expr::{Expr, Lit};
    use crate::kind::Kind;
    use crate::sym::Sym;

    #[test]
    fn con_display_examples() {
        let a = Sym::fresh("a");
        let poly = Con::poly(a, Kind::Type, Con::arrow(Con::var(&a), Con::var(&a)));
        assert_eq!(poly.to_string(), "a :: Type -> a -> a");
    }

    #[test]
    fn row_display() {
        let r = Con::row_cat(
            Con::row_one(Con::name("A"), Con::int()),
            Con::row_one(Con::name("B"), Con::float()),
        );
        assert_eq!(r.to_string(), "[#A = int] ++ [#B = float]");
        assert_eq!(Con::record(r).to_string(), "$([#A = int] ++ [#B = float])");
    }

    #[test]
    fn guarded_display() {
        let g = Con::guarded(
            Con::row_one(Con::name("A"), Con::int()),
            Con::row_nil(Kind::Type),
            Con::int(),
        );
        assert_eq!(g.to_string(), "[[#A = int] ~ []] => int");
    }

    #[test]
    fn expr_display() {
        let x = Sym::fresh("x");
        let e = Expr::lam(
            x,
            Con::int(),
            Expr::proj(Expr::var(&x), Con::name("A")),
        );
        assert_eq!(e.to_string(), "fn x : int => x.#A");
    }

    #[test]
    fn app_display_parenthesizes_args() {
        let f = Sym::fresh("f");
        let e = Expr::app(
            Expr::var(&f),
            Expr::app(Expr::var(&f), Expr::lit(Lit::Int(1))),
        );
        assert_eq!(e.to_string(), "f (f 1)");
    }

    #[test]
    fn shared_interned_subterms_print_as_trees() {
        // Hash-consing collapses repeated subterms into one shared node;
        // printing must still expand the DAG into full tree notation.
        let sub = Con::arrow(Con::int(), Con::int());
        let c = Con::pair(sub, sub);
        assert_eq!(c.to_string(), "(int -> int, int -> int)");
    }

    #[test]
    fn rendering_stops_at_the_cap() {
        // A pair nested 24 deep over one shared leaf: 2^24 leaves.
        let mut c = Con::int();
        for _ in 0..24 {
            c = Con::pair(c, c);
        }
        let s = c.to_string();
        assert!(s.ends_with('…'), "{}", &s[s.len() - 20..]);
        assert_eq!(s.len(), super::RENDER_CAP + '…'.len_utf8());
        assert!(s.starts_with("((((((((((((((((((((((((int, int), "));
    }

    #[test]
    fn bang_display() {
        let f = Sym::fresh("f");
        assert_eq!(Expr::dapp(Expr::var(&f)).to_string(), "f !");
    }
}
