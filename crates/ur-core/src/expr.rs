//! Expressions (value-level terms) of Featherweight Ur (paper Figure 1).
//!
//! ```text
//! e ::= x | e e | fn x : t => e | e [c] | fn a :: k => e
//!     | {} | {c = e} | e.c | e -- c | e ++ e
//!     | fn [c ~ c] => e | e !
//! ```
//!
//! extended with literals, `let`, and `if` (surface conveniences that
//! elaborate to core directly). Expressions are hash-consed in the global
//! [`crate::arena`] just like constructors, so `RExpr` is a `Copy + Send`
//! handle and structurally equal terms share one node.

use crate::arena::{mk_expr, IStr};
use crate::con::RCon;
use crate::kind::Kind;
use crate::sym::Sym;
use std::fmt;
use std::hash::{Hash, Hasher};

pub use crate::arena::ExprId;

/// Canonical expression handle (see [`crate::arena`]).
pub type RExpr = ExprId;

/// Literal constants.
#[derive(Clone, Debug)]
pub enum Lit {
    Int(i64),
    Float(f64),
    Str(IStr),
    Bool(bool),
    Unit,
}

/// Floats compare and hash by their bits, so a literal is a lawful
/// intern key: `NaN` equals itself and `-0.0` is not `0.0`.
impl PartialEq for Lit {
    fn eq(&self, other: &Lit) -> bool {
        match (self, other) {
            (Lit::Float(a), Lit::Float(b)) => a.to_bits() == b.to_bits(),
            (Lit::Int(a), Lit::Int(b)) => a == b,
            (Lit::Str(a), Lit::Str(b)) => a == b,
            (Lit::Bool(a), Lit::Bool(b)) => a == b,
            (Lit::Unit, Lit::Unit) => true,
            _ => false,
        }
    }
}

impl Eq for Lit {}

impl Hash for Lit {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Lit::Int(n) => n.hash(h),
            Lit::Float(x) => x.to_bits().hash(h),
            Lit::Str(s) => s.hash(h),
            Lit::Bool(b) => b.hash(h),
            Lit::Unit => {}
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(n) => write!(f, "{n}"),
            Lit::Float(x) => write!(f, "{x:?}"),
            Lit::Str(s) => write!(f, "{:?}", s.as_str()),
            Lit::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Lit::Unit => write!(f, "()"),
        }
    }
}

/// A core expression, produced by elaboration and consumed by the type
/// checker ([`crate::typing`]) and the evaluator (`ur-eval`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Variable occurrence.
    Var(Sym),
    /// Literal constant.
    Lit(Lit),
    /// Application `e1 e2`.
    App(RExpr, RExpr),
    /// Value abstraction `fn x : t => e`.
    Lam(Sym, RCon, RExpr),
    /// Constructor application `e [c]`.
    CApp(RExpr, RCon),
    /// Constructor abstraction `fn a :: k => e`.
    CLam(Sym, Kind, RExpr),
    /// Empty record `{}`.
    RecNil,
    /// Singleton record `{c = e}`.
    RecOne(RCon, RExpr),
    /// Record concatenation `e1 ++ e2`.
    RecCat(RExpr, RExpr),
    /// Field projection `e.c`.
    Proj(RExpr, RCon),
    /// Field removal `e -- c`.
    Cut(RExpr, RCon),
    /// Guard abstraction `fn [c1 ~ c2] => e`.
    DLam(RCon, RCon, RExpr),
    /// Guard elimination `e !` — discharges the head disjointness
    /// constraint of `e`'s type (the proof is always inferred; there is no
    /// proof-term syntax, per the paper's design principle 1).
    DApp(RExpr),
    /// `let x : t = e1 in e2`.
    Let(Sym, RCon, RExpr, RExpr),
    /// `if e1 then e2 else e3`.
    If(RExpr, RExpr, RExpr),
}

impl Expr {
    pub fn var(s: &Sym) -> RExpr {
        mk_expr(Expr::Var(*s))
    }

    pub fn lit(l: Lit) -> RExpr {
        mk_expr(Expr::Lit(l))
    }

    pub fn app(f: RExpr, a: RExpr) -> RExpr {
        mk_expr(Expr::App(f, a))
    }

    pub fn apps(f: RExpr, args: impl IntoIterator<Item = RExpr>) -> RExpr {
        args.into_iter().fold(f, Expr::app)
    }

    pub fn lam(x: Sym, t: RCon, body: RExpr) -> RExpr {
        mk_expr(Expr::Lam(x, t, body))
    }

    pub fn capp(e: RExpr, c: RCon) -> RExpr {
        mk_expr(Expr::CApp(e, c))
    }

    pub fn clam(a: Sym, k: Kind, body: RExpr) -> RExpr {
        mk_expr(Expr::CLam(a, k, body))
    }

    pub fn rec_nil() -> RExpr {
        mk_expr(Expr::RecNil)
    }

    pub fn rec_one(n: RCon, e: RExpr) -> RExpr {
        mk_expr(Expr::RecOne(n, e))
    }

    pub fn rec_cat(a: RExpr, b: RExpr) -> RExpr {
        mk_expr(Expr::RecCat(a, b))
    }

    /// Builds an n-ary record literal as a *balanced* tree of
    /// concatenations. Concatenation is associative, and a balanced tree
    /// keeps the term depth at `log2(n)` so recursive walkers
    /// (finalization, evaluation, drop) never consume stack linear in
    /// field count — a 5,000-field record is legitimate input.
    pub fn record(fields: Vec<(RCon, RExpr)>) -> RExpr {
        fn build(fields: &mut std::vec::Drain<(RCon, RExpr)>, n: usize) -> RExpr {
            match n {
                0 => Expr::rec_nil(),
                1 => match fields.next() {
                    Some((name, e)) => Expr::rec_one(name, e),
                    None => Expr::rec_nil(),
                },
                _ => {
                    let half = n / 2;
                    let l = build(fields, half);
                    let r = build(fields, n - half);
                    Expr::rec_cat(l, r)
                }
            }
        }
        let mut fields = fields;
        let n = fields.len();
        let mut drain = fields.drain(..);
        build(&mut drain, n)
    }

    pub fn proj(e: RExpr, c: RCon) -> RExpr {
        mk_expr(Expr::Proj(e, c))
    }

    pub fn cut(e: RExpr, c: RCon) -> RExpr {
        mk_expr(Expr::Cut(e, c))
    }

    pub fn dlam(c1: RCon, c2: RCon, body: RExpr) -> RExpr {
        mk_expr(Expr::DLam(c1, c2, body))
    }

    pub fn dapp(e: RExpr) -> RExpr {
        mk_expr(Expr::DApp(e))
    }

    pub fn let_(x: Sym, t: RCon, bound: RExpr, body: RExpr) -> RExpr {
        mk_expr(Expr::Let(x, t, bound, body))
    }

    pub fn if_(c: RExpr, t: RExpr, e: RExpr) -> RExpr {
        mk_expr(Expr::If(c, t, e))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::capped(f, |f| crate::pretty::fmt_expr(self, f, 0))
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::capped(f, |f| crate::pretty::fmt_expr(self, f, 0))
    }
}

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.get(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::Con;

    #[test]
    fn record_builder_empty() {
        assert!(matches!(&*Expr::record(vec![]), Expr::RecNil));
    }

    #[test]
    fn record_builder_singleton() {
        let e = Expr::record(vec![(Con::name("A"), Expr::lit(Lit::Int(1)))]);
        assert!(matches!(&*e, Expr::RecOne(_, _)));
    }

    #[test]
    fn record_builder_many() {
        let e = Expr::record(vec![
            (Con::name("A"), Expr::lit(Lit::Int(1))),
            (Con::name("B"), Expr::lit(Lit::Float(2.3))),
        ]);
        assert!(matches!(&*e, Expr::RecCat(_, _)));
    }

    #[test]
    fn exprs_hash_cons() {
        let a = Expr::lit(Lit::Int(7));
        let b = Expr::lit(Lit::Int(7));
        assert_eq!(a, b);
        let c = Expr::app(a, b);
        let d = Expr::app(a, b);
        assert_eq!(c, d);
    }

    #[test]
    fn lit_display() {
        assert_eq!(Lit::Int(42).to_string(), "42");
        assert_eq!(Lit::Bool(true).to_string(), "True");
        assert_eq!(Lit::Str("x".into()).to_string(), "\"x\"");
        assert_eq!(Lit::Unit.to_string(), "()");
    }
}
