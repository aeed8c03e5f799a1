//! Constructors (type-level terms) of Featherweight Ur (paper Figure 1).
//!
//! ```text
//! c, t ::= t1 -> t2 | a | x :: k -> t | c c | fn a :: k => c
//!        | #n | $c | [] | [c = c] | c ++ c | map | [c ~ c] => t
//! ```
//!
//! extended with primitive base types, pairs (`(c, c)`, `c.1`, `c.2`) needed
//! by the §2.2/§6 case studies, and constructor metavariables used during
//! inference.

use crate::arena::{mk_con, IStr};
use crate::kind::Kind;
use crate::sym::Sym;
use std::fmt;

pub use crate::arena::ConId;

/// Identifier of a constructor metavariable (unification variable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MetaId(pub u32);

impl fmt::Display for MetaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// Primitive base types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrimType {
    Int,
    Float,
    String,
    Bool,
    Unit,
}

impl fmt::Display for PrimType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimType::Int => "int",
            PrimType::Float => "float",
            PrimType::String => "string",
            PrimType::Bool => "bool",
            PrimType::Unit => "unit",
        };
        write!(f, "{s}")
    }
}

/// Canonical constructor handle. The AST is immutable, shared, and
/// hash-consed in the global [`crate::arena`]: all smart constructors
/// intern, so structurally equal trees share one id and `==` on `RCon` is
/// a complete O(1) structural-equality test on canonically built terms.
/// The handle is `Copy + Send + Sync` and derefs to the `'static` node.
pub type RCon = ConId;

/// A constructor: the compile-time language of Ur. Types are the
/// constructors of kind `Type`. Child positions hold canonical ids, so
/// the enum value *is* its own shallow intern key.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Con {
    /// A constructor variable `a` (bound by `Lam`, `Poly`, or the
    /// environment).
    Var(Sym),
    /// A metavariable introduced during inference.
    Meta(MetaId),
    /// A primitive base type.
    Prim(PrimType),
    /// Function type `t1 -> t2`.
    Arrow(RCon, RCon),
    /// Polymorphic function type `a :: k -> t` (the variable may appear in
    /// `t`).
    Poly(Sym, Kind, RCon),
    /// Guarded type `[c1 ~ c2] => t` (disjointness-constrained).
    Guarded(RCon, RCon, RCon),
    /// Constructor-level function `fn a :: k => c`.
    Lam(Sym, Kind, RCon),
    /// Application `c1 c2`.
    App(RCon, RCon),
    /// Name literal `#n`.
    Name(IStr),
    /// Record type former `$c`, for `c :: {Type}`.
    Record(RCon),
    /// Empty row `[]` at element kind `k`.
    RowNil(Kind),
    /// Singleton row `[c1 = c2]`.
    RowOne(RCon, RCon),
    /// Row concatenation `c1 ++ c2`.
    RowCat(RCon, RCon),
    /// The `map` constant at kinds `(k1 -> k2) -> {k1} -> {k2}`.
    Map(Kind, Kind),
    /// The compiler-known `folder` type family at kind `{k} -> Type`
    /// (paper §2.1/§4.4). Real Ur defines `folder` as a kind-polymorphic
    /// library type; Featherweight Ur has no kind polymorphism, so we make
    /// it a kind-indexed built-in. Applications `folder r` unfold on
    /// demand to the polymorphic fold type (see `unfold_folder` in
    /// `ur-infer`).
    Folder(Kind),
    /// Type-level pair `(c1, c2)`.
    Pair(RCon, RCon),
    /// First projection `c.1`.
    Fst(RCon),
    /// Second projection `c.2`.
    Snd(RCon),
}

impl Con {
    pub fn var(s: &Sym) -> RCon {
        mk_con(Con::Var(*s))
    }

    pub fn meta(id: MetaId) -> RCon {
        mk_con(Con::Meta(id))
    }

    pub fn prim(p: PrimType) -> RCon {
        mk_con(Con::Prim(p))
    }

    pub fn int() -> RCon {
        Con::prim(PrimType::Int)
    }

    pub fn float() -> RCon {
        Con::prim(PrimType::Float)
    }

    pub fn string() -> RCon {
        Con::prim(PrimType::String)
    }

    pub fn bool_() -> RCon {
        Con::prim(PrimType::Bool)
    }

    pub fn unit() -> RCon {
        Con::prim(PrimType::Unit)
    }

    pub fn arrow(a: RCon, b: RCon) -> RCon {
        mk_con(Con::Arrow(a, b))
    }

    pub fn poly(s: Sym, k: Kind, body: RCon) -> RCon {
        mk_con(Con::Poly(s, k, body))
    }

    pub fn guarded(c1: RCon, c2: RCon, t: RCon) -> RCon {
        mk_con(Con::Guarded(c1, c2, t))
    }

    pub fn lam(s: Sym, k: Kind, body: RCon) -> RCon {
        mk_con(Con::Lam(s, k, body))
    }

    pub fn app(f: RCon, a: RCon) -> RCon {
        mk_con(Con::App(f, a))
    }

    /// n-ary application.
    pub fn apps(f: RCon, args: impl IntoIterator<Item = RCon>) -> RCon {
        args.into_iter().fold(f, Con::app)
    }

    pub fn name(n: impl Into<IStr>) -> RCon {
        mk_con(Con::Name(n.into()))
    }

    pub fn record(row: RCon) -> RCon {
        mk_con(Con::Record(row))
    }

    pub fn row_nil(k: Kind) -> RCon {
        mk_con(Con::RowNil(k))
    }

    pub fn row_one(n: RCon, v: RCon) -> RCon {
        mk_con(Con::RowOne(n, v))
    }

    pub fn row_cat(a: RCon, b: RCon) -> RCon {
        mk_con(Con::RowCat(a, b))
    }

    /// Builds a literal row `[n1 = v1] ++ ... ++ [nk = vk]` from
    /// (name, value) pairs, or `[]` at `elem_kind` when empty.
    ///
    /// The concatenations form a *balanced* tree: `++` is associative
    /// (Figure 3), and `log2(n)` depth keeps every recursive term walker
    /// (normalization, zonking, drop) from consuming stack linear in
    /// field count — a 5,000-field row is legitimate input.
    pub fn row_of(elem_kind: Kind, fields: Vec<(RCon, RCon)>) -> RCon {
        fn build(fields: &mut std::vec::Drain<(RCon, RCon)>, n: usize, k: &Kind) -> RCon {
            match n {
                0 => Con::row_nil(k.clone()),
                1 => match fields.next() {
                    Some((name, v)) => Con::row_one(name, v),
                    None => Con::row_nil(k.clone()),
                },
                _ => {
                    let half = n / 2;
                    let l = build(fields, half, k);
                    let r = build(fields, n - half, k);
                    Con::row_cat(l, r)
                }
            }
        }
        let mut fields = fields;
        let n = fields.len();
        let mut drain = fields.drain(..);
        build(&mut drain, n, &elem_kind)
    }

    /// The bare `map` constant at kinds `(k1 -> k2) -> {k1} -> {k2}`.
    pub fn map_c(k1: Kind, k2: Kind) -> RCon {
        mk_con(Con::Map(k1, k2))
    }

    /// `map` fully applied: `map f r` at the given kinds.
    pub fn map_app(k1: Kind, k2: Kind, f: RCon, r: RCon) -> RCon {
        Con::app(Con::app(Con::map_c(k1, k2), f), r)
    }

    /// The `folder` family at element kind `k`.
    pub fn folder(k: Kind) -> RCon {
        mk_con(Con::Folder(k))
    }

    pub fn pair(a: RCon, b: RCon) -> RCon {
        mk_con(Con::Pair(a, b))
    }

    pub fn fst(c: RCon) -> RCon {
        mk_con(Con::Fst(c))
    }

    pub fn snd(c: RCon) -> RCon {
        mk_con(Con::Snd(c))
    }

    /// True for metavariable occurrences.
    pub fn is_meta(&self) -> bool {
        matches!(self, Con::Meta(_))
    }
}

impl ConId {
    /// If this constructor is a spine `h a1 ... an`, returns the head and
    /// arguments. O(spine length); children are handles, so nothing is
    /// cloned.
    pub fn spine(self) -> (RCon, Vec<RCon>) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Con::App(f, a) = &*cur {
            args.push(*a);
            cur = *f;
        }
        args.reverse();
        (cur, args)
    }
}

impl fmt::Display for Con {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_con(self, f, 0)
    }
}

impl fmt::Display for ConId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_con(self, f, 0)
    }
}

impl fmt::Debug for ConId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.get(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spine_decomposition() {
        let f = Con::var(&Sym::fresh("f"));
        let a = Con::int();
        let b = Con::string();
        let app = Con::apps(f, [a, b]);
        let (head, args) = app.spine();
        assert_eq!(head, f);
        assert_eq!(args.len(), 2);
        assert_eq!(args[0], a);
        assert_eq!(args[1], b);
    }

    #[test]
    fn row_of_empty_is_nil() {
        let r = Con::row_of(Kind::Type, vec![]);
        assert!(matches!(&*r, Con::RowNil(Kind::Type)));
    }

    #[test]
    fn row_of_builds_balanced_cats() {
        // Three fields: balanced split is 1 + 2, so the root is a cat of
        // a single field and a two-field cat.
        let r = Con::row_of(
            Kind::Type,
            vec![
                (Con::name("A"), Con::int()),
                (Con::name("B"), Con::float()),
                (Con::name("C"), Con::bool_()),
            ],
        );
        match &*r {
            Con::RowCat(l, rr) => {
                assert!(matches!(&**l, Con::RowOne(_, _)));
                assert!(matches!(&**rr, Con::RowCat(_, _)));
            }
            other => panic!("expected RowCat, got {other:?}"),
        }
    }

    #[test]
    fn row_of_depth_is_logarithmic() {
        fn depth(c: &RCon) -> usize {
            match &**c {
                Con::RowCat(a, b) => 1 + depth(a).max(depth(b)),
                _ => 1,
            }
        }
        let r = Con::row_of(
            Kind::Type,
            (0..1024).map(|i| (Con::name(format!("F{i}")), Con::int())).collect(),
        );
        assert!(depth(&r) <= 12, "depth {} for 1024 fields", depth(&r));
    }

    #[test]
    fn handles_are_copy_and_send() {
        fn assert_copy_send<T: Copy + Send + Sync>() {}
        assert_copy_send::<RCon>();
    }

    #[test]
    fn prim_display() {
        assert_eq!(PrimType::Int.to_string(), "int");
        assert_eq!(PrimType::Unit.to_string(), "unit");
    }
}
