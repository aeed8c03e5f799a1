//! The one structural walk over hash-consed terms.
//!
//! Zonking, finalization, substitution, free variables, the occurs check
//! and the metavariable search only rebuild or search a term; each is a
//! small [`Walker`] that says which nodes it can change
//! ([`Walker::enters`]), what it does at a node before its children
//! ([`Walker::con`], [`Walker::expr`]), at a kind annotation
//! ([`Walker::kind`]) and under a binder ([`Walker::binder`]). [`Walk`]
//! lists the children — this module is the one place that does.
//!
//! Terms are hash-consed, so a type whose tree is exponential can be a
//! DAG of a few nodes: the type `id id … id 1` instantiates doubles at
//! every `id`. A walk therefore visits each distinct node once per call,
//! through a memo keyed by node id, and every client is linear in the
//! distinct nodes it reaches. A constructor whose precomputed flags rule
//! it out is its own result: it costs O(1) and is never recorded, so a
//! call whose root is ruled out allocates nothing. The memo lives only
//! for its call; it holds no ids afterwards.
//!
//! A node whose children all come back unchanged is returned as is,
//! without re-interning, so a search is a rewrite that changes nothing
//! and stops early through [`Walker::Stop`]. Recursion follows the term's
//! depth, exactly as the hand-written walks it replaced did.
//!
//! The semantic recursions — `hnf`, `defeq`, unification, kinding, the
//! Figure-4 recheck, row normalization, the disjointness prover, the
//! printers, compilation and evaluation — give each variant its own
//! meaning and stay hand-written.

use crate::arena::{mk_con, mk_expr, ConId, ExprId, Flags};
use crate::con::{Con, RCon};
use crate::expr::{Expr, RExpr};
use crate::kind::Kind;
use crate::sym::Sym;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What a walker does at a constructor before its children.
pub enum Step {
    /// The node's result; its children are not visited.
    Done(RCon),
    /// Walk this node instead: its children when it is the node asked
    /// about, or the whole node when it differs (a solved metavariable's
    /// solution, say).
    Into(RCon),
}

/// One client of the walk. Every hook but the flag gate has a default
/// that leaves the term alone, so a walker writes only what it does
/// differently.
pub trait Walker: Sized {
    /// Why a walk stops early: what a search found, or
    /// [`std::convert::Infallible`] for a rewrite.
    type Stop;

    /// True when a constructor with these flags may be changed (or
    /// matched) by this walker. Anything else is its own result.
    fn enters(&self, flags: Flags) -> bool;

    /// Called once per distinct constructor that passes [`Walker::enters`].
    fn con(&mut self, c: RCon) -> Result<Step, Self::Stop> {
        Ok(Step::Into(c))
    }

    /// A kind annotation: `Some` replaces it.
    fn kind(&mut self, _k: &Kind) -> Option<Kind> {
        None
    }

    /// The body of `Poly`/`Lam` under binder `s`: returns the binder and
    /// the walked body (a walker may rename the binder).
    fn binder(walk: &mut Walk<Self>, s: Sym, body: RCon) -> Result<(Sym, RCon), Self::Stop> {
        Ok((s, walk.con(body)?))
    }

    /// Called once per distinct expression: `Some` is its result, and its
    /// children are not visited.
    fn expr(&mut self, _e: RExpr) -> Result<Option<RExpr>, Self::Stop> {
        Ok(None)
    }
}

/// One call's walk: the walker and its memo.
pub struct Walk<W> {
    pub w: W,
    cons: IdMap<ConId>,
    exprs: IdMap<ExprId>,
}

impl<W: Walker> Walk<W> {
    pub fn new(w: W) -> Walk<W> {
        Walk {
            w,
            cons: IdMap::default(),
            exprs: IdMap::default(),
        }
    }

    /// The walked form of `c`, computed once per distinct node.
    pub fn con(&mut self, c: RCon) -> Result<RCon, W::Stop> {
        if !self.w.enters(c.flags()) {
            return Ok(c);
        }
        if let Some(&out) = self.cons.get(&c) {
            return Ok(out);
        }
        let out = match self.w.con(c)? {
            Step::Done(out) => out,
            Step::Into(n) if n == c => self.con_children(c)?,
            Step::Into(n) => self.con(n)?,
        };
        self.cons.insert(c, out);
        Ok(out)
    }

    /// The walked form of `e`, computed once per distinct node.
    pub fn expr(&mut self, e: RExpr) -> Result<RExpr, W::Stop> {
        if let Some(&out) = self.exprs.get(&e) {
            return Ok(out);
        }
        let out = match self.w.expr(e)? {
            Some(out) => out,
            None => self.expr_children(e)?,
        };
        self.exprs.insert(e, out);
        Ok(out)
    }

    fn kind(&mut self, k: &Kind) -> Kind {
        self.w.kind(k).unwrap_or_else(|| k.clone())
    }

    /// Rebuilds `c` from its walked children; `c` itself when none
    /// changed. The one list of a constructor's children.
    fn con_children(&mut self, c: RCon) -> Result<RCon, W::Stop> {
        let node = match &*c {
            Con::Var(_) | Con::Meta(_) | Con::Prim(_) | Con::Name(_) => return Ok(c),
            Con::Arrow(a, b) => Con::Arrow(self.con(*a)?, self.con(*b)?),
            Con::App(a, b) => Con::App(self.con(*a)?, self.con(*b)?),
            Con::RowOne(a, b) => Con::RowOne(self.con(*a)?, self.con(*b)?),
            Con::RowCat(a, b) => Con::RowCat(self.con(*a)?, self.con(*b)?),
            Con::Pair(a, b) => Con::Pair(self.con(*a)?, self.con(*b)?),
            Con::Guarded(a, b, t) => Con::Guarded(self.con(*a)?, self.con(*b)?, self.con(*t)?),
            Con::Record(r) => Con::Record(self.con(*r)?),
            Con::Fst(r) => Con::Fst(self.con(*r)?),
            Con::Snd(r) => Con::Snd(self.con(*r)?),
            Con::Poly(x, k, t) | Con::Lam(x, k, t) => {
                let k = self.kind(k);
                let (x, t) = W::binder(self, *x, *t)?;
                match &*c {
                    Con::Poly(..) => Con::Poly(x, k, t),
                    _ => Con::Lam(x, k, t),
                }
            }
            Con::RowNil(k) => Con::RowNil(self.kind(k)),
            Con::Folder(k) => Con::Folder(self.kind(k)),
            Con::Map(k1, k2) => Con::Map(self.kind(k1), self.kind(k2)),
        };
        Ok(if node == *c { c } else { mk_con(node) })
    }

    /// Rebuilds `e` from its walked children; `e` itself when none
    /// changed. The one list of an expression's children.
    fn expr_children(&mut self, e: RExpr) -> Result<RExpr, W::Stop> {
        let node = match &*e {
            Expr::Var(_) | Expr::Lit(_) | Expr::RecNil => return Ok(e),
            Expr::App(a, b) => Expr::App(self.expr(*a)?, self.expr(*b)?),
            Expr::RecCat(a, b) => Expr::RecCat(self.expr(*a)?, self.expr(*b)?),
            Expr::Lam(x, t, b) => Expr::Lam(*x, self.con(*t)?, self.expr(*b)?),
            Expr::CApp(a, c) => Expr::CApp(self.expr(*a)?, self.con(*c)?),
            Expr::CLam(a, k, b) => Expr::CLam(*a, self.kind(k), self.expr(*b)?),
            Expr::RecOne(n, v) => Expr::RecOne(self.con(*n)?, self.expr(*v)?),
            Expr::Proj(a, c) => Expr::Proj(self.expr(*a)?, self.con(*c)?),
            Expr::Cut(a, c) => Expr::Cut(self.expr(*a)?, self.con(*c)?),
            Expr::DLam(c1, c2, b) => Expr::DLam(self.con(*c1)?, self.con(*c2)?, self.expr(*b)?),
            Expr::DApp(a) => Expr::DApp(self.expr(*a)?),
            Expr::Let(x, t, v, b) => Expr::Let(*x, self.con(*t)?, self.expr(*v)?, self.expr(*b)?),
            Expr::If(c, t, f) => Expr::If(self.expr(*c)?, self.expr(*t)?, self.expr(*f)?),
        };
        Ok(if node == *e { e } else { mk_expr(node) })
    }
}

/// Memo from node index to result index. Node ids are dense `u32`s, so
/// one multiply spreads them well enough; SipHash would cost more than
/// the walk step it guards.
type IdMap<T> = HashMap<T, T, BuildHasherDefault<IdHasher>>;

#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use crate::con::{Con, RCon};
    use crate::kind::Kind;
    use crate::meta::MetaCx;
    use crate::subst::{fv, is_free, resolve_bound, subst};
    use crate::sym::Sym;

    /// A constructor whose tree has more than 2^40 nodes, built from a few
    /// dozen shared ones: each level is `c -> c`, and every tenth level
    /// binds a fresh variable over it. The leaves are a solved
    /// metavariable (standing for `a`) and the free variable `b`.
    struct Dag {
        cx: MetaCx,
        c: RCon,
        a: Sym,
        b: Sym,
        binders: Vec<Sym>,
    }

    fn dag() -> Dag {
        let (a, b) = (Sym::fresh("a"), Sym::fresh("b"));
        let mut cx = MetaCx::new();
        let m = cx.fresh(Kind::Type, "m");
        cx.solve(m, Con::var(&a));
        let mut c = Con::arrow(Con::meta(m), Con::var(&b));
        let mut binders = Vec::new();
        for level in 1..=40 {
            c = Con::arrow(c, c);
            if level % 10 == 0 {
                let x = Sym::fresh("x");
                c = Con::poly(x, Kind::Type, Con::arrow(c, Con::var(&x)));
                binders.push(x);
            }
        }
        Dag {
            cx,
            c,
            a,
            b,
            binders,
        }
    }

    /// Distinct nodes reachable from `c`.
    fn distinct(c: RCon, seen: &mut std::collections::HashSet<RCon>) {
        if seen.insert(c) {
            match &*c {
                Con::Arrow(l, r) => {
                    distinct(*l, seen);
                    distinct(*r, seen);
                }
                Con::Poly(_, _, t) => distinct(*t, seen),
                _ => {}
            }
        }
    }

    #[test]
    fn every_client_is_linear_on_a_tree_of_two_to_the_forty_nodes() {
        let d = dag();
        let mut nodes = std::collections::HashSet::new();
        distinct(d.c, &mut nodes);
        assert!(nodes.len() < 100, "{} distinct nodes", nodes.len());

        let z = d.cx.zonk(&d.c);
        assert!(
            !z.flags().has_meta(),
            "zonk resolves the solved metavariable"
        );
        assert!(is_free(d.a, &z) && !is_free(d.a, &d.c));

        let unsolved = {
            let mut cx = d.cx.clone();
            let u = cx.fresh(Kind::Type, "u");
            let c = Con::arrow(d.c, Con::meta(u));
            (cx.occurs(u, &c), cx.occurs(u, &d.c))
        };
        assert_eq!(unsolved, (true, false), "occurs finds only what is there");

        assert_eq!(fv(&d.c), [d.b].into_iter().collect());
        assert_eq!(fv(&z), [d.a, d.b].into_iter().collect());
        for x in &d.binders {
            assert!(!is_free(*x, &d.c), "a binder's own variable is bound");
        }

        let s = subst(&z, &d.b, &Con::int());
        assert_eq!(fv(&s), [d.a].into_iter().collect());
        assert_eq!(
            subst(&z, &Sym::fresh("absent"), &Con::int()),
            z,
            "no change, same node"
        );

        // Substituting a binder's own name for `b` must rename the binder.
        let x = d.binders[0];
        let captured = subst(&d.c, &d.b, &Con::var(&x));
        assert!(is_free(x, &captured), "the substituted variable stays free");
        assert!(!is_free(d.b, &captured));

        let closed = resolve_bound(z, |v| (v == d.a || v == d.b).then(Con::string));
        assert!(fv(&closed).is_empty());
    }

    #[test]
    fn a_walk_the_flags_rule_out_returns_its_root() {
        let c = Con::arrow(Con::int(), Con::record(Con::row_nil(Kind::Type)));
        let cx = MetaCx::new();
        assert_eq!(cx.zonk(&c), c);
        assert_eq!(subst(&c, &Sym::fresh("a"), &Con::string()), c);
        assert!(fv(&c).is_empty());
    }
}
