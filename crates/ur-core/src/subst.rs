//! Capture-avoiding substitution over constructors.
//!
//! Only constructor-level substitution is needed: value-level evaluation is
//! environment-based (see `ur-eval`), and the typing rules substitute
//! constructors into types (for `e [c]` and beta reduction during
//! normalization).

use crate::con::{Con, RCon};
use crate::sym::Sym;
use std::collections::HashSet;

/// Collects the free constructor variables of `c` into `out`.
pub fn free_vars(c: &RCon, out: &mut HashSet<Sym>) {
    match &**c {
        Con::Var(s) => {
            out.insert(*s);
        }
        Con::Meta(_)
        | Con::Prim(_)
        | Con::Name(_)
        | Con::Map(_, _)
        | Con::Folder(_)
        | Con::RowNil(_) => {}
        Con::Arrow(a, b)
        | Con::App(a, b)
        | Con::RowOne(a, b)
        | Con::RowCat(a, b)
        | Con::Pair(a, b) => {
            free_vars(a, out);
            free_vars(b, out);
        }
        Con::Poly(s, _, t) | Con::Lam(s, _, t) => {
            let mut inner = HashSet::new();
            free_vars(t, &mut inner);
            inner.remove(s);
            out.extend(inner);
        }
        Con::Guarded(a, b, t) => {
            free_vars(a, out);
            free_vars(b, out);
            free_vars(t, out);
        }
        Con::Record(r) | Con::Fst(r) | Con::Snd(r) => free_vars(r, out),
    }
}

/// Returns the free constructor variables of `c`.
pub fn fv(c: &RCon) -> HashSet<Sym> {
    let mut out = HashSet::new();
    free_vars(c, &mut out);
    out
}

/// Substitutes `repl` for free occurrences of `target` in `c`,
/// alpha-renaming binders when they would capture free variables of `repl`.
pub fn subst(c: &RCon, target: &Sym, repl: &RCon) -> RCon {
    // O(1) fast path: the interner precomputes a has-var bit, so a term with
    // no variables at all (bound or free) cannot mention `target`.
    if !c.flags().has_var() {
        return *c;
    }
    // Fast path: nothing to do if `target` is not free in `c`.
    if !fv(c).contains(target) {
        return *c;
    }
    let repl_fv = fv(repl);
    go(c, target, repl, &repl_fv)
}

fn go(c: &RCon, target: &Sym, repl: &RCon, repl_fv: &HashSet<Sym>) -> RCon {
    // Variable-free subtrees are returned as-is without traversal.
    if !c.flags().has_var() {
        return *c;
    }
    match &**c {
        Con::Var(s) => {
            if s == target {
                *repl
            } else {
                *c
            }
        }
        Con::Meta(_)
        | Con::Prim(_)
        | Con::Name(_)
        | Con::Map(_, _)
        | Con::Folder(_)
        | Con::RowNil(_) => *c,
        Con::Arrow(a, b) => Con::arrow(go(a, target, repl, repl_fv), go(b, target, repl, repl_fv)),
        Con::App(a, b) => Con::app(go(a, target, repl, repl_fv), go(b, target, repl, repl_fv)),
        Con::RowOne(a, b) => {
            Con::row_one(go(a, target, repl, repl_fv), go(b, target, repl, repl_fv))
        }
        Con::RowCat(a, b) => {
            Con::row_cat(go(a, target, repl, repl_fv), go(b, target, repl, repl_fv))
        }
        Con::Pair(a, b) => Con::pair(go(a, target, repl, repl_fv), go(b, target, repl, repl_fv)),
        Con::Poly(s, k, t) => {
            let (s, t) = under_binder(s, t, target, repl, repl_fv);
            Con::poly(s, k.clone(), t)
        }
        Con::Lam(s, k, t) => {
            let (s, t) = under_binder(s, t, target, repl, repl_fv);
            Con::lam(s, k.clone(), t)
        }
        Con::Guarded(a, b, t) => Con::guarded(
            go(a, target, repl, repl_fv),
            go(b, target, repl, repl_fv),
            go(t, target, repl, repl_fv),
        ),
        Con::Record(r) => Con::record(go(r, target, repl, repl_fv)),
        Con::Fst(r) => Con::fst(go(r, target, repl, repl_fv)),
        Con::Snd(r) => Con::snd(go(r, target, repl, repl_fv)),
    }
}

/// Handles substitution under a binder `s`, renaming it if it shadows the
/// target or would capture a free variable of the replacement.
fn under_binder(
    s: &Sym,
    body: &RCon,
    target: &Sym,
    repl: &RCon,
    repl_fv: &HashSet<Sym>,
) -> (Sym, RCon) {
    if s == target {
        // The binder shadows the substitution target; stop here.
        return (*s, (*body));
    }
    if repl_fv.contains(s) {
        // Rename the binder to avoid capturing a free variable of `repl`.
        let fresh = s.rename();
        let renamed = go(body, s, &Con::var(&fresh), &HashSet::new());
        (fresh, go(&renamed, target, repl, repl_fv))
    } else {
        (*s, go(body, target, repl, repl_fv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;

    #[test]
    fn subst_variable() {
        let a = Sym::fresh("a");
        let c = Con::arrow(Con::var(&a), Con::int());
        let out = subst(&c, &a, &Con::string());
        match &*out {
            Con::Arrow(l, _) => assert!(matches!(&**l, Con::Prim(crate::con::PrimType::String))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subst_stops_at_shadowing_binder() {
        let a = Sym::fresh("a");
        // fn a :: Type => a — the bound `a` shadows.
        let c = Con::lam(a, Kind::Type, Con::var(&a));
        let out = subst(&c, &a, &Con::int());
        match &*out {
            Con::Lam(s, _, body) => match &**body {
                Con::Var(v) => assert_eq!(v, s),
                other => panic!("unexpected body {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subst_avoids_capture() {
        let a = Sym::fresh("a");
        let b = Sym::fresh("b");
        // fn b :: Type => a, substituting a := b must rename the binder.
        let c = Con::lam(b, Kind::Type, Con::var(&a));
        let out = subst(&c, &a, &Con::var(&b));
        match &*out {
            Con::Lam(s, _, body) => {
                assert_ne!(s, &b, "binder must be renamed");
                match &**body {
                    Con::Var(v) => assert_eq!(v, &b, "body must reference the free b"),
                    other => panic!("unexpected body {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fv_of_open_term() {
        let a = Sym::fresh("a");
        let b = Sym::fresh("b");
        let c = Con::row_cat(
            Con::row_one(Con::name("X"), Con::var(&a)),
            Con::var(&b),
        );
        let vars = fv(&c);
        assert!(vars.contains(&a));
        assert!(vars.contains(&b));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn fv_excludes_bound() {
        let a = Sym::fresh("a");
        let c = Con::lam(a, Kind::Type, Con::var(&a));
        assert!(fv(&c).is_empty());
    }

    #[test]
    fn subst_no_op_shares_rc() {
        let a = Sym::fresh("a");
        let c = Con::arrow(Con::int(), Con::string());
        let out = subst(&c, &a, &Con::bool_());
        assert!(c == out);
    }
}
