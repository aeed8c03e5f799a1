//! Capture-avoiding substitution over constructors.
//!
//! Only constructor-level substitution is needed: value-level evaluation is
//! environment-based (see `ur-eval`), and the typing rules substitute
//! constructors into types (for `e [c]` and beta reduction during
//! normalization).

use crate::arena::Flags;
use crate::con::{Con, RCon};
use crate::sym::Sym;
use crate::walk::{Step, Walk, Walker};
use std::collections::HashSet;
use std::convert::Infallible;

/// The variables of `c`, free or bound, each once.
pub fn vars(c: &RCon) -> Vec<Sym> {
    struct Vars(Vec<Sym>);
    impl Walker for Vars {
        type Stop = Infallible;
        fn enters(&self, f: Flags) -> bool {
            f.has_var()
        }
        fn con(&mut self, c: RCon) -> Result<Step, Infallible> {
            if let Con::Var(s) = &*c {
                self.0.push(*s);
            }
            Ok(Step::Into(c))
        }
    }
    let mut walk = Walk::new(Vars(Vec::new()));
    let Ok(_) = walk.con(*c);
    walk.w.0
}

/// Returns the free constructor variables of `c`.
pub fn fv(c: &RCon) -> HashSet<Sym> {
    vars(c).into_iter().filter(|v| is_free(*v, c)).collect()
}

/// True when `v` occurs free in `c`.
pub fn is_free(v: Sym, c: &RCon) -> bool {
    struct FreeIn(Sym);
    impl Walker for FreeIn {
        type Stop = ();
        fn enters(&self, f: Flags) -> bool {
            f.has_var()
        }
        fn con(&mut self, c: RCon) -> Result<Step, ()> {
            match &*c {
                Con::Var(s) if *s == self.0 => Err(()),
                _ => Ok(Step::Into(c)),
            }
        }
        /// A binder of `v` shadows it.
        fn binder(walk: &mut Walk<Self>, s: Sym, body: RCon) -> Result<(Sym, RCon), ()> {
            Ok((s, if s == walk.w.0 { body } else { walk.con(body)? }))
        }
    }
    Walk::new(FreeIn(v)).con(*c).is_err()
}

/// Substitutes `repl` for free occurrences of `target` in `c`,
/// alpha-renaming binders when they would capture free variables of `repl`.
/// Returns `c` itself when `target` is not free in it.
pub fn subst(c: &RCon, target: &Sym, repl: &RCon) -> RCon {
    struct Subst(Sym, RCon);
    impl Walker for Subst {
        type Stop = Infallible;
        fn enters(&self, f: Flags) -> bool {
            f.has_var()
        }
        fn con(&mut self, c: RCon) -> Result<Step, Infallible> {
            Ok(match &*c {
                Con::Var(s) if *s == self.0 => Step::Done(self.1),
                _ => Step::Into(c),
            })
        }
        /// A binder that shadows the target stops the substitution; one
        /// that would capture a free variable of the replacement is
        /// renamed first, when the target occurs beneath it.
        fn binder(walk: &mut Walk<Self>, s: Sym, body: RCon) -> Result<(Sym, RCon), Infallible> {
            let Subst(target, repl) = walk.w;
            if s == target {
                return Ok((s, body));
            }
            if is_free(s, &repl) && is_free(target, &body) {
                let fresh = s.rename();
                return Ok((fresh, walk.con(subst(&body, &s, &Con::var(&fresh)))?));
            }
            Ok((s, walk.con(body)?))
        }
    }
    let Ok(out) = Walk::new(Subst(*target, *repl)).con(*c);
    out
}

/// Resolves the constructor variables `lookup` binds in `c`: free
/// variables, then one [`subst`] per bound variable, until nothing
/// changes. Both evaluation engines resolve runtime constructor bindings
/// with it.
pub fn resolve_bound(c: RCon, lookup: impl Fn(Sym) -> Option<RCon>) -> RCon {
    let mut out = c;
    loop {
        let before = out;
        for v in fv(&out) {
            if let Some(repl) = lookup(v) {
                out = subst(&out, &v, &repl);
            }
        }
        if out == before {
            return out;
        }
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
