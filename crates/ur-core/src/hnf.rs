//! Head normalization of constructors.
//!
//! Following §4 of the paper, the checker reduces constructors only as much
//! as needed to expose top-level structure: beta reduction, unfolding of
//! transparent definitions, pair projections, and resolution of solved
//! metavariables. Row-level computation (`++`, `map`) is handled separately
//! by [`crate::row`], which realizes the Figure 3 laws as a canonicalizing
//! normalizer.

use crate::con::{Con, RCon};
use crate::env::Env;
use crate::subst::subst;
use crate::Cx;

/// Reduces `c` to head normal form: the result is never a redex at the
/// head (no beta redex, no solved metavariable, no transparent variable,
/// no `Fst`/`Snd` of a literal pair).
///
/// `map` applications are *not* reduced here; they are left for the row
/// normalizer, so that the Figure-5 law counters fire in one place.
///
/// Fuel-bounded: each call charges one recursion level and each reduction
/// one step. When the budget is gone (`cx.fuel` sticky-exhausted) the
/// input is returned as-is — callers treat it as neutral, which is always
/// sound (it only makes fewer things definitionally equal).
/// Memoized (see [`crate::memo`]): results are keyed by the canonical
/// intern id plus the env's semantic generation, guarded by the meta
/// generation. Only shapes that can actually reduce at the head
/// (applications, projections, variables, metas) get table entries —
/// everything else is already head-normal and `hnf_loop` confirms it in
/// one step. A cache hit still charges one normalization step so cached
/// runs stay fuel-bounded; results computed under exhausted fuel are
/// degenerate and never stored.
pub fn hnf(env: &Env, cx: &mut Cx, c: &RCon) -> RCon {
    if !cx.fuel.descend() {
        return *c;
    }
    let memoizable = cx.memo.enabled
        && matches!(
            &**c,
            Con::App(_, _) | Con::Fst(_) | Con::Snd(_) | Con::Var(_) | Con::Meta(_)
        );
    let key = if memoizable {
        let id = *c;
        let (env_gen, meta_gen) = (env.generation(), cx.metas.generation());
        if let Some(out) = cx.memo.hnf_get(id, env_gen, meta_gen) {
            cx.stats.hnf_memo_hits += 1;
            let _ = cx.fuel.step();
            cx.fuel.ascend();
            return out;
        }
        cx.stats.hnf_memo_misses += 1;
        Some((id, env_gen))
    } else {
        None
    };
    let out = hnf_loop(env, cx, c);
    if let Some((id, env_gen)) = key {
        if cx.fuel.exhausted().is_none() {
            cx.memo.hnf_put(id, env_gen, cx.metas.generation(), &out);
        }
    }
    cx.fuel.ascend();
    out
}

fn hnf_loop(env: &Env, cx: &mut Cx, c: &RCon) -> RCon {
    let mut cur = *c;
    loop {
        if !cx.fuel.step() {
            return cur;
        }
        match &*cur {
            Con::Meta(id) => match cx.metas.solution(*id) {
                Some(sol) => {
                    let next = *sol;
                    cur = next;
                }
                None => return cur,
            },
            Con::Var(s) => match env.lookup_con(s).and_then(|b| b.def) {
                Some(def) => cur = def,
                None => return cur,
            },
            Con::App(f, a) => {
                let f_hnf = hnf(env, cx, f);
                match &*f_hnf {
                    Con::Lam(x, _, body) => {
                        cur = subst(body, x, a);
                    }
                    _ => {
                        if f_hnf == *f {
                            return cur;
                        }
                        return Con::app(f_hnf, *a);
                    }
                }
            }
            Con::Fst(p) => {
                let p_hnf = hnf(env, cx, p);
                match &*p_hnf {
                    Con::Pair(a, _) => cur = *a,
                    _ => {
                        if p_hnf == *p {
                            return cur;
                        }
                        return Con::fst(p_hnf);
                    }
                }
            }
            Con::Snd(p) => {
                let p_hnf = hnf(env, cx, p);
                match &*p_hnf {
                    Con::Pair(_, b) => cur = *b,
                    _ => {
                        if p_hnf == *p {
                            return cur;
                        }
                        return Con::snd(p_hnf);
                    }
                }
            }
            _ => return cur,
        }
    }
}

/// True if `c` head-normalizes to a row former (`[]`, `[n = v]`, `++`, or a
/// saturated `map` application). Used by definitional equality to decide
/// whether to take the row-normalization path.
pub fn is_row_shaped(env: &Env, cx: &mut Cx, c: &RCon) -> bool {
    let c = hnf(env, cx, c);
    match &*c {
        Con::RowNil(_) | Con::RowOne(_, _) | Con::RowCat(_, _) => true,
        Con::App(_, _) => {
            let (head, args) = c.spine();
            let head = hnf(env, cx, &head);
            matches!(&*head, Con::Map(_, _)) && args.len() == 2
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;
    use crate::sym::Sym;

    fn setup() -> (Env, Cx) {
        (Env::new(), Cx::new())
    }

    #[test]
    fn beta_reduces() {
        let (env, mut cx) = setup();
        let a = Sym::fresh("a");
        let id = Con::lam(a, Kind::Type, Con::var(&a));
        let app = Con::app(id, Con::int());
        let out = hnf(&env, &mut cx, &app);
        assert!(matches!(&*out, Con::Prim(crate::con::PrimType::Int)));
    }

    #[test]
    fn unfolds_transparent_definitions() {
        let (mut env, mut cx) = setup();
        let t = Sym::fresh("myint");
        env.define_con(t, Kind::Type, Con::int());
        let out = hnf(&env, &mut cx, &Con::var(&t));
        assert!(matches!(&*out, Con::Prim(crate::con::PrimType::Int)));
    }

    #[test]
    fn resolves_solved_metas() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh(Kind::Type, "t");
        cx.metas.solve(m, Con::string());
        let out = hnf(&env, &mut cx, &Con::meta(m));
        assert!(matches!(&*out, Con::Prim(crate::con::PrimType::String)));
    }

    #[test]
    fn unsolved_meta_is_neutral() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh(Kind::Type, "t");
        let out = hnf(&env, &mut cx, &Con::meta(m));
        assert!(matches!(&*out, Con::Meta(_)));
    }

    #[test]
    fn pair_projections_reduce() {
        let (env, mut cx) = setup();
        let p = Con::pair(Con::int(), Con::string());
        let f = hnf(&env, &mut cx, &Con::fst(p));
        let s = hnf(&env, &mut cx, &Con::snd(p));
        assert!(matches!(&*f, Con::Prim(crate::con::PrimType::Int)));
        assert!(matches!(&*s, Con::Prim(crate::con::PrimType::String)));
    }

    #[test]
    fn nested_beta_through_definition() {
        // type id2 = fn a :: Type => a; hnf (id2 (id2 int)) = int
        let (mut env, mut cx) = setup();
        let a = Sym::fresh("a");
        let idc = Con::lam(a, Kind::Type, Con::var(&a));
        let id2 = Sym::fresh("id2");
        env.define_con(
            id2,
            Kind::arrow(Kind::Type, Kind::Type),
            idc,
        );
        let inner = Con::app(Con::var(&id2), Con::int());
        let outer = Con::app(Con::var(&id2), inner);
        let out = hnf(&env, &mut cx, &outer);
        assert!(matches!(&*out, Con::Prim(crate::con::PrimType::Int)));
    }

    #[test]
    fn neutral_application_is_stable() {
        let (mut env, mut cx) = setup();
        let f = Sym::fresh("f");
        env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
        let app = Con::app(Con::var(&f), Con::int());
        let out = hnf(&env, &mut cx, &app);
        assert_eq!(&*out, &*app);
    }

    #[test]
    fn row_shapes() {
        let (mut env, mut cx) = setup();
        assert!(is_row_shaped(&env, &mut cx, &Con::row_nil(Kind::Type)));
        assert!(is_row_shaped(
            &env,
            &mut cx,
            &Con::row_one(Con::name("A"), Con::int())
        ));
        let r = Sym::fresh("r");
        env.bind_con(r, Kind::row(Kind::Type));
        // a bare row variable is not row-*shaped* (it is neutral)
        assert!(!is_row_shaped(&env, &mut cx, &Con::var(&r)));
        // but map f r is
        let a = Sym::fresh("a");
        let idf = Con::lam(a, Kind::Type, Con::var(&a));
        let m = Con::map_app(Kind::Type, Kind::Type, idf, Con::var(&r));
        assert!(is_row_shaped(&env, &mut cx, &m));
        assert!(!is_row_shaped(&env, &mut cx, &Con::int()));
    }
}
