//! Definitional equality of constructors (paper Figure 3).
//!
//! The congruence/beta rules are realized by comparing head normal forms;
//! the row laws (unit, commutativity, associativity, `map` equations,
//! identity, distributivity, fusion) by comparing canonical row normal
//! forms from [`crate::row`]. Functions are compared up to alpha and
//! one-sided eta expansion.

use crate::con::{Con, RCon};
use crate::env::Env;
use crate::hnf::{hnf, is_row_shaped};
use crate::kind::Kind;
use crate::row::{normalize_row, FieldKey, RowNf};
use crate::subst::subst;
use crate::Cx;

/// Kind equality, after resolving solved kind metavariables.
pub fn kinds_eq(cx: &MutCxRef<'_>, k1: &Kind, k2: &Kind) -> bool {
    fn go(cx: &crate::meta::MetaCx, k1: &Kind, k2: &Kind) -> bool {
        let k1 = cx.resolve_kind(k1);
        let k2 = cx.resolve_kind(k2);
        match (&k1, &k2) {
            (Kind::Type, Kind::Type) | (Kind::Name, Kind::Name) => true,
            (Kind::Meta(a), Kind::Meta(b)) => a == b,
            (Kind::Arrow(a1, b1), Kind::Arrow(a2, b2))
            | (Kind::Pair(a1, b1), Kind::Pair(a2, b2)) => go(cx, a1, a2) && go(cx, b1, b2),
            (Kind::Row(a), Kind::Row(b)) => go(cx, a, b),
            _ => false,
        }
    }
    go(cx.0, k1, k2)
}

/// A shared view of the metavariable context, so kind comparison does not
/// require `&mut`.
pub struct MutCxRef<'a>(pub &'a crate::meta::MetaCx);

/// Definitional equality `c1 = c2` in context `env`.
///
/// Increments the Figure-5 law counters in `cx.stats` as normalization
/// applies the algebraic laws.
///
/// Fuel-bounded: charges one recursion level per subproblem. On
/// exhaustion (`cx.fuel` sticky-exhausted) it answers `false` — the
/// conservative direction; the elaborator checks [`crate::limits::Fuel::
/// exhausted`] and reports a resource diagnostic instead of a plain
/// mismatch.
/// Memoized (see [`crate::memo`]): queries are keyed by the unordered
/// pair of canonical intern ids plus the env's semantic generation.
/// Hash-consing makes reflexivity O(1): structurally equal canonical
/// terms are pointer-equal before any normalization happens.
pub fn defeq(env: &Env, cx: &mut Cx, c1: &RCon, c2: &RCon) -> bool {
    if !cx.fuel.descend() {
        return false;
    }
    if c1 == c2 {
        cx.fuel.ascend();
        return true;
    }
    let key = if cx.memo.enabled {
        cx.memo.check_laws(cx.laws);
        let (i1, i2) = (*c1, *c2);
        if i1 == i2 {
            // Foreign (hand-built) duplicates of one canonical term.
            cx.fuel.ascend();
            return true;
        }
        let (env_gen, meta_gen) = (env.generation(), cx.metas.generation());
        if let Some(eq) = cx.memo.defeq_get(i1, i2, env_gen, meta_gen) {
            cx.stats.defeq_memo_hits += 1;
            let _ = cx.fuel.step();
            cx.fuel.ascend();
            return eq;
        }
        cx.stats.defeq_memo_misses += 1;
        Some((i1, i2, env_gen))
    } else {
        None
    };
    let out = defeq_inner(env, cx, c1, c2);
    if let Some((i1, i2, env_gen)) = key {
        if cx.fuel.exhausted().is_none() {
            cx.memo.defeq_put(i1, i2, env_gen, cx.metas.generation(), out);
        }
    }
    cx.fuel.ascend();
    out
}

fn defeq_inner(env: &Env, cx: &mut Cx, c1: &RCon, c2: &RCon) -> bool {
    let c1 = hnf(env, cx, c1);
    let c2 = hnf(env, cx, c2);
    if c1 == c2 {
        return true;
    }

    // Row-shaped on either side: go through canonical row normal forms.
    // (A bare neutral of row kind also normalizes, to a single atom.)
    if is_row_shaped(env, cx, &c1) || is_row_shaped(env, cx, &c2) {
        let n1 = normalize_row(env, cx, &c1);
        let n2 = normalize_row(env, cx, &c2);
        return row_nf_eq(env, cx, &n1, &n2);
    }

    // `folder r` against a polymorphic type: unfold the folder definition.
    // (Two folder applications compare structurally below, without
    // unfolding.)
    if matches!(&*c2, Con::Poly(_, _, _)) {
        if let Some((k, r)) = crate::folder::as_folder_app(&c1) {
            let unfolded = crate::folder::unfold_folder(&k, &r);
            return defeq(env, cx, &unfolded, &c2);
        }
    }
    if matches!(&*c1, Con::Poly(_, _, _)) {
        if let Some((k, r)) = crate::folder::as_folder_app(&c2) {
            let unfolded = crate::folder::unfold_folder(&k, &r);
            return defeq(env, cx, &c1, &unfolded);
        }
    }

    match (&*c1, &*c2) {
        (Con::Var(a), Con::Var(b)) => a == b,
        (Con::Meta(a), Con::Meta(b)) => a == b,
        (Con::Prim(a), Con::Prim(b)) => a == b,
        (Con::Name(a), Con::Name(b)) => a == b,
        (Con::Arrow(a1, b1), Con::Arrow(a2, b2)) => {
            defeq(env, cx, a1, a2) && defeq(env, cx, b1, b2)
        }
        (Con::Poly(s1, k1, t1), Con::Poly(s2, k2, t2)) => {
            if !kinds_eq(&MutCxRef(&cx.metas), k1, k2) {
                return false;
            }
            alpha_eq_body(env, cx, s1, t1, s2, t2, k1)
        }
        (Con::Lam(s1, k1, t1), Con::Lam(s2, k2, t2)) => {
            if !kinds_eq(&MutCxRef(&cx.metas), k1, k2) {
                return false;
            }
            alpha_eq_body(env, cx, s1, t1, s2, t2, k1)
        }
        // One-sided eta: fn a => f a  =  f
        (Con::Lam(s, k, body), _) => eta_eq(env, cx, s, k, body, &c2),
        (_, Con::Lam(s, k, body)) => eta_eq(env, cx, s, k, body, &c1),
        (Con::Guarded(a1, b1, t1), Con::Guarded(a2, b2, t2)) => {
            let guards_match = (defeq(env, cx, a1, a2) && defeq(env, cx, b1, b2))
                || (defeq(env, cx, a1, b2) && defeq(env, cx, b1, a2));
            guards_match && defeq(env, cx, t1, t2)
        }
        (Con::App(f1, a1), Con::App(f2, a2)) => {
            defeq(env, cx, f1, f2) && defeq(env, cx, a1, a2)
        }
        (Con::Record(r1), Con::Record(r2)) => {
            let n1 = normalize_row(env, cx, r1);
            let n2 = normalize_row(env, cx, r2);
            row_nf_eq(env, cx, &n1, &n2)
        }
        (Con::Map(k1a, k2a), Con::Map(k1b, k2b)) => {
            kinds_eq(&MutCxRef(&cx.metas), k1a, k1b) && kinds_eq(&MutCxRef(&cx.metas), k2a, k2b)
        }
        (Con::Folder(k1), Con::Folder(k2)) => kinds_eq(&MutCxRef(&cx.metas), k1, k2),
        (Con::Pair(a1, b1), Con::Pair(a2, b2)) => {
            defeq(env, cx, a1, a2) && defeq(env, cx, b1, b2)
        }
        (Con::Fst(a), Con::Fst(b)) | (Con::Snd(a), Con::Snd(b)) => defeq(env, cx, a, b),
        _ => false,
    }
}

/// Alpha-equality of binder bodies: substitute a shared fresh variable.
fn alpha_eq_body(
    env: &Env,
    cx: &mut Cx,
    s1: &crate::sym::Sym,
    t1: &RCon,
    s2: &crate::sym::Sym,
    t2: &RCon,
    k: &Kind,
) -> bool {
    let fresh = s1.rename();
    let v = Con::var(&fresh);
    let mut env2 = env.clone();
    env2.bind_con(fresh, k.clone());
    let b1 = subst(t1, s1, &v);
    let b2 = subst(t2, s2, &v);
    defeq(&env2, cx, &b1, &b2)
}

/// Eta: `fn a :: k => body` equals `other` if `body = other a`.
fn eta_eq(
    env: &Env,
    cx: &mut Cx,
    s: &crate::sym::Sym,
    k: &Kind,
    body: &RCon,
    other: &RCon,
) -> bool {
    let fresh = s.rename();
    let v = Con::var(&fresh);
    let mut env2 = env.clone();
    env2.bind_con(fresh, k.clone());
    let b = subst(body, s, &v);
    let expanded = Con::app(*other, v);
    defeq(&env2, cx, &b, &expanded)
}

/// Equality of row normal forms: match fields (literal keys by name,
/// neutral keys by definitional equality) and atoms as multisets.
pub fn row_nf_eq(env: &Env, cx: &mut Cx, n1: &RowNf, n2: &RowNf) -> bool {
    if n1.fields.len() != n2.fields.len() || n1.atoms.len() != n2.atoms.len() {
        return false;
    }
    // Match fields: clone the second side and cross off matches.
    let mut remaining: Vec<(FieldKey, RCon)> = n2.fields.clone();
    'outer: for (k1, v1) in &n1.fields {
        for i in 0..remaining.len() {
            let (k2, v2) = &remaining[i];
            let keys_match = match (k1, k2) {
                (FieldKey::Lit(a), FieldKey::Lit(b)) => a == b,
                (FieldKey::Neutral(a), FieldKey::Neutral(b)) => defeq(env, cx, a, b),
                _ => false,
            };
            if keys_match {
                let v2 = *v2;
                if !defeq(env, cx, v1, &v2) {
                    return false;
                }
                remaining.remove(i);
                continue 'outer;
            }
        }
        return false;
    }

    let mut remaining_atoms = n2.atoms.clone();
    'outer2: for a1 in &n1.atoms {
        for i in 0..remaining_atoms.len() {
            let a2 = remaining_atoms[i].clone();
            if !defeq(env, cx, &a1.base, &a2.base) {
                continue;
            }
            let maps_match = match (&a1.map, &a2.map) {
                (None, None) => true,
                (Some((f1, _)), Some((f2, _))) => defeq(env, cx, f1, f2),
                _ => false,
            };
            if maps_match {
                remaining_atoms.remove(i);
                continue 'outer2;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;

    fn setup() -> (Env, Cx) {
        (Env::new(), Cx::new())
    }

    fn lit_row(names: &[(&str, RCon)]) -> RCon {
        Con::row_of(
            Kind::Type,
            names
                .iter()
                .map(|(n, c)| (Con::name(*n), (*c)))
                .collect(),
        )
    }

    #[test]
    fn reflexive_on_prims() {
        let (env, mut cx) = setup();
        assert!(defeq(&env, &mut cx, &Con::int(), &Con::int()));
        assert!(!defeq(&env, &mut cx, &Con::int(), &Con::float()));
    }

    #[test]
    fn concat_commutative() {
        let (env, mut cx) = setup();
        let ab = Con::row_cat(
            lit_row(&[("A", Con::int())]),
            lit_row(&[("B", Con::float())]),
        );
        let ba = Con::row_cat(
            lit_row(&[("B", Con::float())]),
            lit_row(&[("A", Con::int())]),
        );
        assert!(defeq(&env, &mut cx, &ab, &ba));
    }

    #[test]
    fn concat_associative_under_abstraction() {
        // (r1 ++ r2) ++ r3 = r1 ++ (r2 ++ r3) with abstract row variables —
        // exactly the `acat` motivating example from the paper's §1, which
        // needs an explicit proof in Coq but holds definitionally in Ur.
        let (mut env, mut cx) = setup();
        let mut vars = Vec::new();
        for n in ["r1", "r2", "r3"] {
            let s = Sym::fresh(n);
            env.bind_con(s, Kind::row(Kind::Type));
            vars.push(Con::var(&s));
        }
        let left = Con::row_cat(
            Con::row_cat(vars[0], vars[1]),
            vars[2],
        );
        let right = Con::row_cat(
            vars[0],
            Con::row_cat(vars[1], vars[2]),
        );
        assert!(defeq(&env, &mut cx, &left, &right));
    }

    #[test]
    fn map_fusion_equality() {
        // map f (map g r) = map (fn x => f (g x)) r, with all of f, g, r
        // abstract — requires the fusion law (§2.2's key example).
        let (mut env, mut cx) = setup();
        let f = Sym::fresh("f");
        let g = Sym::fresh("g");
        let r = Sym::fresh("r");
        env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
        env.bind_con(g, Kind::arrow(Kind::Type, Kind::Type));
        env.bind_con(r, Kind::row(Kind::Type));
        let nested = Con::map_app(
            Kind::Type,
            Kind::Type,
            Con::var(&f),
            Con::map_app(Kind::Type, Kind::Type, Con::var(&g), Con::var(&r)),
        );
        let x = Sym::fresh("x");
        let composed = Con::lam(
            x,
            Kind::Type,
            Con::app(Con::var(&f), Con::app(Con::var(&g), Con::var(&x))),
        );
        let fused = Con::map_app(Kind::Type, Kind::Type, composed, Con::var(&r));
        assert!(defeq(&env, &mut cx, &nested, &fused));
        assert!(cx.stats.law_map_fusion >= 1);
    }

    #[test]
    fn map_distributivity_equality() {
        let (mut env, mut cx) = setup();
        let f = Sym::fresh("f");
        let r1 = Sym::fresh("r1");
        let r2 = Sym::fresh("r2");
        env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
        env.bind_con(r1, Kind::row(Kind::Type));
        env.bind_con(r2, Kind::row(Kind::Type));
        let mapped_cat = Con::map_app(
            Kind::Type,
            Kind::Type,
            Con::var(&f),
            Con::row_cat(Con::var(&r1), Con::var(&r2)),
        );
        let cat_mapped = Con::row_cat(
            Con::map_app(Kind::Type, Kind::Type, Con::var(&f), Con::var(&r1)),
            Con::map_app(Kind::Type, Kind::Type, Con::var(&f), Con::var(&r2)),
        );
        assert!(defeq(&env, &mut cx, &mapped_cat, &cat_mapped));
        assert!(cx.stats.law_map_distrib >= 1);
    }

    #[test]
    fn map_identity_equality() {
        let (mut env, mut cx) = setup();
        let r = Sym::fresh("r");
        env.bind_con(r, Kind::row(Kind::Type));
        let a = Sym::fresh("a");
        let idf = Con::lam(a, Kind::Type, Con::var(&a));
        let mapped = Con::map_app(Kind::Type, Kind::Type, idf, Con::var(&r));
        assert!(defeq(&env, &mut cx, &mapped, &Con::var(&r)));
        assert!(cx.stats.law_map_identity >= 1);
    }

    #[test]
    fn fusion_corollary_from_paper_section_2_2() {
        // $(map (fn p => exp [] (snd p)) r) = $(map (exp []) (map snd r))
        let (mut env, mut cx) = setup();
        let exp = Sym::fresh("exp");
        // exp :: {Type} -> Type -> Type
        env.bind_con(
            exp,
            Kind::arrow(Kind::row(Kind::Type), Kind::arrow(Kind::Type, Kind::Type)),
        );
        let r = Sym::fresh("r");
        let pair_k = Kind::pair(Kind::Type, Kind::Type);
        env.bind_con(r, Kind::row(pair_k.clone()));

        let exp_nil = Con::app(Con::var(&exp), Con::row_nil(Kind::Type));

        // left: map (fn p => exp [] (snd p)) r
        let p = Sym::fresh("p");
        let lam = Con::lam(
            p,
            pair_k.clone(),
            Con::app(exp_nil, Con::snd(Con::var(&p))),
        );
        let left = Con::map_app(pair_k.clone(), Kind::Type, lam, Con::var(&r));

        // right: map (exp []) (map snd r)
        let q = Sym::fresh("q");
        let snd_fn = Con::lam(q, pair_k.clone(), Con::snd(Con::var(&q)));
        let inner = Con::map_app(pair_k.clone(), Kind::Type, snd_fn, Con::var(&r));
        let right = Con::map_app(Kind::Type, Kind::Type, exp_nil, inner);

        let lrec = Con::record(left);
        let rrec = Con::record(right);
        assert!(defeq(&env, &mut cx, &lrec, &rrec));
        assert!(cx.stats.law_map_fusion >= 1);
    }

    #[test]
    fn alpha_equality_of_polys() {
        let (env, mut cx) = setup();
        let a = Sym::fresh("a");
        let b = Sym::fresh("b");
        let p1 = Con::poly(a, Kind::Type, Con::arrow(Con::var(&a), Con::var(&a)));
        let p2 = Con::poly(b, Kind::Type, Con::arrow(Con::var(&b), Con::var(&b)));
        assert!(defeq(&env, &mut cx, &p1, &p2));
    }

    #[test]
    fn guard_symmetry() {
        let (mut env, mut cx) = setup();
        let r1 = Sym::fresh("r1");
        let r2 = Sym::fresh("r2");
        env.bind_con(r1, Kind::row(Kind::Type));
        env.bind_con(r2, Kind::row(Kind::Type));
        let g1 = Con::guarded(Con::var(&r1), Con::var(&r2), Con::int());
        let g2 = Con::guarded(Con::var(&r2), Con::var(&r1), Con::int());
        assert!(defeq(&env, &mut cx, &g1, &g2));
    }

    #[test]
    fn distinct_rows_not_equal() {
        let (env, mut cx) = setup();
        let r1 = lit_row(&[("A", Con::int())]);
        let r2 = lit_row(&[("A", Con::float())]);
        let r3 = lit_row(&[("B", Con::int())]);
        assert!(!defeq(&env, &mut cx, &r1, &r2));
        assert!(!defeq(&env, &mut cx, &r1, &r3));
    }

    #[test]
    fn record_types_compare_via_rows() {
        let (env, mut cx) = setup();
        let t1 = Con::record(Con::row_cat(
            lit_row(&[("A", Con::int())]),
            lit_row(&[("B", Con::float())]),
        ));
        let t2 = Con::record(lit_row(&[("B", Con::float()), ("A", Con::int())]));
        assert!(defeq(&env, &mut cx, &t1, &t2));
    }

    #[test]
    fn eta_equality() {
        let (mut env, mut cx) = setup();
        let f = Sym::fresh("f");
        env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
        let a = Sym::fresh("a");
        let eta = Con::lam(
            a,
            Kind::Type,
            Con::app(Con::var(&f), Con::var(&a)),
        );
        assert!(defeq(&env, &mut cx, &eta, &Con::var(&f)));
    }
}
