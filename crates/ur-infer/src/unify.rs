//! Unification of kinds and constructors (paper §4.2–4.3).
//!
//! The overall strategy follows the paper:
//!
//! * constructors are reduced only to *head normal form*, and head normal
//!   forms are compared structurally, recursing into subterms (§4);
//! * when a row operator appears at the head, a special **row
//!   unification** procedure takes over (§4.3): both sides are summarized
//!   into canonical multisets (fields, metavariables, miscellaneous
//!   neutral components), matching components are crossed off, and a
//!   handful of endgame rules solve the remaining metavariables;
//! * problems of the form `map f ?a = c` are solved by
//!   **reverse-engineering unification** (§4.2): the shape of `c` dictates
//!   a skeleton for `?a`, and the mapped function is unified against each
//!   field value;
//! * anything still undetermined is *postponed*, to be retried after other
//!   constraints have solved more metavariables (§4).
//!
//! Unification is destructive (solutions are written into the
//! [`MetaCx`](ur_core::meta::MetaCx)); per the paper this is a heuristic,
//! best-effort engine with no completeness claim.

use ur_core::con::{Con, MetaId, RCon};
use ur_core::defeq::defeq;
use ur_core::env::Env;
use ur_core::hnf::{hnf, is_row_shaped};
use ur_core::kind::Kind;
use ur_core::row::{normalize_row, FieldKey, RowAtom};
use ur_core::subst::subst;
use ur_core::Cx;

/// Outcome of a unification attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum Unify {
    /// The equation holds (possibly after solving metavariables).
    Solved,
    /// Cannot be decided yet; retry after more metavariables are solved.
    Postpone,
    /// Definitely unsolvable.
    Fail(String),
}

impl Unify {
    fn and(self, other: impl FnOnce() -> Unify) -> Unify {
        match self {
            Unify::Solved => other(),
            Unify::Postpone => match other() {
                Unify::Fail(e) => Unify::Fail(e),
                _ => Unify::Postpone,
            },
            fail => fail,
        }
    }
}

/// First-order kind unification.
///
/// # Errors
///
/// Returns a human-readable message when the kinds cannot be unified.
pub fn unify_kind(cx: &mut Cx, k1: &Kind, k2: &Kind) -> Result<(), String> {
    let k1 = cx.metas.resolve_kind(k1);
    let k2 = cx.metas.resolve_kind(k2);
    match (&k1, &k2) {
        (Kind::Type, Kind::Type) | (Kind::Name, Kind::Name) => Ok(()),
        (Kind::Meta(a), Kind::Meta(b)) if a == b => Ok(()),
        (Kind::Meta(a), _) => {
            if kind_occurs(cx, *a, &k2) {
                Err(format!("kind occurs check failed: {k1} in {k2}"))
            } else {
                cx.metas.solve_kind(*a, k2);
                Ok(())
            }
        }
        (_, Kind::Meta(b)) => {
            if kind_occurs(cx, *b, &k1) {
                Err(format!("kind occurs check failed: {k2} in {k1}"))
            } else {
                cx.metas.solve_kind(*b, k1);
                Ok(())
            }
        }
        (Kind::Arrow(a1, b1), Kind::Arrow(a2, b2))
        | (Kind::Pair(a1, b1), Kind::Pair(a2, b2)) => {
            unify_kind(cx, a1, a2)?;
            unify_kind(cx, b1, b2)
        }
        (Kind::Row(a), Kind::Row(b)) => unify_kind(cx, a, b),
        _ => Err(format!("cannot unify kind {k1} with {k2}")),
    }
}

fn kind_occurs(cx: &Cx, id: ur_core::kind::KMetaId, k: &Kind) -> bool {
    match cx.metas.resolve_kind(k) {
        Kind::Meta(m) => m == id,
        Kind::Arrow(a, b) | Kind::Pair(a, b) => {
            kind_occurs(cx, id, &a) || kind_occurs(cx, id, &b)
        }
        Kind::Row(a) => kind_occurs(cx, id, &a),
        Kind::Type | Kind::Name => false,
    }
}

/// Unifies two constructors in context `env`.
///
/// Fuel-bounded: each recursive unification step charges one level of
/// depth budget. On exhaustion the problem degrades to
/// [`Unify::Postpone`] — sound (nothing is solved) and reported by the
/// elaborator as a resource diagnostic instead of a stack overflow.
pub fn unify(env: &Env, cx: &mut Cx, c1: &RCon, c2: &RCon) -> Unify {
    if !cx.fuel.descend() {
        return Unify::Postpone;
    }
    let out = unify_inner(env, cx, c1, c2);
    cx.fuel.ascend();
    out
}

fn unify_inner(env: &Env, cx: &mut Cx, c1: &RCon, c2: &RCon) -> Unify {
    cx.stats.unify_calls += 1;
    // Hash-consing makes pointer identity a complete syntactic-equality
    // test, so identical handles solve without normalizing at all.
    if c1 == c2 {
        return Unify::Solved;
    }
    let c1 = hnf(env, cx, c1);
    let c2 = hnf(env, cx, c2);
    if c1 == c2 {
        return Unify::Solved;
    }

    // Row operators at the head: switch to row unification (§4.3).
    if is_row_shaped(env, cx, &c1) || is_row_shaped(env, cx, &c2) {
        return row_unify(env, cx, &c1, &c2);
    }

    // `folder r` against a polymorphic type: unfold the folder definition.
    if matches!(&*c2, Con::Poly(_, _, _)) {
        if let Some((k, r)) = ur_core::folder::as_folder_app(&c1) {
            let k = cx.metas.zonk_kind(&k);
            let unfolded = ur_core::folder::unfold_folder(&k, &r);
            return unify(env, cx, &unfolded, &c2);
        }
    }
    if matches!(&*c1, Con::Poly(_, _, _)) {
        if let Some((k, r)) = ur_core::folder::as_folder_app(&c2) {
            let k = cx.metas.zonk_kind(&k);
            let unfolded = ur_core::folder::unfold_folder(&k, &r);
            return unify(env, cx, &c1, &unfolded);
        }
    }

    match (&*c1, &*c2) {
        (Con::Meta(a), Con::Meta(b)) if a == b => Unify::Solved,
        (Con::Meta(m), _) => solve_meta(env, cx, *m, &c2),
        (_, Con::Meta(m)) => solve_meta(env, cx, *m, &c1),
        (Con::Var(a), Con::Var(b)) => {
            if a == b {
                Unify::Solved
            } else {
                Unify::Fail(format!("constructor variables {a} and {b} differ"))
            }
        }
        (Con::Prim(a), Con::Prim(b)) => {
            if a == b {
                Unify::Solved
            } else {
                Unify::Fail(format!("types {a} and {b} differ"))
            }
        }
        (Con::Name(a), Con::Name(b)) => {
            if a == b {
                Unify::Solved
            } else {
                Unify::Fail(format!("field names #{a} and #{b} differ"))
            }
        }
        (Con::Arrow(a1, b1), Con::Arrow(a2, b2)) => {
            unify(env, cx, a1, a2).and(|| unify(env, cx, b1, b2))
        }
        (Con::Poly(s1, k1, t1), Con::Poly(s2, k2, t2)) => {
            if let Err(e) = unify_kind(cx, k1, k2) {
                return Unify::Fail(e);
            }
            let fresh = s1.rename();
            let mut env2 = env.clone();
            env2.bind_con(fresh, cx.metas.zonk_kind(k1));
            let v = Con::var(&fresh);
            let b1 = subst(t1, s1, &v);
            let b2 = subst(t2, s2, &v);
            unify(&env2, cx, &b1, &b2)
        }
        (Con::Lam(s1, k1, t1), Con::Lam(s2, k2, t2)) => {
            if let Err(e) = unify_kind(cx, k1, k2) {
                return Unify::Fail(e);
            }
            let fresh = s1.rename();
            let mut env2 = env.clone();
            env2.bind_con(fresh, cx.metas.zonk_kind(k1));
            let v = Con::var(&fresh);
            let b1 = subst(t1, s1, &v);
            let b2 = subst(t2, s2, &v);
            unify(&env2, cx, &b1, &b2)
        }
        // One-sided eta.
        (Con::Lam(s, k, body), _) => eta_unify(env, cx, s, k, body, &c2),
        (_, Con::Lam(s, k, body)) => eta_unify(env, cx, s, k, body, &c1),
        (Con::Guarded(a1, b1, t1), Con::Guarded(a2, b2, t2)) => unify(env, cx, a1, a2)
            .and(|| unify(env, cx, b1, b2))
            .and(|| unify(env, cx, t1, t2)),
        (Con::Record(r1), Con::Record(r2)) => row_unify(env, cx, r1, r2),
        (Con::Map(k1a, k2a), Con::Map(k1b, k2b)) => {
            match unify_kind(cx, k1a, k1b).and_then(|_| unify_kind(cx, k2a, k2b)) {
                Ok(()) => Unify::Solved,
                Err(e) => Unify::Fail(e),
            }
        }
        (Con::Folder(k1), Con::Folder(k2)) => match unify_kind(cx, k1, k2) {
            Ok(()) => Unify::Solved,
            Err(e) => Unify::Fail(e),
        },
        (Con::Pair(a1, b1), Con::Pair(a2, b2)) => {
            unify(env, cx, a1, a2).and(|| unify(env, cx, b1, b2))
        }
        (Con::Fst(a), Con::Fst(b)) | (Con::Snd(a), Con::Snd(b)) => unify(env, cx, a, b),
        // A projection stuck on a metavariable: expand the metavariable to
        // a pair of fresh metavariables and retry (needed for the §2.2
        // toDb inference, where `fst ?p -> snd ?p = int -> int`).
        (Con::Fst(p), _) | (Con::Snd(p), _) => {
            if pair_expand(env, cx, p) {
                unify(env, cx, &c1, &c2)
            } else {
                Unify::Postpone
            }
        }
        (_, Con::Fst(p)) | (_, Con::Snd(p)) => {
            if pair_expand(env, cx, p) {
                unify(env, cx, &c1, &c2)
            } else {
                Unify::Postpone
            }
        }
        (Con::App(_, _), Con::App(_, _)) => {
            let (h1, args1) = c1.spine();
            let (h2, args2) = c2.spine();
            let h1 = hnf(env, cx, &h1);
            let h2 = hnf(env, cx, &h2);
            // A metavariable in head position is a higher-order problem;
            // per the paper we make no attempt beyond first-order matching.
            if h1.is_meta() || h2.is_meta() {
                return Unify::Postpone;
            }
            if args1.len() != args2.len() {
                return Unify::Postpone;
            }
            let mut out = unify(env, cx, &h1, &h2);
            for (a1, a2) in args1.iter().zip(args2.iter()) {
                out = out.and(|| unify(env, cx, a1, a2));
            }
            out
        }
        // An application headed by a metavariable against a non-application.
        (Con::App(_, _), _) | (_, Con::App(_, _)) => {
            let (h1, _) = c1.spine();
            let (h2, _) = c2.spine();
            if hnf(env, cx, &h1).is_meta() || hnf(env, cx, &h2).is_meta() {
                Unify::Postpone
            } else {
                Unify::Fail(format!("cannot unify {c1} with {c2}"))
            }
        }
        _ => Unify::Fail(format!("cannot unify {c1} with {c2}")),
    }
}

fn eta_unify(
    env: &Env,
    cx: &mut Cx,
    s: &ur_core::sym::Sym,
    k: &Kind,
    body: &RCon,
    other: &RCon,
) -> Unify {
    if other.is_meta() {
        // Solving a metavariable to a lambda is fine; retried by callers.
        if let Con::Meta(m) = &**other {
            let lam = Con::lam(*s, k.clone(), *body);
            return solve_meta(env, cx, *m, &lam);
        }
    }
    let fresh = s.rename();
    let mut env2 = env.clone();
    env2.bind_con(fresh, cx.metas.zonk_kind(k));
    let v = Con::var(&fresh);
    let b = subst(body, s, &v);
    let expanded = Con::app(*other, v);
    unify(&env2, cx, &b, &expanded)
}

/// If `p` head-normalizes to a metavariable of pair kind, solves it to a
/// pair of fresh metavariables. Returns whether any solving happened.
fn pair_expand(env: &Env, cx: &mut Cx, p: &RCon) -> bool {
    let p = hnf(env, cx, p);
    let Con::Meta(m) = &*p else { return false };
    let kind = cx.metas.resolve_kind(&cx.metas.kind_of(*m).clone());
    let Kind::Pair(ka, kb) = kind else { return false };
    let a = cx.metas.fresh_con((*ka).clone(), "pair component");
    let b = cx.metas.fresh_con((*kb).clone(), "pair component");
    cx.metas.solve(*m, Con::pair(a, b));
    true
}

/// Solves metavariable `m := c`, with occurs check.
fn solve_meta(env: &Env, cx: &mut Cx, m: MetaId, c: &RCon) -> Unify {
    let _ = env;
    let c = cx.metas.zonk(c);
    if cx.metas.occurs(m, &c) {
        return Unify::Fail(format!(
            "occurs check: ?{} would be cyclic in {c}",
            m.0
        ));
    }
    cx.metas.solve(m, c);
    Unify::Solved
}

/// Builds a row constructor from leftover fields and atoms at element kind
/// `k`, preserving field order.
fn rebuild_row(k: &Kind, fields: &[(FieldKey, RCon)], atoms: &[RowAtom]) -> RCon {
    let mut parts: Vec<RCon> = Vec::new();
    for (key, v) in fields {
        parts.push(Con::row_one(key.to_con(), *v));
    }
    for atom in atoms {
        parts.push(atom.to_con(k));
    }
    let mut it = parts.into_iter();
    match it.next() {
        None => Con::row_nil(k.clone()),
        Some(first) => it.fold(first, Con::row_cat),
    }
}

/// Row unification (§4.3), on canonical summaries.
#[allow(clippy::needless_range_loop)] // index used for paired removal
pub fn row_unify(env: &Env, cx: &mut Cx, r1: &RCon, r2: &RCon) -> Unify {
    let n1 = normalize_row(env, cx, r1);
    let n2 = normalize_row(env, cx, r2);
    let k = n1
        .elem_kind
        .clone()
        .or(n2.elem_kind.clone())
        .unwrap_or(Kind::Type);

    // Work in source order so that metavariable solutions preserve the
    // order fields were written — §4.4 relies on this for folder
    // generation.
    let mut f1 = n1.source_fields.clone();
    let mut f2 = n2.source_fields.clone();
    let mut a1 = n1.atoms.clone();
    let mut a2 = n2.atoms.clone();

    // 1. Cross off matching fields, unifying their values.
    let mut i = 0;
    let mut pending_values = false;
    while i < f1.len() {
        let mut matched = None;
        for j in 0..f2.len() {
            let keys_match = match (&f1[i].0, &f2[j].0) {
                (FieldKey::Lit(a), FieldKey::Lit(b)) => a == b,
                (FieldKey::Neutral(a), FieldKey::Neutral(b)) => {
                    let (a, b) = ((*a), (*b));
                    defeq(env, cx, &a, &b)
                }
                _ => false,
            };
            if keys_match {
                matched = Some(j);
                break;
            }
        }
        match matched {
            Some(j) => {
                let v1 = f1[i].1;
                let v2 = f2[j].1;
                match unify(env, cx, &v1, &v2) {
                    Unify::Solved => {}
                    Unify::Postpone => pending_values = true,
                    fail @ Unify::Fail(_) => return fail,
                }
                f1.remove(i);
                f2.remove(j);
            }
            None => i += 1,
        }
    }
    if pending_values {
        return Unify::Postpone;
    }

    // 2. Cross off matching atoms.
    let mut i = 0;
    while i < a1.len() {
        let mut matched = None;
        for j in 0..a2.len() {
            let (b1, b2) = (a1[i].base, a2[j].base);
            if !defeq(env, cx, &b1, &b2) {
                continue;
            }
            let maps_eq = match (&a1[i].map, &a2[j].map) {
                (None, None) => true,
                (Some((g1, _)), Some((g2, _))) => {
                    let (g1, g2) = ((*g1), (*g2));
                    defeq(env, cx, &g1, &g2)
                }
                _ => false,
            };
            if maps_eq {
                matched = Some(j);
                break;
            }
        }
        match matched {
            Some(j) => {
                a1.remove(i);
                a2.remove(j);
            }
            None => i += 1,
        }
    }

    // 3. Endgame rules.
    if f1.is_empty() && a1.is_empty() && f2.is_empty() && a2.is_empty() {
        return Unify::Solved;
    }

    // A single bare metavariable on one side takes the whole other side.
    if let Some(m) = bare_meta(&f1, &a1) {
        return solve_meta(env, cx, m, &rebuild_row(&k, &f2, &a2));
    }
    if let Some(m) = bare_meta(&f2, &a2) {
        return solve_meta(env, cx, m, &rebuild_row(&k, &f1, &a1));
    }

    // fields1 ++ ?m1  =  fields2 ++ ?m2   (distinct metas, no other atoms):
    // introduce a shared remainder.
    if let (Some(m1), Some(m2)) = (tail_meta(&a1), tail_meta(&a2)) {
        if m1 != m2
            && a1.len() == 1
            && a2.len() == 1
            && all_lit(&f1)
            && all_lit(&f2)
        {
            let gamma = cx.metas.fresh_con(Kind::row(k.clone()), "row remainder");
            let sol1 = if f2.is_empty() {
                gamma
            } else {
                Con::row_cat(rebuild_row(&k, &f2, &[]), gamma)
            };
            let sol2 = if f1.is_empty() {
                gamma
            } else {
                Con::row_cat(rebuild_row(&k, &f1, &[]), gamma)
            };
            let out = solve_meta(env, cx, m1, &sol1);
            return out.and(|| solve_meta(env, cx, m2, &sol2));
        }
    }

    // Reverse-engineering (§4.2): map f ?m  =  ground fields.
    if f1.is_empty() && a1.len() == 1 && a2.is_empty() {
        if let Some(out) = try_reverse(env, cx, &a1[0], &f2) {
            return out;
        }
    }
    if f2.is_empty() && a2.len() == 1 && a1.is_empty() {
        if let Some(out) = try_reverse(env, cx, &a2[0], &f1) {
            return out;
        }
    }

    // map f ?m  =  map f ?m2 (+ nothing else): unify the bases.
    if f1.is_empty() && f2.is_empty() && a1.len() == 1 && a2.len() == 1 {
        if let (Some((g1, _)), Some((g2, _))) = (&a1[0].map, &a2[0].map) {
            let (g1, g2) = ((*g1), (*g2));
            if defeq(env, cx, &g1, &g2) {
                let (b1, b2) = (a1[0].base, a2[0].base);
                return unify(env, cx, &b1, &b2);
            }
        }
    }

    // Definitely stuck with no metavariables anywhere: fail.
    let any_meta = a1.iter().any(|a| a.base_meta().is_some())
        || a2.iter().any(|a| a.base_meta().is_some())
        || !all_lit(&f1)
        || !all_lit(&f2);
    if !any_meta && (a1.is_empty() && a2.is_empty()) {
        return Unify::Fail(format!(
            "rows do not match: leftover fields {} vs {}",
            rebuild_row(&k, &f1, &a1),
            rebuild_row(&k, &f2, &a2)
        ));
    }

    Unify::Postpone
}

/// If the component lists are exactly one unmapped metavariable, return it.
fn bare_meta(fields: &[(FieldKey, RCon)], atoms: &[RowAtom]) -> Option<MetaId> {
    if fields.is_empty() && atoms.len() == 1 && atoms[0].map.is_none() {
        atoms[0].base_meta()
    } else {
        None
    }
}

/// The metavariable of a single unmapped atom, if any.
fn tail_meta(atoms: &[RowAtom]) -> Option<MetaId> {
    if atoms.len() == 1 && atoms[0].map.is_none() {
        atoms[0].base_meta()
    } else {
        None
    }
}

fn all_lit(fields: &[(FieldKey, RCon)]) -> bool {
    fields.iter().all(|(k, _)| matches!(k, FieldKey::Lit(_)))
}

/// Reverse-engineering unification: `map f ?m = [k1 = v1, ...]`.
/// Chooses `?m := [k1 = ?a1, ...]` and unifies `f ?ai` with `vi`.
fn try_reverse(
    env: &Env,
    cx: &mut Cx,
    atom: &RowAtom,
    ground: &[(FieldKey, RCon)],
) -> Option<Unify> {
    let (f, dom) = atom.map.as_ref()?;
    let m = atom.base_meta()?;
    let mut skeleton = Vec::new();
    let mut elems = Vec::new();
    for (key, v) in ground {
        let a = cx.metas.fresh_con(dom.clone(), "reverse-engineered element");
        skeleton.push((key.clone(), a));
        elems.push((a, (*v)));
    }
    let sol = rebuild_row(dom, &skeleton, &[]);
    match solve_meta(env, cx, m, &sol) {
        Unify::Solved => {}
        other => return Some(other),
    }
    cx.stats.reverse_engineered += 1;
    let mut out = Unify::Solved;
    for (a, v) in elems {
        let applied = Con::app(*f, a);
        out = out.and(|| unify(env, cx, &applied, &v));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ur_core::sym::Sym;

    fn setup() -> (Env, Cx) {
        (Env::new(), Cx::new())
    }

    fn lit_row(fields: &[(&str, RCon)]) -> RCon {
        Con::row_of(
            Kind::Type,
            fields
                .iter()
                .map(|(n, c)| (Con::name(*n), (*c)))
                .collect(),
        )
    }

    #[test]
    fn unify_prims() {
        let (env, mut cx) = setup();
        assert_eq!(unify(&env, &mut cx, &Con::int(), &Con::int()), Unify::Solved);
        assert!(matches!(
            unify(&env, &mut cx, &Con::int(), &Con::float()),
            Unify::Fail(_)
        ));
    }

    #[test]
    fn solve_simple_meta() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh_con(Kind::Type, "t");
        assert_eq!(unify(&env, &mut cx, &m, &Con::int()), Unify::Solved);
        let z = cx.metas.zonk(&m);
        assert!(matches!(&*z, Con::Prim(ur_core::con::PrimType::Int)));
    }

    #[test]
    fn occurs_check_fails() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh_con(Kind::Type, "t");
        let arrow = Con::arrow(m, Con::int());
        assert!(matches!(
            unify(&env, &mut cx, &m, &arrow),
            Unify::Fail(_)
        ));
    }

    #[test]
    fn row_meta_takes_whole_row() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh_con(Kind::row(Kind::Type), "r");
        let row = lit_row(&[("A", Con::int()), ("B", Con::float())]);
        assert_eq!(unify(&env, &mut cx, &m, &row), Unify::Solved);
        let z = cx.metas.zonk(&m);
        assert!(defeq(&env, &mut cx, &z, &row));
    }

    #[test]
    fn row_field_cancellation_solves_value_metas() {
        // [A = ?t] ++ ?r  =  [A = int, B = float]
        let (env, mut cx) = setup();
        let t = cx.metas.fresh_con(Kind::Type, "t");
        let r = cx.metas.fresh_con(Kind::row(Kind::Type), "r");
        let left = Con::row_cat(Con::row_one(Con::name("A"), t), r);
        let right = lit_row(&[("A", Con::int()), ("B", Con::float())]);
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        assert!(matches!(
            &*cx.metas.zonk(&t),
            Con::Prim(ur_core::con::PrimType::Int)
        ));
        let zr = cx.metas.zonk(&r);
        let expected = lit_row(&[("B", Con::float())]);
        assert!(defeq(&env, &mut cx, &zr, &expected));
    }

    #[test]
    fn row_mismatched_closed_rows_fail() {
        let (env, mut cx) = setup();
        let r1 = lit_row(&[("A", Con::int())]);
        let r2 = lit_row(&[("B", Con::int())]);
        assert!(matches!(unify(&env, &mut cx, &r1, &r2), Unify::Fail(_)));
    }

    #[test]
    fn row_value_type_conflict_fails() {
        let (env, mut cx) = setup();
        let r1 = lit_row(&[("A", Con::int())]);
        let r2 = lit_row(&[("A", Con::float())]);
        assert!(matches!(unify(&env, &mut cx, &r1, &r2), Unify::Fail(_)));
    }

    #[test]
    fn two_tail_metas_share_remainder() {
        // [A = int] ++ ?m1  =  [B = float] ++ ?m2
        let (env, mut cx) = setup();
        let m1 = cx.metas.fresh_con(Kind::row(Kind::Type), "m1");
        let m2 = cx.metas.fresh_con(Kind::row(Kind::Type), "m2");
        let left = Con::row_cat(lit_row(&[("A", Con::int())]), m1);
        let right = Con::row_cat(lit_row(&[("B", Con::float())]), m2);
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        // Now both sides should be definitionally equal.
        assert!(defeq(&env, &mut cx, &left, &right));
    }

    #[test]
    fn reverse_engineering_simple() {
        // map (fn a => a -> a) ?r  =  [A = int -> int]  ==>  ?r = [A = int]
        let (env, mut cx) = setup();
        let r = cx.metas.fresh_con(Kind::row(Kind::Type), "r");
        let a = Sym::fresh("a");
        let f = Con::lam(
            a,
            Kind::Type,
            Con::arrow(Con::var(&a), Con::var(&a)),
        );
        let left = Con::map_app(Kind::Type, Kind::Type, f, r);
        let right = lit_row(&[("A", Con::arrow(Con::int(), Con::int()))]);
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        assert!(cx.stats.reverse_engineered >= 1);
        let zr = cx.metas.zonk(&r);
        let expected = lit_row(&[("A", Con::int())]);
        assert!(defeq(&env, &mut cx, &zr, &expected));
    }

    #[test]
    fn reverse_engineering_through_definition() {
        // The paper's mkTable inference: $(map meta ?r) = {A : {...int...}}.
        // type meta t = {Label : string, Show : t -> string}
        let (mut env, mut cx) = setup();
        let t = Sym::fresh("t");
        let meta_def = Con::lam(
            t,
            Kind::Type,
            Con::record(Con::row_of(
                Kind::Type,
                vec![
                    (Con::name("Label"), Con::string()),
                    (
                        Con::name("Show"),
                        Con::arrow(Con::var(&t), Con::string()),
                    ),
                ],
            )),
        );
        let meta_sym = Sym::fresh("meta");
        env.define_con(
            meta_sym,
            Kind::arrow(Kind::Type, Kind::Type),
            meta_def,
        );

        let r = cx.metas.fresh_con(Kind::row(Kind::Type), "r");
        let left = Con::record(Con::map_app(
            Kind::Type,
            Kind::Type,
            Con::var(&meta_sym),
            r,
        ));
        // {A : meta int, B : meta float} fully unfolded:
        let meta_at = |ty: RCon| {
            Con::record(Con::row_of(
                Kind::Type,
                vec![
                    (Con::name("Label"), Con::string()),
                    (Con::name("Show"), Con::arrow(ty, Con::string())),
                ],
            ))
        };
        let right = Con::record(lit_row(&[
            ("A", meta_at(Con::int())),
            ("B", meta_at(Con::float())),
        ]));
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        let zr = cx.metas.zonk(&r);
        let expected = lit_row(&[("A", Con::int()), ("B", Con::float())]);
        assert!(defeq(&env, &mut cx, &zr, &expected));
    }

    #[test]
    fn reverse_engineering_preserves_source_order() {
        // map f ?r = [B = ..., A = ...] written in that order: the solution
        // for ?r must keep B before A (drives folder generation, §4.4).
        let (env, mut cx) = setup();
        let r = cx.metas.fresh_con(Kind::row(Kind::Type), "r");
        let a = Sym::fresh("a");
        let f = Con::lam(
            a,
            Kind::Type,
            Con::arrow(Con::var(&a), Con::var(&a)),
        );
        let left = Con::map_app(Kind::Type, Kind::Type, f, r);
        let right = lit_row(&[
            ("B", Con::arrow(Con::float(), Con::float())),
            ("A", Con::arrow(Con::int(), Con::int())),
        ]);
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        let zr = cx.metas.zonk(&r);
        let nf = normalize_row(&env, &mut cx, &zr);
        let order: Vec<String> = nf
            .source_fields
            .iter()
            .map(|(k, _)| k.canon())
            .collect();
        assert_eq!(order, vec!["#B".to_string(), "#A".to_string()]);
    }

    #[test]
    fn neutral_key_fields_unify() {
        // [nm = ?t] = [nm = int] under a bound name variable nm.
        let (mut env, mut cx) = setup();
        let nm = Sym::fresh("nm");
        env.bind_con(nm, Kind::Name);
        let t = cx.metas.fresh_con(Kind::Type, "t");
        let left = Con::row_one(Con::var(&nm), t);
        let right = Con::row_one(Con::var(&nm), Con::int());
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        assert!(matches!(
            &*cx.metas.zonk(&t),
            Con::Prim(ur_core::con::PrimType::Int)
        ));
    }

    #[test]
    fn rigid_head_applications_unify_pointwise() {
        let (mut env, mut cx) = setup();
        let tf = Sym::fresh("tf");
        env.bind_con(tf, Kind::arrow(Kind::row(Kind::Type), Kind::Type));
        let m = cx.metas.fresh_con(Kind::row(Kind::Type), "r");
        let left = Con::app(Con::var(&tf), m);
        let right = Con::app(Con::var(&tf), lit_row(&[("A", Con::int())]));
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        let z = cx.metas.zonk(&m);
        assert!(defeq(&env, &mut cx, &z, &lit_row(&[("A", Con::int())])));
    }

    #[test]
    fn meta_headed_application_postpones() {
        let (env, mut cx) = setup();
        let f = cx.metas.fresh_con(Kind::arrow(Kind::Type, Kind::Type), "f");
        let left = Con::app(f, Con::int());
        assert_eq!(
            unify(&env, &mut cx, &left, &Con::string()),
            Unify::Postpone
        );
    }

    #[test]
    fn kind_unification() {
        let mut cx = Cx::new();
        let k = cx.metas.fresh_kind();
        assert!(unify_kind(&mut cx, &k, &Kind::row(Kind::Type)).is_ok());
        assert_eq!(cx.metas.resolve_kind(&k), Kind::row(Kind::Type));
        assert!(unify_kind(&mut cx, &Kind::Type, &Kind::Name).is_err());
    }

    #[test]
    fn kind_occurs_check() {
        let mut cx = Cx::new();
        let k = cx.metas.fresh_kind();
        let arrow = Kind::arrow(k.clone(), Kind::Type);
        assert!(unify_kind(&mut cx, &k, &arrow).is_err());
    }

    #[test]
    fn fusion_corollary_unifies() {
        // $(map (fn p => exp [] p.2) ?r) vs $(map (exp []) (map snd ?r)):
        // with ?r shared this is the §2.2 implicit equality.
        let (mut env, mut cx) = setup();
        let exp = Sym::fresh("exp");
        env.bind_con(
            exp,
            Kind::arrow(Kind::row(Kind::Type), Kind::arrow(Kind::Type, Kind::Type)),
        );
        let pair_k = Kind::pair(Kind::Type, Kind::Type);
        let r = Sym::fresh("r");
        env.bind_con(r, Kind::row(pair_k.clone()));
        let exp_nil = Con::app(Con::var(&exp), Con::row_nil(Kind::Type));
        let p = Sym::fresh("p");
        let lam = Con::lam(
            p,
            pair_k.clone(),
            Con::app(exp_nil, Con::snd(Con::var(&p))),
        );
        let left = Con::record(Con::map_app(pair_k.clone(), Kind::Type, lam, Con::var(&r)));
        let q = Sym::fresh("q");
        let snd_fn = Con::lam(q, pair_k.clone(), Con::snd(Con::var(&q)));
        let inner = Con::map_app(pair_k.clone(), Kind::Type, snd_fn, Con::var(&r));
        let right = Con::record(Con::map_app(Kind::Type, Kind::Type, exp_nil, inner));
        assert_eq!(unify(&env, &mut cx, &left, &right), Unify::Solved);
        assert!(cx.stats.law_map_fusion >= 1);
    }
}
