//! Automatic proof of row disjointness (paper §4.1).
//!
//! Following the paper, each side of an assumption or goal `r1 ~ r2` is
//! decomposed by a function `D` into a finite set of atomic *pieces*:
//!
//! ```text
//! D([c1 = c2])  = { [c1] }          (a singleton name)
//! D(c1 ++ c2)   = D(c1) ∪ D(c2)
//! D(x)          = { x }             (a neutral row)
//! D(map f c)    = D(c)
//! D([])         = ∅
//! ```
//!
//! Known constraints contribute the symmetric Cartesian product of their
//! decompositions to a fact database; a goal is proved when every cross
//! pair of its decompositions is either two distinct literal names or is
//! found in the database. A pair of *equal* literal names refutes the goal
//! outright, and an unsolved metavariable in goal position means "not
//! provable yet" — the inference engine re-queues such goals (§4.1: "we
//! hope that when we revisit this constraint after solving other
//! constraints first, some unification variables will have been
//! determined").

use crate::arena::IStr;
use crate::con::RCon;
use crate::defeq::defeq;
use crate::env::Env;
use crate::row::{normalize_row, FieldKey};
use crate::Cx;

/// An atomic piece of a decomposed row.
#[derive(Clone, Debug)]
pub enum Piece {
    /// A literal field name.
    Name(IStr),
    /// A neutral constructor: either a name-kinded neutral (from a field
    /// with a variable name) or a row-kinded neutral (an abstract row).
    Neutral(RCon),
}

/// Outcome of a disjointness proof attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProveResult {
    /// The goal is proved.
    Proved,
    /// The goal cannot be decided yet (unsolved metavariables or missing
    /// facts); it may become provable after more unification.
    NotYet,
    /// The goal is definitely false: both sides contain the same literal
    /// name.
    Refuted,
}

/// Decomposes a row into atomic pieces. Returns `None` if the row contains
/// an unsolved metavariable (so decomposition is incomplete), along with
/// the pieces found so far.
pub fn decompose(env: &Env, cx: &mut Cx, c: &RCon) -> (Vec<Piece>, bool) {
    let nf = normalize_row(env, cx, c);
    let mut pieces = Vec::new();
    let mut complete = true;
    for (key, _) in &nf.fields {
        match key {
            FieldKey::Lit(n) => pieces.push(Piece::Name(*n)),
            FieldKey::Neutral(c) => pieces.push(Piece::Neutral(*c)),
        }
    }
    for atom in &nf.atoms {
        // D(map f c) = D(c): the atom's base, ignoring any map.
        if atom.base_meta().is_some() {
            complete = false;
        }
        pieces.push(Piece::Neutral(atom.base));
    }
    (pieces, complete)
}

fn pieces_eq(env: &Env, cx: &mut Cx, a: &Piece, b: &Piece) -> bool {
    match (a, b) {
        (Piece::Name(x), Piece::Name(y)) => x == y,
        (Piece::Neutral(x), Piece::Neutral(y)) => defeq(env, cx, x, y),
        _ => false,
    }
}

/// The fact database: all atomic disjointness pairs implied by the
/// context's assumptions.
pub struct FactDb {
    facts: Vec<(Piece, Piece)>,
}

impl FactDb {
    /// Builds the database from the assumptions recorded in `env`,
    /// decomposing each side and taking the symmetric Cartesian product.
    pub fn from_env(env: &Env, cx: &mut Cx) -> FactDb {
        let mut facts = Vec::new();
        for (c1, c2) in env.facts().to_vec() {
            let (p1, _) = decompose(env, cx, &c1);
            let (p2, _) = decompose(env, cx, &c2);
            for a in &p1 {
                for b in &p2 {
                    // Fuel-bounded: a truncated database only loses facts,
                    // so goals degrade to `NotYet`, never to `Proved`.
                    if !cx.fuel.prover_pair() {
                        return FactDb { facts };
                    }
                    facts.push((a.clone(), b.clone()));
                    facts.push((b.clone(), a.clone()));
                }
            }
        }
        FactDb { facts }
    }

    /// Checks whether `a ~ b` is a recorded atomic fact.
    pub fn contains(&self, env: &Env, cx: &mut Cx, a: &Piece, b: &Piece) -> bool {
        self.facts
            .iter()
            .any(|(fa, fb)| pieces_eq(env, cx, fa, a) && pieces_eq(env, cx, fb, b))
    }

    /// Number of atomic facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts are recorded.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// Attempts to prove the disjointness goal `c1 ~ c2` under `env`'s
/// assumptions. Increments the Figure-5 "Disj." counter.
///
/// Memoized (see [`crate::memo`]) on the unordered pair of canonical
/// intern ids — the prover is symmetric in its two sides. `Proved` and
/// `Refuted` verdicts are stable under further meta solving; `NotYet` is
/// exactly the verdict revisited after more unification, so it is
/// generation-guarded. The call counter is charged before the lookup so
/// Figure-5 "Disj." still counts prover *invocations*.
pub fn prove(env: &Env, cx: &mut Cx, c1: &RCon, c2: &RCon) -> ProveResult {
    cx.stats.disjoint_prover_calls += 1;
    let key = if cx.memo.enabled {
        cx.memo.check_laws(cx.laws);
        let (i1, i2) = (*c1, *c2);
        let (env_gen, meta_gen) = (env.generation(), cx.metas.generation());
        if let Some(out) = cx.memo.disjoint_get(i1, i2, env_gen, meta_gen) {
            cx.stats.disjoint_memo_hits += 1;
            let _ = cx.fuel.prover_pair();
            return out;
        }
        cx.stats.disjoint_memo_misses += 1;
        Some((i1, i2, env_gen))
    } else {
        None
    };
    let out = prove_uncached(env, cx, c1, c2);
    if let Some((i1, i2, env_gen)) = key {
        if cx.fuel.exhausted().is_none() {
            cx.memo.disjoint_put(i1, i2, env_gen, cx.metas.generation(), out);
        }
    }
    out
}

fn prove_uncached(env: &Env, cx: &mut Cx, c1: &RCon, c2: &RCon) -> ProveResult {
    let (p1, complete1) = decompose(env, cx, c1);
    let (p2, complete2) = decompose(env, cx, c2);
    let db = FactDb::from_env(env, cx);

    let mut pending = false;
    for a in &p1 {
        for b in &p2 {
            // Fuel-bounded: wide goals (≥5k fields per side mean ≥25M
            // pairs) bail out with `NotYet`; the elaborator reports the
            // exhaustion as a resource diagnostic.
            if !cx.fuel.prover_pair() {
                return ProveResult::NotYet;
            }
            match (a, b) {
                (Piece::Name(x), Piece::Name(y)) => {
                    if x == y {
                        return ProveResult::Refuted;
                    }
                }
                _ => {
                    if !db.contains(env, cx, a, b) {
                        pending = true;
                    }
                }
            }
        }
    }
    // Unproved neutral pairs may become provable after more unification,
    // and an incomplete decomposition (unsolved metavariable) may still
    // hide shared names; both mean "not yet".
    if pending || !complete1 || !complete2 {
        return ProveResult::NotYet;
    }
    ProveResult::Proved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::Con;
    use crate::kind::Kind;
    use crate::sym::Sym;

    fn setup() -> (Env, Cx) {
        (Env::new(), Cx::new())
    }

    fn lit_row(names: &[&str]) -> RCon {
        Con::row_of(
            Kind::Type,
            names
                .iter()
                .map(|n| (Con::name(*n), Con::int()))
                .collect(),
        )
    }

    #[test]
    fn distinct_literal_names_proved() {
        let (env, mut cx) = setup();
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A", "B"]), &lit_row(&["C"])),
            ProveResult::Proved
        );
        assert_eq!(cx.stats.disjoint_prover_calls, 1);
    }

    #[test]
    fn shared_literal_name_refuted() {
        let (env, mut cx) = setup();
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A", "B"]), &lit_row(&["B", "C"])),
            ProveResult::Refuted
        );
    }

    #[test]
    fn abstract_rows_need_facts() {
        let (mut env, mut cx) = setup();
        let r = Sym::fresh("r");
        env.bind_con(r, Kind::row(Kind::Type));
        // Goal [A] ~ r with no assumption: not provable yet.
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A"]), &Con::var(&r)),
            ProveResult::NotYet
        );
        // With the assumption [A] ~ r in context, it is proved.
        env.assume_disjoint(lit_row(&["A"]), Con::var(&r));
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A"]), &Con::var(&r)),
            ProveResult::Proved
        );
    }

    #[test]
    fn facts_decompose_concatenations() {
        // Assume ([A] ++ [B]) ~ (r1 ++ r2); then [B] ~ r1 follows.
        let (mut env, mut cx) = setup();
        let r1 = Sym::fresh("r1");
        let r2 = Sym::fresh("r2");
        env.bind_con(r1, Kind::row(Kind::Type));
        env.bind_con(r2, Kind::row(Kind::Type));
        env.assume_disjoint(
            lit_row(&["A", "B"]),
            Con::row_cat(Con::var(&r1), Con::var(&r2)),
        );
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["B"]), &Con::var(&r1)),
            ProveResult::Proved
        );
        assert_eq!(
            prove(&env, &mut cx, &Con::var(&r2), &lit_row(&["A"])),
            ProveResult::Proved
        );
    }

    #[test]
    fn map_is_transparent_to_disjointness() {
        // Assume [A] ~ r; then [A] ~ map f r follows, since D(map f r) = D(r).
        let (mut env, mut cx) = setup();
        let r = Sym::fresh("r");
        let f = Sym::fresh("f");
        env.bind_con(r, Kind::row(Kind::Type));
        env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
        env.assume_disjoint(lit_row(&["A"]), Con::var(&r));
        let mapped = Con::map_app(Kind::Type, Kind::Type, Con::var(&f), Con::var(&r));
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A"]), &mapped),
            ProveResult::Proved
        );
    }

    #[test]
    fn selector_style_composition() {
        // The §2.3 accumulator: from facts [nm] ~ r and rest ~ r, prove
        // ([nm = t] ++ rest) ~ r.
        let (mut env, mut cx) = setup();
        let nm = Sym::fresh("nm");
        let r = Sym::fresh("r");
        let rest = Sym::fresh("rest");
        env.bind_con(nm, Kind::Name);
        env.bind_con(r, Kind::row(Kind::Type));
        env.bind_con(rest, Kind::row(Kind::Type));
        let single = Con::row_one(Con::var(&nm), Con::int());
        env.assume_disjoint(single, Con::var(&r));
        env.assume_disjoint(Con::var(&rest), Con::var(&r));
        let goal_left = Con::row_cat(single, Con::var(&rest));
        assert_eq!(
            prove(&env, &mut cx, &goal_left, &Con::var(&r)),
            ProveResult::Proved
        );
    }

    #[test]
    fn unsolved_meta_defers() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh(Kind::row(Kind::Type), "r");
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A"]), &Con::meta(m)),
            ProveResult::NotYet
        );
        // Once solved to something disjoint, the goal is proved.
        cx.metas.solve(m, lit_row(&["B"]));
        assert_eq!(
            prove(&env, &mut cx, &lit_row(&["A"]), &Con::meta(m)),
            ProveResult::Proved
        );
    }

    #[test]
    fn empty_rows_trivially_disjoint() {
        let (env, mut cx) = setup();
        assert_eq!(
            prove(
                &env,
                &mut cx,
                &Con::row_nil(Kind::Type),
                &lit_row(&["A", "B"])
            ),
            ProveResult::Proved
        );
    }

    #[test]
    fn prover_calls_are_counted() {
        let (env, mut cx) = setup();
        for _ in 0..5 {
            let _ = prove(&env, &mut cx, &lit_row(&["A"]), &lit_row(&["B"]));
        }
        assert_eq!(cx.stats.disjoint_prover_calls, 5);
    }
}
