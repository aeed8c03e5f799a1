//! Typing contexts.
//!
//! A single context `G` carries, as in the paper (§3.2): kinding assertions
//! `a :: k` (with an optional transparent definition, for `type`
//! declarations), typing assertions `x : t`, and row disjointness
//! assumptions `c1 ~ c2`.

use crate::con::RCon;
use crate::kind::Kind;
use crate::sym::Sym;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global supply of semantic generations. Generation 0 is reserved for
/// the empty context; every *mutation* that the memoized judgments can
/// observe stamps the env with a fresh number, so two envs sharing a
/// generation are guaranteed to agree on constructor bindings and
/// disjointness facts.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique semantic generation. Public so tests (and any
/// embedder building synthetic envs) can reserve generations that no real
/// env will ever carry.
pub fn fresh_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// Binding of a constructor variable: its kind and, when transparent, its
/// definition (unfolded on demand during head normalization).
#[derive(Clone, Debug)]
pub struct CBind {
    pub kind: Kind,
    pub def: Option<RCon>,
}

/// A typing context. Cloning is cheap enough at our scale; scopes are
/// handled by clone-and-extend.
///
/// Each env carries a *semantic generation* used as a memo-table key
/// component (see [`crate::memo`]): clones share their source's
/// generation, and any mutation visible to the memoized judgments —
/// constructor bindings and disjointness facts — stamps a fresh one.
/// Value bindings (`bind_val`) deliberately do **not** bump the
/// generation: `hnf`/`defeq`/row normalization/the prover never read
/// them, and top-level elaboration extends the global env with one `val`
/// per declaration, so keeping the generation stable across `bind_val`
/// is what makes cross-declaration cache hits possible.
#[derive(Clone, Debug, Default)]
pub struct Env {
    cons: HashMap<Sym, CBind>,
    vals: HashMap<Sym, RCon>,
    facts: Vec<(RCon, RCon)>,
    /// All empty envs are interchangeable, so they share generation 0
    /// (the `u64` default); [`fresh_gen`] starts at 1.
    sem_gen: u64,
}

impl Env {
    pub fn new() -> Env {
        Env::default()
    }

    /// The semantic generation: envs with equal generations have
    /// identical constructor bindings and disjointness facts.
    pub fn generation(&self) -> u64 {
        self.sem_gen
    }

    /// Adds an abstract constructor variable `a :: k`.
    pub fn bind_con(&mut self, a: Sym, k: Kind) {
        self.cons.insert(a, CBind { kind: k, def: None });
        self.sem_gen = fresh_gen();
    }

    /// Adds a transparent constructor definition `a :: k = c`.
    pub fn define_con(&mut self, a: Sym, k: Kind, c: RCon) {
        self.cons.insert(a, CBind { kind: k, def: Some(c) });
        self.sem_gen = fresh_gen();
    }

    /// Adds a value binding `x : t` (no generation bump; see type docs).
    pub fn bind_val(&mut self, x: Sym, t: RCon) {
        self.vals.insert(x, t);
    }

    /// Records a disjointness assumption `c1 ~ c2`.
    pub fn assume_disjoint(&mut self, c1: RCon, c2: RCon) {
        self.facts.push((c1, c2));
        self.sem_gen = fresh_gen();
    }

    /// Looks up a constructor variable.
    pub fn lookup_con(&self, a: &Sym) -> Option<&CBind> {
        self.cons.get(a)
    }

    /// Looks up a value variable's type.
    pub fn lookup_val(&self, x: &Sym) -> Option<&RCon> {
        self.vals.get(x)
    }

    /// All recorded disjointness assumptions.
    pub fn facts(&self) -> &[(RCon, RCon)] {
        &self.facts
    }

    /// Iterates over all value bindings.
    pub fn vals(&self) -> impl Iterator<Item = (&Sym, &RCon)> {
        self.vals.iter()
    }

    /// Iterates over all constructor bindings.
    pub fn cons(&self) -> impl Iterator<Item = (&Sym, &CBind)> {
        self.cons.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::Con;

    #[test]
    fn bind_and_lookup_con() {
        let mut env = Env::new();
        let a = Sym::fresh("a");
        env.bind_con(a, Kind::Type);
        let b = env.lookup_con(&a).unwrap();
        assert_eq!(b.kind, Kind::Type);
        assert!(b.def.is_none());
    }

    #[test]
    fn transparent_definition() {
        let mut env = Env::new();
        let a = Sym::fresh("meta");
        env.define_con(a, Kind::arrow(Kind::Type, Kind::Type), Con::int());
        assert!(env.lookup_con(&a).unwrap().def.is_some());
    }

    #[test]
    fn val_binding() {
        let mut env = Env::new();
        let x = Sym::fresh("x");
        env.bind_val(x, Con::int());
        assert!(env.lookup_val(&x).is_some());
        assert!(env.lookup_val(&Sym::fresh("x")).is_none());
    }

    #[test]
    fn generations_track_semantic_mutations() {
        let mut env = Env::new();
        assert_eq!(env.generation(), 0, "empty envs share generation 0");
        let g0 = env.generation();
        env.bind_val(Sym::fresh("x"), Con::int());
        assert_eq!(env.generation(), g0, "val bindings keep the generation");
        env.bind_con(Sym::fresh("a"), Kind::Type);
        let g1 = env.generation();
        assert_ne!(g1, g0);
        let clone = env.clone();
        assert_eq!(clone.generation(), g1, "clones share their source's generation");
        env.assume_disjoint(Con::name("A"), Con::name("B"));
        assert_ne!(env.generation(), g1);
        assert_eq!(clone.generation(), g1);
    }

    #[test]
    fn facts_accumulate() {
        let mut env = Env::new();
        env.assume_disjoint(Con::name("A"), Con::name("B"));
        let inner = {
            let mut e = env.clone();
            e.assume_disjoint(Con::name("C"), Con::name("D"));
            e
        };
        assert_eq!(env.facts().len(), 1);
        assert_eq!(inner.facts().len(), 2);
    }
}
