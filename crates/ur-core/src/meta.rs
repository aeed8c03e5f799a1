//! Metavariable contexts: arenas of constructor and kind unification
//! variables.
//!
//! The elaborator allocates a fresh [`MetaId`] for every implicit argument
//! and wildcard; unification solves them by writing into the arena.
//! [`MetaCx::resolve`] follows solution chains (path compression is not
//! needed at our scale; chains are short).

use crate::arena::Flags;
use crate::con::{Con, MetaId, RCon};
use crate::kind::{KMetaId, Kind};
use crate::walk::{Step, Walk, Walker};

/// One constructor metavariable: its kind and, once solved, its value.
#[derive(Clone, Debug)]
struct MetaEntry {
    kind: Kind,
    solution: Option<RCon>,
    /// Human-readable origin, for error messages ("implicit argument r of
    /// mkTable").
    origin: String,
}

/// One kind metavariable.
#[derive(Clone, Debug, Default)]
struct KMetaEntry {
    solution: Option<Kind>,
}

/// Arena of constructor and kind metavariables.
///
/// Solutions are write-once ([`MetaCx::solve`] / [`MetaCx::solve_kind`]
/// panic on re-solve), which makes the solution state *monotone*: it only
/// ever gains equations. The memo tables in [`crate::memo`] rely on this
/// by tagging entries with [`MetaCx::generation`], which counts recorded
/// solutions. Allocating fresh metas does not bump the generation — a new
/// metavariable cannot occur in any previously cached term.
///
/// Short of replacing the whole store together with its memo (as
/// `Elaborator::restore` does), the one way back is a *request scope*:
/// [`MetaCx::mark`] records the store's extent and [`MetaCx::rollback`]
/// drops every metavariable allocated since, restoring the generation.
/// That is sound only when nothing the scope solved is older than its
/// mark — then the store is exactly what it was at the mark, and so is
/// every memo entry checked against it. The memo's request layer
/// ([`crate::memo::Memo::open_scope`]) is discarded together with the
/// metavariables its entries name.
#[derive(Clone, Debug, Default)]
pub struct MetaCx {
    metas: Vec<MetaEntry>,
    kmetas: Vec<KMetaEntry>,
    gen: u64,
}

/// The extent of a [`MetaCx`] at the start of a request scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaMark {
    metas: usize,
    kmetas: usize,
    gen: u64,
}

impl MetaCx {
    pub fn new() -> MetaCx {
        MetaCx::default()
    }

    /// Number of solutions (constructor and kind) recorded so far.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Records the store's current extent; see [`MetaCx::rollback`].
    pub fn mark(&self) -> MetaMark {
        MetaMark {
            metas: self.metas.len(),
            kmetas: self.kmetas.len(),
            gen: self.gen,
        }
    }

    /// Drops every metavariable allocated since `mark` and restores the
    /// generation it recorded, so later allocations reuse the same
    /// numbers.
    ///
    /// The caller guarantees that nothing solved since `mark` is older
    /// than it (a request cannot reach the session's metavariables);
    /// debug builds check that every solution since the mark belongs to
    /// a dropped metavariable.
    pub fn rollback(&mut self, mark: MetaMark) {
        debug_assert_eq!(
            self.gen - mark.gen,
            self.solved_since(mark),
            "a request scope solved a metavariable allocated before its mark"
        );
        self.metas.truncate(mark.metas);
        self.kmetas.truncate(mark.kmetas);
        self.gen = mark.gen;
    }

    /// Solutions recorded on metavariables allocated since `mark`.
    fn solved_since(&self, mark: MetaMark) -> u64 {
        let cons = self.metas[mark.metas..].iter().filter(|e| e.solution.is_some()).count();
        let kinds = self.kmetas[mark.kmetas..].iter().filter(|e| e.solution.is_some()).count();
        (cons + kinds) as u64
    }

    /// Allocates a fresh constructor metavariable of the given kind.
    pub fn fresh(&mut self, kind: Kind, origin: impl Into<String>) -> MetaId {
        let id = MetaId(self.metas.len() as u32);
        self.metas.push(MetaEntry {
            kind,
            solution: None,
            origin: origin.into(),
        });
        id
    }

    /// Allocates a fresh constructor metavariable and returns it as a
    /// constructor.
    pub fn fresh_con(&mut self, kind: Kind, origin: impl Into<String>) -> RCon {
        Con::meta(self.fresh(kind, origin))
    }

    /// Allocates a fresh kind metavariable.
    pub fn fresh_kind(&mut self) -> Kind {
        let id = KMetaId(self.kmetas.len() as u32);
        self.kmetas.push(KMetaEntry::default());
        Kind::Meta(id)
    }

    /// The declared kind of a metavariable.
    pub fn kind_of(&self, id: MetaId) -> &Kind {
        &self.metas[id.0 as usize].kind
    }

    /// The origin string of a metavariable.
    pub fn origin_of(&self, id: MetaId) -> &str {
        &self.metas[id.0 as usize].origin
    }

    /// The solution, if any (not followed transitively).
    pub fn solution(&self, id: MetaId) -> Option<&RCon> {
        self.metas[id.0 as usize].solution.as_ref()
    }

    /// Records a solution for an unsolved metavariable.
    ///
    /// # Panics
    ///
    /// Panics if the metavariable was already solved; callers must check
    /// first (re-solving indicates a unifier bug).
    pub fn solve(&mut self, id: MetaId, c: RCon) {
        let entry = &mut self.metas[id.0 as usize];
        assert!(
            entry.solution.is_none(),
            "metavariable {id} already solved"
        );
        entry.solution = Some(c);
        self.gen += 1;
    }

    /// Records a solution for a kind metavariable.
    ///
    /// # Panics
    ///
    /// Panics if already solved.
    pub fn solve_kind(&mut self, id: KMetaId, k: Kind) {
        let entry = &mut self.kmetas[id.0 as usize];
        assert!(entry.solution.is_none(), "kind metavariable {id} already solved");
        entry.solution = Some(k);
        // Kind solutions invalidate caches too: `normalize_row` zonks
        // kinds into `RowNf::elem_kind`.
        self.gen += 1;
    }

    /// Follows metavariable solutions at the head of `c` until reaching a
    /// non-meta constructor or an unsolved metavariable.
    pub fn resolve(&self, c: &RCon) -> RCon {
        let mut cur = *c;
        loop {
            match &*cur {
                Con::Meta(id) => match self.solution(*id) {
                    Some(sol) => cur = *sol,
                    None => return cur,
                },
                _ => return cur,
            }
        }
    }

    /// Follows kind-metavariable solutions at the head of `k`.
    pub fn resolve_kind(&self, k: &Kind) -> Kind {
        let mut cur = k.clone();
        loop {
            match cur {
                Kind::Meta(id) => match &self.kmetas[id.0 as usize].solution {
                    Some(sol) => cur = sol.clone(),
                    None => return Kind::Meta(id),
                },
                other => return other,
            }
        }
    }

    /// Fully substitutes solved kind metavariables throughout `k`.
    pub fn zonk_kind(&self, k: &Kind) -> Kind {
        match self.resolve_kind(k) {
            Kind::Arrow(a, b) => Kind::arrow(self.zonk_kind(&a), self.zonk_kind(&b)),
            Kind::Row(a) => Kind::row(self.zonk_kind(&a)),
            Kind::Pair(a, b) => Kind::pair(self.zonk_kind(&a), self.zonk_kind(&b)),
            other => other,
        }
    }

    /// Fully substitutes solved metavariables (constructor and kind)
    /// throughout `c`.
    pub fn zonk(&self, c: &RCon) -> RCon {
        let Ok(out) = Walk::new(self.zonker(|k| self.zonk_kind(k))).con(*c);
        out
    }

    /// The walker behind [`MetaCx::zonk`], rewriting each kind annotation
    /// with `kind` (elaboration's finalization also defaults unsolved
    /// kind metavariables there).
    pub fn zonker<F: FnMut(&Kind) -> Kind>(&self, kind: F) -> Zonk<'_, F> {
        Zonk { metas: self, kind }
    }

    /// Number of allocated constructor metavariables.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True if no constructor metavariables were allocated.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Iterator over unsolved constructor metavariables.
    pub fn unsolved(&self) -> impl Iterator<Item = MetaId> + '_ {
        self.metas
            .iter()
            .enumerate()
            .filter(|(_, e)| e.solution.is_none())
            .map(|(i, _)| MetaId(i as u32))
    }

    /// True if `c` contains an occurrence of `id` (after resolving solved
    /// metas). Used as the occurs check.
    pub fn occurs(&self, id: MetaId, c: &RCon) -> bool {
        struct Occurs<'a>(&'a MetaCx, MetaId);
        impl Walker for Occurs<'_> {
            type Stop = ();
            fn enters(&self, f: Flags) -> bool {
                f.has_meta()
            }
            fn con(&mut self, c: RCon) -> Result<Step, ()> {
                let r = self.0.resolve(&c);
                match &*r {
                    Con::Meta(m) if *m == self.1 => Err(()),
                    _ => Ok(Step::Into(r)),
                }
            }
        }
        Walk::new(Occurs(self, id)).con(*c).is_err()
    }
}

/// Zonking as a [`Walker`]: resolves solved metavariables at every node
/// and rewrites kind annotations that mention kind metavariables.
pub struct Zonk<'a, F> {
    metas: &'a MetaCx,
    kind: F,
}

impl<F: FnMut(&Kind) -> Kind> Walker for Zonk<'_, F> {
    type Stop = std::convert::Infallible;
    fn enters(&self, f: Flags) -> bool {
        f.has_meta() || f.has_kmeta()
    }
    fn con(&mut self, c: RCon) -> Result<Step, Self::Stop> {
        Ok(Step::Into(self.metas.resolve(&c)))
    }
    fn kind(&mut self, k: &Kind) -> Option<Kind> {
        (!k.is_ground()).then(|| (self.kind)(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::PrimType;

    #[test]
    fn fresh_and_solve() {
        let mut cx = MetaCx::new();
        let m = cx.fresh(Kind::Type, "test");
        assert!(cx.solution(m).is_none());
        cx.solve(m, Con::int());
        assert_eq!(&**cx.solution(m).unwrap(), &Con::Prim(PrimType::Int));
    }

    #[test]
    #[should_panic(expected = "already solved")]
    fn double_solve_panics() {
        let mut cx = MetaCx::new();
        let m = cx.fresh(Kind::Type, "test");
        cx.solve(m, Con::int());
        cx.solve(m, Con::float());
    }

    #[test]
    fn generation_counts_solutions_only() {
        let mut cx = MetaCx::new();
        assert_eq!(cx.generation(), 0);
        let m = cx.fresh(Kind::Type, "t");
        let k = cx.fresh_kind();
        assert_eq!(cx.generation(), 0, "allocation must not bump the generation");
        cx.solve(m, Con::int());
        assert_eq!(cx.generation(), 1);
        if let Kind::Meta(id) = k {
            cx.solve_kind(id, Kind::Type);
        }
        assert_eq!(cx.generation(), 2, "kind solutions bump the generation too");
    }

    #[test]
    fn resolve_follows_chains() {
        let mut cx = MetaCx::new();
        let m1 = cx.fresh(Kind::Type, "a");
        let m2 = cx.fresh(Kind::Type, "b");
        cx.solve(m1, Con::meta(m2));
        cx.solve(m2, Con::int());
        let r = cx.resolve(&Con::meta(m1));
        assert_eq!(&*r, &Con::Prim(PrimType::Int));
    }

    #[test]
    fn zonk_rewrites_deeply() {
        let mut cx = MetaCx::new();
        let m = cx.fresh(Kind::Type, "t");
        cx.solve(m, Con::int());
        let c = Con::arrow(Con::meta(m), Con::string());
        let z = cx.zonk(&c);
        match &*z {
            Con::Arrow(a, _) => assert_eq!(&**a, &Con::Prim(PrimType::Int)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn occurs_check() {
        let mut cx = MetaCx::new();
        let m = cx.fresh(Kind::Type, "t");
        let other = cx.fresh(Kind::Type, "u");
        let c = Con::arrow(Con::meta(m), Con::int());
        assert!(cx.occurs(m, &c));
        assert!(!cx.occurs(other, &c));
    }

    #[test]
    fn occurs_through_solutions() {
        let mut cx = MetaCx::new();
        let m1 = cx.fresh(Kind::Type, "a");
        let m2 = cx.fresh(Kind::Type, "b");
        cx.solve(m2, Con::arrow(Con::meta(m1), Con::int()));
        assert!(cx.occurs(m1, &Con::meta(m2)));
    }

    #[test]
    fn kind_meta_resolution() {
        let mut cx = MetaCx::new();
        let k = cx.fresh_kind();
        if let Kind::Meta(id) = k {
            cx.solve_kind(id, Kind::Type);
        }
        assert_eq!(cx.resolve_kind(&k), Kind::Type);
        let deep = Kind::arrow(k.clone(), Kind::Name);
        assert_eq!(cx.zonk_kind(&deep), Kind::arrow(Kind::Type, Kind::Name));
    }

    #[test]
    fn rollback_frees_numbers_and_restores_the_generation() {
        let mut cx = MetaCx::new();
        let base = cx.fresh(Kind::Type, "base");
        cx.solve(base, Con::int());
        let mark = cx.mark();
        let a = cx.fresh(Kind::Type, "a");
        let k = cx.fresh_kind();
        cx.solve(a, Con::string());
        if let Kind::Meta(id) = k {
            cx.solve_kind(id, Kind::Type);
        }
        assert_eq!(cx.generation(), 3);
        cx.rollback(mark);
        assert_eq!(cx.generation(), 1, "the mark's generation is back");
        assert_eq!(cx.len(), 1);
        assert_eq!(cx.fresh(Kind::Type, "again"), a, "the number is reused");
        assert!(cx.solution(a).is_none(), "reused unsolved");
        assert_eq!(cx.fresh_kind(), k, "kind numbers are reused too");
        assert_eq!(cx.resolve(&Con::meta(base)), Con::int(), "older solutions stay");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "allocated before its mark")]
    fn rollback_rejects_a_scope_that_solved_an_older_meta() {
        let mut cx = MetaCx::new();
        let old = cx.fresh(Kind::Type, "old");
        let mark = cx.mark();
        cx.solve(old, Con::int());
        cx.rollback(mark);
    }

    #[test]
    fn unsolved_iterator() {
        let mut cx = MetaCx::new();
        let a = cx.fresh(Kind::Type, "a");
        let b = cx.fresh(Kind::Type, "b");
        cx.solve(a, Con::int());
        let unsolved: Vec<MetaId> = cx.unsolved().collect();
        assert_eq!(unsolved, vec![b]);
    }
}
