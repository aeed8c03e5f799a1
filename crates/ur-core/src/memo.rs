//! Memo tables for the four expensive judgments: head normalization,
//! definitional equality, row normalization, and disjointness verdicts.
//!
//! All four tables key on canonical [`ConId`]s (see [`crate::arena`]) plus
//! the *semantic generation* of the [`crate::env::Env`] the judgment ran
//! under: two envs share a generation only when they have identical
//! constructor bindings and disjointness facts, so a `(ConId, env_gen)` key
//! pins down every input the judgment reads — except the metavariable
//! store.
//!
//! Metavariable solutions are **write-once and monotone**: `MetaCx::solve`
//! / `solve_kind` assert the slot was unsolved, and the store rolls back
//! only together with the memo: whole (`Elaborator::restore`) or by a
//! request scope (below). Each entry therefore records the
//! meta generation at store time and is served only while no further
//! solution has been recorded — *unless* the entry is `stable`, meaning no
//! future solution can change it:
//!
//! * `hnf` results containing no `Con::Meta` node (hnf never reads kinds,
//!   so kind metas are irrelevant to it);
//! * `defeq == true` (solving metas only makes more terms equal, never
//!   fewer);
//! * row normal forms all of whose components are meta-free, con and kind
//!   alike (`normalize_row` zonks kinds into `elem_kind`);
//! * prover verdicts `Proved` and `Refuted` (both are preserved under
//!   refinement: literal-name evidence cannot change, and fact matches are
//!   `defeq`-based, which is monotone). `NotYet` is exactly the verdict
//!   that later solutions revise, so it is generation-guarded.
//!
//! Law configuration is part of the judgment semantics too: if
//! [`crate::Cx::laws`] changes between calls, the tables being filled
//! are cleared.
//!
//! **Request scopes.** Each `Cx` has one memo level, the session's tables,
//! plus a request layer while a scope is open ([`Memo::open_scope`]):
//! stores go to the layer, lookups check the layer before the base, and
//! [`Memo::close_scope`] discards the layer together with the
//! metavariables [`crate::meta::MetaCx::rollback`] drops. A scope never
//! solves a metavariable older than its mark, so after the rollback the
//! store is exactly the one every base entry was checked against — the
//! reasoning `Elaborator::restore` relies on, at the cost of the request
//! instead of the session. Inside a scope, base entries are read only
//! under the law configuration they were stored under; a law change
//! clears the layer alone.
//!
//! Fuel interaction (see `docs/PERFORMANCE.md`): callers never store a
//! result computed under exhausted fuel (it would be a degenerate value,
//! not the judgment's answer), and a cache hit still charges one
//! normalization step so cached elaboration remains fuel-bounded.

use crate::arena::ConId;
use crate::con::RCon;
use crate::disjoint::ProveResult;
use crate::row::{FieldKey, RowNf};
use crate::LawConfig;
use std::collections::HashMap;

#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    /// Meta generation at store time; ignored when `stable`.
    meta_gen: u64,
    /// True when no future meta solution can change the value.
    stable: bool,
}

impl<T: Clone> Entry<T> {
    fn new(value: T, meta_gen: u64, stable: bool) -> Entry<T> {
        Entry {
            value,
            meta_gen,
            stable,
        }
    }

    fn get(&self, meta_gen: u64) -> Option<T> {
        if self.stable || self.meta_gen == meta_gen {
            Some(self.value.clone())
        } else {
            None
        }
    }
}

/// Unordered pair key: `defeq` and the prover are symmetric, so both
/// orientations of a query share one entry.
fn pair_key(a: ConId, b: ConId, env_gen: u64) -> (ConId, ConId, u64) {
    if a <= b {
        (a, b, env_gen)
    } else {
        (b, a, env_gen)
    }
}

/// True when every constructor and kind in `nf` is meta-free, so the
/// normal form can never be refined by later solutions.
fn row_nf_stable(nf: &RowNf) -> bool {
    let con_ok = |c: &RCon| {
        let f = c.flags();
        !f.has_meta() && !f.has_kmeta()
    };
    let key_ok = |k: &FieldKey| match k {
        FieldKey::Lit(_) => true,
        FieldKey::Neutral(c) => con_ok(c),
    };
    nf.elem_kind.as_ref().is_none_or(|k| k.is_ground())
        && nf.fields.iter().all(|(k, v)| key_ok(k) && con_ok(v))
        && nf
            .atoms
            .iter()
            .all(|a| con_ok(&a.base) && a.map.as_ref().is_none_or(|(f, k)| con_ok(f) && k.is_ground()))
}

/// One level of memo tables.
#[derive(Clone, Debug, Default)]
struct Tables {
    hnf: HashMap<(ConId, u64), Entry<RCon>>,
    defeq: HashMap<(ConId, ConId, u64), Entry<bool>>,
    rows: HashMap<(ConId, u64), Entry<RowNf>>,
    disjoint: HashMap<(ConId, ConId, u64), Entry<ProveResult>>,
}

impl Tables {
    fn clear(&mut self) {
        self.hnf.clear();
        self.defeq.clear();
        self.rows.clear();
        self.disjoint.clear();
    }
}

/// An open request scope's layer and the laws its entries were computed
/// under.
#[derive(Clone, Debug)]
struct Scope {
    laws: Option<LawConfig>,
    tables: Tables,
}

/// Selects one table of a level.
type Pick<K, T> = fn(&mut Tables) -> &mut HashMap<K, Entry<T>>;

/// The per-[`crate::Cx`] memo store.
#[derive(Clone, Debug)]
pub struct Memo {
    /// Master switch; benches flip this off for uncached comparison runs.
    /// When disabled, callers skip both lookups and stores.
    pub enabled: bool,
    /// The laws the base tables were filled under.
    laws: Option<LawConfig>,
    base: Tables,
    scope: Option<Scope>,
}

impl Default for Memo {
    fn default() -> Memo {
        Memo {
            enabled: true,
            laws: None,
            base: Tables::default(),
            scope: None,
        }
    }
}

impl Memo {
    /// Clears the tables being filled when the law configuration differs
    /// from the one their entries were computed under (law toggles change
    /// `defeq`, row normalization, and prover outcomes). Inside a scope
    /// that is the request layer; the base keeps its entries and is not
    /// read until the laws are back.
    pub fn check_laws(&mut self, laws: LawConfig) {
        let (current, tables) = match &mut self.scope {
            Some(s) => (&mut s.laws, &mut s.tables),
            None => (&mut self.laws, &mut self.base),
        };
        if *current != Some(laws) {
            tables.clear();
            *current = Some(laws);
        }
    }

    /// Opens a request scope: until [`Memo::close_scope`], stores go to a
    /// fresh layer that lookups check before the base. A layer left open
    /// by a request that panicked is discarded.
    pub fn open_scope(&mut self) {
        self.scope = Some(Scope {
            laws: self.laws,
            tables: Tables::default(),
        });
    }

    /// Discards the request layer; pair with
    /// [`crate::meta::MetaCx::rollback`].
    pub fn close_scope(&mut self) {
        self.scope = None;
    }

    fn get<K, T>(&mut self, pick: Pick<K, T>, key: K, meta_gen: u64) -> Option<T>
    where
        K: Eq + std::hash::Hash + Copy,
        T: Clone,
    {
        if let Some(s) = &mut self.scope {
            if let Some(v) = pick(&mut s.tables).get(&key).and_then(|e| e.get(meta_gen)) {
                return Some(v);
            }
            if s.laws != self.laws {
                return None;
            }
        }
        pick(&mut self.base).get(&key).and_then(|e| e.get(meta_gen))
    }

    fn put<K, T>(&mut self, pick: Pick<K, T>, key: K, entry: Entry<T>)
    where
        K: Eq + std::hash::Hash,
    {
        let tables = match &mut self.scope {
            Some(s) => &mut s.tables,
            None => &mut self.base,
        };
        pick(tables).insert(key, entry);
    }

    pub fn hnf_get(&mut self, c: ConId, env_gen: u64, meta_gen: u64) -> Option<RCon> {
        self.get(|t| &mut t.hnf, (c, env_gen), meta_gen)
    }

    pub fn hnf_put(&mut self, c: ConId, env_gen: u64, meta_gen: u64, out: &RCon) {
        let stable = !out.flags().has_meta();
        self.put(|t| &mut t.hnf, (c, env_gen), Entry::new(*out, meta_gen, stable));
    }

    pub fn defeq_get(&mut self, a: ConId, b: ConId, env_gen: u64, meta_gen: u64) -> Option<bool> {
        self.get(|t| &mut t.defeq, pair_key(a, b, env_gen), meta_gen)
    }

    pub fn defeq_put(&mut self, a: ConId, b: ConId, env_gen: u64, meta_gen: u64, eq: bool) {
        self.put(|t| &mut t.defeq, pair_key(a, b, env_gen), Entry::new(eq, meta_gen, eq));
    }

    pub fn row_get(&mut self, c: ConId, env_gen: u64, meta_gen: u64) -> Option<RowNf> {
        self.get(|t| &mut t.rows, (c, env_gen), meta_gen)
    }

    pub fn row_put(&mut self, c: ConId, env_gen: u64, meta_gen: u64, nf: &RowNf) {
        let stable = row_nf_stable(nf);
        self.put(|t| &mut t.rows, (c, env_gen), Entry::new(nf.clone(), meta_gen, stable));
    }

    pub fn disjoint_get(
        &mut self,
        a: ConId,
        b: ConId,
        env_gen: u64,
        meta_gen: u64,
    ) -> Option<ProveResult> {
        self.get(|t| &mut t.disjoint, pair_key(a, b, env_gen), meta_gen)
    }

    pub fn disjoint_put(
        &mut self,
        a: ConId,
        b: ConId,
        env_gen: u64,
        meta_gen: u64,
        out: ProveResult,
    ) {
        let stable = matches!(out, ProveResult::Proved | ProveResult::Refuted);
        self.put(|t| &mut t.disjoint, pair_key(a, b, env_gen), Entry::new(out, meta_gen, stable));
    }

    /// The session's entry counts per table `(hnf, defeq, rows,
    /// disjoint)` (an open request layer is not counted), for
    /// instrumentation.
    pub fn table_sizes(&self) -> (usize, usize, usize, usize) {
        let t = &self.base;
        (t.hnf.len(), t.defeq.len(), t.rows.len(), t.disjoint.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::Con;
    use crate::kind::Kind;

    #[test]
    fn defeq_true_survives_meta_generations() {
        let mut m = Memo::default();
        let a = Con::int();
        let b = Con::int();
        m.defeq_put(a, b, 0, 0, true);
        assert_eq!(m.defeq_get(a, b, 0, 99), Some(true));
        // ... and is symmetric in the key.
        assert_eq!(m.defeq_get(b, a, 0, 99), Some(true));
    }

    #[test]
    fn defeq_false_is_generation_guarded() {
        let mut m = Memo::default();
        let a = Con::int();
        let b = Con::float();
        m.defeq_put(a, b, 0, 3, false);
        assert_eq!(m.defeq_get(a, b, 0, 3), Some(false));
        assert_eq!(m.defeq_get(a, b, 0, 4), None);
    }

    #[test]
    fn notyet_is_generation_guarded_but_proved_is_not() {
        let mut m = Memo::default();
        let a = Con::row_nil(Kind::Type);
        let b = Con::int();
        m.disjoint_put(a, b, 0, 1, ProveResult::NotYet);
        assert_eq!(m.disjoint_get(a, b, 0, 2), None);
        m.disjoint_put(a, b, 0, 1, ProveResult::Proved);
        assert_eq!(m.disjoint_get(a, b, 0, 2), Some(ProveResult::Proved));
    }

    #[test]
    fn law_change_clears_tables() {
        let mut m = Memo::default();
        let a = Con::int();
        m.check_laws(LawConfig::default());
        m.defeq_put(a, a, 0, 0, true);
        m.check_laws(LawConfig::default());
        assert_eq!(m.defeq_get(a, a, 0, 0), Some(true), "same laws keep entries");
        m.check_laws(LawConfig { identity: false, ..LawConfig::default() });
        assert_eq!(m.defeq_get(a, a, 0, 0), None, "law flip clears entries");
    }

    #[test]
    fn a_store_inside_a_scope_is_gone_after_close() {
        let mut m = Memo::default();
        m.check_laws(LawConfig::default());
        let a = Con::int();
        let b = Con::string();
        let before = m.table_sizes();
        m.open_scope();
        m.check_laws(LawConfig::default());
        m.defeq_put(a, b, 0, 0, true);
        m.hnf_put(a, 0, 0, &Con::int());
        assert_eq!(m.defeq_get(a, b, 0, 0), Some(true), "visible inside the scope");
        assert_eq!(m.table_sizes(), before, "the session's tables are untouched");
        m.close_scope();
        assert_eq!(m.defeq_get(a, b, 0, 0), None);
        assert_eq!(m.hnf_get(a, 0, 0), None);
        assert_eq!(m.table_sizes(), before);
    }

    #[test]
    fn base_entries_hit_inside_a_scope_and_survive_close() {
        let mut m = Memo::default();
        m.check_laws(LawConfig::default());
        let a = Con::int();
        let b = Con::float();
        // Stored at generation 7, the generation the scope opens at.
        m.defeq_put(a, a, 0, 7, true);
        m.defeq_put(a, b, 0, 7, false);
        m.open_scope();
        m.check_laws(LawConfig::default());
        assert_eq!(m.defeq_get(a, a, 0, 7), Some(true), "stable base entry");
        assert_eq!(m.defeq_get(a, b, 0, 7), Some(false), "guarded, at the mark's generation");
        // Once the request solves something, guarded entries miss.
        assert_eq!(m.defeq_get(a, b, 0, 8), None);
        assert_eq!(m.defeq_get(a, a, 0, 8), Some(true));
        m.close_scope();
        assert_eq!(m.defeq_get(a, a, 0, 7), Some(true));
        assert_eq!(m.defeq_get(a, b, 0, 7), Some(false));
    }

    #[test]
    fn a_law_change_inside_a_scope_never_reads_base_entries() {
        let mut m = Memo::default();
        let laws = LawConfig::default();
        let other = LawConfig { fusion: false, ..laws };
        let a = Con::int();
        m.check_laws(laws);
        m.defeq_put(a, a, 0, 0, true);
        m.open_scope();
        m.check_laws(other);
        assert_eq!(m.defeq_get(a, a, 0, 0), None, "base was filled under other laws");
        m.defeq_put(a, a, 0, 0, false);
        assert_eq!(m.defeq_get(a, a, 0, 0), Some(false), "the layer answers under the new laws");
        // Back under the base's laws: the layer clears, the base is read.
        m.check_laws(laws);
        assert_eq!(m.defeq_get(a, a, 0, 0), Some(true));
        m.close_scope();
        assert_eq!(m.defeq_get(a, a, 0, 0), Some(true), "the base kept its entries");
    }

    #[test]
    fn meta_bearing_hnf_results_are_guarded() {
        let mut m = Memo::default();
        let c = Con::meta(crate::con::MetaId(902_000));
        let id = c;
        m.hnf_put(id, 0, 5, &c);
        assert!(m.hnf_get(id, 0, 5).is_some());
        assert!(m.hnf_get(id, 0, 6).is_none());
        // A meta-free result is stable across generations.
        let ground = Con::int();
        m.hnf_put(id, 0, 5, &ground);
        assert!(m.hnf_get(id, 0, 6).is_some());
    }
}
