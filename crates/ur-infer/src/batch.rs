//! Dependency-aware batch elaboration.
//!
//! A batch of top-level declarations elaborates one declaration at a
//! time, in source order, as the paper's §4 engine does. This module
//! adds what the incremental engine (`ur-query`) needs on top of that:
//!
//! 1. **Dependency graph** ([`DepGraph::build`]): a binder-aware free-name
//!    pass over the surface AST. Declaration `i` depends on *every*
//!    earlier declaration that binds one of `i`'s free names — all of
//!    them, not just the latest, because error recovery falls back to the
//!    previous binder when the latest one failed to elaborate. `ur-query`
//!    keys its invalidation on these edges.
//! 2. **Outcome capture** ([`Outcome`]): what a declaration
//!    persistently contributed to the environment, so it can be cached
//!    and later installed verbatim.
//! 3. **Seeded batches** ([`elab_program_all_incremental`]): green
//!    declarations are installed from their cached outcome and red ones
//!    elaborate in place.
//!
//! Elaboration is sequential: fanning declarations out to worker threads
//! lost to one thread on every measured workload (`docs/PERFORMANCE.md`
//! §6).

use crate::elab::{binop_name, sort_diags, ElabDecl, Elaborator};
use std::collections::{BTreeSet, HashMap, HashSet};
use ur_core::con::RCon;
use ur_core::kind::Kind;
use ur_core::sym::Sym;
use ur_syntax::ast::{Program, SCon, SDecl, SExpr, SParam};
use ur_syntax::{Diagnostic, Diagnostics};

/// Always 1; has no effect and stays only because the repository
/// benchmark reports it as `elab_threads`.
pub fn default_threads() -> usize {
    1
}

// ---------------- free names ----------------

/// Binder-aware free-name collector over the surface AST.
///
/// Names are resolved textually, exactly like the elaborator's scope
/// lookup: a name is free if no enclosing binder (constructor lambda,
/// `fn` parameter, `let` declaration, ...) introduces it. Field-name
/// positions (`{A = e}`, row literals, projections) count conservatively
/// as references — the elaborator resolves them to constructor variables
/// when one is in scope, so a same-named earlier declaration *is* a real
/// dependency.
#[derive(Default)]
struct FreeNames {
    bound: Vec<String>,
    free: BTreeSet<String>,
}

impl FreeNames {
    fn refer(&mut self, name: &str) {
        if !self.bound.iter().any(|b| b == name) {
            self.free.insert(name.to_string());
        }
    }

    fn scon(&mut self, c: &SCon) {
        match c {
            SCon::Var(_, x) => self.refer(x),
            SCon::Name(_, _) | SCon::Wild(_) => {}
            SCon::Record(_, c) | SCon::Fst(_, c) | SCon::Snd(_, c) => self.scon(c),
            SCon::RowLit(_, entries) => {
                for (n, v) in entries {
                    self.scon(n);
                    if let Some(v) = v {
                        self.scon(v);
                    }
                }
            }
            SCon::RecordType(_, fields) => {
                for (n, t) in fields {
                    self.scon(n);
                    self.scon(t);
                }
            }
            SCon::Cat(_, a, b) | SCon::App(_, a, b) | SCon::Arrow(_, a, b) | SCon::Pair(_, a, b) => {
                self.scon(a);
                self.scon(b);
            }
            SCon::Lam(_, x, _, body) | SCon::Poly(_, x, _, body) => {
                self.bound.push(x.clone());
                self.scon(body);
                self.bound.pop();
            }
            SCon::Guarded(_, c1, c2, t) => {
                self.scon(c1);
                self.scon(c2);
                self.scon(t);
            }
        }
    }

    /// Walks `fn`/`fun` parameters, pushing their binders; returns how
    /// many names were pushed so the caller can pop them after the body.
    fn params(&mut self, params: &[SParam]) -> usize {
        let mut pushed = 0;
        for p in params {
            match p {
                SParam::CParam(x, _) => {
                    self.bound.push(x.clone());
                    pushed += 1;
                }
                SParam::DParam(c1, c2) => {
                    self.scon(c1);
                    self.scon(c2);
                }
                SParam::VParam(x, t) => {
                    if let Some(t) = t {
                        self.scon(t);
                    }
                    self.bound.push(x.clone());
                    pushed += 1;
                }
            }
        }
        pushed
    }

    fn sexpr(&mut self, e: &SExpr) {
        match e {
            SExpr::Var(_, x) => self.refer(x),
            SExpr::Lit(_, _) => {}
            SExpr::App(_, f, a) | SExpr::Cat(_, f, a) => {
                self.sexpr(f);
                self.sexpr(a);
            }
            SExpr::CApp(_, e, c) => {
                self.sexpr(e);
                self.scon(c);
            }
            SExpr::Bang(_, e) | SExpr::Explicit(_, e) => self.sexpr(e),
            SExpr::Fn(_, params, body) => {
                let pushed = self.params(params);
                self.sexpr(body);
                for _ in 0..pushed {
                    self.bound.pop();
                }
            }
            SExpr::Record(_, fields) => {
                for (n, e) in fields {
                    self.scon(n);
                    self.sexpr(e);
                }
            }
            SExpr::Proj(_, e, c) | SExpr::Cut(_, e, c) => {
                self.sexpr(e);
                self.scon(c);
            }
            SExpr::BinOp(_, op, l, r) => {
                // Operators lower to prelude functions (`+` -> `add`, ...):
                // reference the lowered name so a shadowing declaration is
                // a dependency.
                if let Some(name) = binop_name(op) {
                    self.refer(name);
                }
                self.sexpr(l);
                self.sexpr(r);
            }
            SExpr::Let(_, decls, body) => {
                let mut pushed = 0;
                for d in decls {
                    self.sdecl_refs(d);
                    self.bound.push(d.name().to_string());
                    pushed += 1;
                }
                self.sexpr(body);
                for _ in 0..pushed {
                    self.bound.pop();
                }
            }
            SExpr::If(_, c, t, e) => {
                self.sexpr(c);
                self.sexpr(t);
                self.sexpr(e);
            }
            SExpr::Ann(_, e, t) => {
                self.sexpr(e);
                self.scon(t);
            }
        }
    }

    /// References made by a declaration's right-hand side (its own name is
    /// *not* bound: `fun` is non-recursive sugar for `val f = fn ...`).
    fn sdecl_refs(&mut self, d: &SDecl) {
        match d {
            SDecl::ConAbs(_, _, _) => {}
            SDecl::ConDef(_, _, _, c) => self.scon(c),
            SDecl::ValAbs(_, _, t) => self.scon(t),
            SDecl::Val(_, _, ann, e) => {
                if let Some(t) = ann {
                    self.scon(t);
                }
                self.sexpr(e);
            }
            SDecl::Fun(_, _, params, ann, e) => {
                let pushed = self.params(params);
                if let Some(t) = ann {
                    self.scon(t);
                }
                self.sexpr(e);
                for _ in 0..pushed {
                    self.bound.pop();
                }
            }
        }
    }
}

/// Free names of a declaration's right-hand side, sorted.
fn decl_free_names(d: &SDecl) -> BTreeSet<String> {
    let mut fv = FreeNames::default();
    fv.sdecl_refs(d);
    fv.free
}

// ---------------- dependency graph ----------------

/// Declaration-level dependency graph for one batch.
///
/// `deps[i]` holds the indices `i` depends on, sorted ascending. Every
/// edge points to an earlier declaration, so the graph is acyclic.
#[derive(Clone, Debug)]
pub struct DepGraph {
    deps: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Builds the graph by name resolution over the batch: declaration
    /// `i` gets an edge to every earlier declaration binding one of `i`'s
    /// free names (see the module docs for why *every*, not just the
    /// latest). Forward references get no edge — the referencing
    /// declaration fails with an "unbound" error.
    pub fn build(decls: &[SDecl]) -> DepGraph {
        let mut deps: Vec<Vec<usize>> = Vec::with_capacity(decls.len());
        let mut binders: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, d) in decls.iter().enumerate() {
            let mut my_deps: BTreeSet<usize> = BTreeSet::new();
            for name in decl_free_names(d) {
                if let Some(ix) = binders.get(name.as_str()) {
                    my_deps.extend(ix.iter().copied());
                }
            }
            deps.push(my_deps.into_iter().collect());
            binders.entry(d.name()).or_default().push(i);
        }
        DepGraph { deps }
    }

    /// Number of declarations in the batch.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Direct dependencies of declaration `i` (sorted ascending).
    pub fn deps(&self, i: usize) -> &[usize] {
        self.deps.get(i).map_or(&[], Vec::as_slice)
    }
}

// ---------------- outcomes ----------------

/// A `con` binding a declaration recorded into the global environment as
/// a side effect (`let`-local definitions). Terms are arena handles, so
/// the binding is cheap to clone.
#[derive(Clone, Debug)]
pub struct ConBind {
    pub sym: Sym,
    pub kind: Kind,
    pub def: Option<RCon>,
}

/// Everything a declaration's elaboration persistently contributed: the
/// declaration itself (absent when it failed) plus any `let`-local `con`
/// definitions it recorded into the global environment as a side effect.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub decl: Option<ElabDecl>,
    pub extra_cons: Vec<ConBind>,
}

/// Installs one dependency outcome into an elaborator: extra `con`
/// bindings first (the declaration's type may mention their symbols),
/// then the declaration itself.
fn install_outcome(el: &mut Elaborator, o: &Outcome) {
    for b in &o.extra_cons {
        match &b.def {
            Some(c) => el.genv.define_con(b.sym, b.kind.clone(), *c),
            None => el.genv.bind_con(b.sym, b.kind.clone()),
        }
    }
    if let Some(d) = &o.decl {
        el.install_elab_decl(d.clone());
    }
}

/// Elaborates one declaration on `el` (with recovery) and captures what
/// it persistently contributed as an [`Outcome`]: the declaration plus
/// any `let`-local `con` bindings it recorded into the global
/// environment.
fn elab_decl_capture(el: &mut Elaborator, d: &SDecl) -> (Option<Diagnostic>, Outcome) {
    let before: HashSet<u32> = el.genv.cons().map(|(s, _)| s.id()).collect();
    let start = el.decls.len();
    let diag = el.elab_decl_recover(d);
    let decl = el.decls.get(start).cloned();

    let own_con = match &decl {
        Some(ElabDecl::Con { sym, .. }) => Some(sym.id()),
        _ => None,
    };
    let mut extra_cons: Vec<ConBind> = el
        .genv
        .cons()
        .filter(|(s, _)| !before.contains(&s.id()) && Some(s.id()) != own_con)
        .map(|(s, b)| ConBind {
            sym: *s,
            kind: b.kind.clone(),
            def: b.def,
        })
        .collect();
    extra_cons.sort_by_key(|b| b.sym.id());
    (diag, Outcome { decl, extra_cons })
}

/// A pre-verified elaboration outcome injected into a batch by the
/// incremental engine (`ur-query`): the declaration's cached outcome and
/// the diagnostic it produced, both already decoded into this process's
/// arena. A seeded declaration is installed verbatim at its source
/// position — it is never elaborated, charges no fuel, and contributes
/// no per-declaration stats.
#[derive(Clone, Debug)]
pub struct Seed {
    pub outcome: Outcome,
    pub diag: Option<Diagnostic>,
}

/// Per-declaration outcome of an incremental batch, in source order:
/// what was installed, the diagnostic it carries, and whether it was a
/// green reuse (seeded) or a red recomputation.
#[derive(Clone, Debug)]
pub struct DeclRecord {
    pub outcome: Outcome,
    pub diag: Option<Diagnostic>,
    pub reused: bool,
}

/// Elaborates a parsed batch; `threads` and `graph` have no effect.
/// Kept only because the repository benchmark calls it.
pub fn elab_program_all_with_graph(
    elab: &mut Elaborator,
    prog: &Program,
    _threads: usize,
    _graph: &DepGraph,
) -> (Vec<ElabDecl>, Diagnostics) {
    elab.elab_program_all(prog)
}

/// Runs a batch in which some declarations arrive pre-verified
/// ([`Seed`]s from the incremental engine), in source order: seeded
/// declarations are installed verbatim at their source position — no
/// re-elaboration, no fuel, no per-declaration stats — and the remaining
/// (red) declarations elaborate in place. `seeds` must have one entry per
/// declaration; any other length is treated as all-red. Returns the
/// installed declarations, span-sorted diagnostics, and one
/// [`DeclRecord`] per declaration in source order.
pub fn elab_program_all_incremental(
    elab: &mut Elaborator,
    prog: &Program,
    mut seeds: Vec<Option<Seed>>,
) -> (Vec<ElabDecl>, Diagnostics, Vec<DeclRecord>) {
    if seeds.len() != prog.decls.len() {
        seeds = (0..prog.decls.len()).map(|_| None).collect();
    }
    let start = elab.decls.len();
    let mut diags = Diagnostics::new();
    let mut records: Vec<DeclRecord> = Vec::with_capacity(prog.decls.len());
    for (d, seed) in prog.decls.iter().zip(seeds) {
        let (diag, outcome, reused) = match seed {
            Some(seed) => {
                install_outcome(elab, &seed.outcome);
                (seed.diag, seed.outcome, true)
            }
            None => {
                let (diag, outcome) = elab_decl_capture(elab, d);
                (diag, outcome, false)
            }
        };
        if let Some(dg) = diag.clone() {
            diags.push(dg);
        }
        records.push(DeclRecord {
            outcome,
            diag,
            reused,
        });
    }
    sort_diags(&mut diags);
    (elab.decls[start..].to_vec(), diags, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        ur_syntax::parse_program(src).expect("test source parses")
    }

    #[test]
    fn graph_tracks_value_dependencies() {
        let prog = parse("val a = 1\nval b = a\nval c = b + a");
        let g = DepGraph::build(&prog.decls);
        assert_eq!(g.deps(0), &[] as &[usize]);
        assert_eq!(g.deps(1), &[0]);
        assert_eq!(g.deps(2), &[0, 1]);
    }

    #[test]
    fn independent_decls_share_no_edges() {
        let prog = parse("val a = 1\nval b = 2\nval c = 3");
        let g = DepGraph::build(&prog.decls);
        for i in 0..3 {
            assert!(g.deps(i).is_empty());
        }
    }

    #[test]
    fn binders_inside_lambdas_do_not_leak() {
        // `x` is fn-bound; only `one` is a real dependency.
        let prog = parse("val one = 1\nval f = fn x => x + one");
        let g = DepGraph::build(&prog.decls);
        assert_eq!(g.deps(1), &[0]);
    }

    #[test]
    fn binop_references_lowered_prelude_names() {
        // `+` lowers to `add`; an in-batch shadow of `add` must become a
        // dependency of every later use of `+`.
        let prog = parse("val add = 0\nval s = 1 + 2");
        let g = DepGraph::build(&prog.decls);
        assert_eq!(g.deps(1), &[0]);
    }
}
