//! Elaboration of surface Ur into core Featherweight Ur (paper §4).
//!
//! Elaboration is bidirectional and constraint-based:
//!
//! * every implicit argument and wildcard becomes a metavariable;
//! * constructor equalities and disjointness obligations are attempted
//!   eagerly and otherwise queued; after each top-level declaration the
//!   queue is iterated to a fixed point ("finding an immediately-solvable
//!   constraint, until no constraints remain", §4);
//! * omitted `folder` arguments become holes that are filled *after*
//!   inference, with the field permutation implied by source order (§4.4);
//! * the two design principles hold: no proof syntax exists (`!` only
//!   signals the prover), and callers of metaprograms write ML-style code.

use crate::error::{ElabError, EResult};
use crate::unify::{unify, unify_kind, Unify};
pub use ur_core::folder::{gen_folder, unfold_folder};
use std::collections::HashSet;
use std::convert::Infallible;
use ur_core::arena::Flags;
use ur_core::con::{Con, MetaId, RCon};
use ur_core::disjoint::{prove, ProveResult};
use ur_core::env::Env;
use ur_core::expr::{Expr, Lit, RExpr};
use ur_core::hnf::hnf;
use ur_core::kind::Kind;
use ur_core::row::{normalize_row, FieldKey};
use ur_core::subst::subst;
use ur_core::sym::Sym;
use ur_core::walk::{Step, Walk, Walker};
use ur_core::Cx;
use ur_syntax::ast::{SCon, SDecl, SExpr, SKind, SLit, SParam, Span};
use ur_syntax::Program;

/// An elaborated top-level declaration.
#[derive(Clone, Debug)]
pub enum ElabDecl {
    /// A constructor declaration (abstract if `def` is `None`).
    Con {
        name: String,
        sym: Sym,
        kind: Kind,
        def: Option<RCon>,
    },
    /// A value declaration (a primitive if `body` is `None`).
    Val {
        name: String,
        sym: Sym,
        ty: RCon,
        body: Option<RExpr>,
    },
}

impl ElabDecl {
    pub fn name(&self) -> &str {
        match self {
            ElabDecl::Con { name, .. } | ElabDecl::Val { name, .. } => name,
        }
    }

    pub fn sym(&self) -> &Sym {
        match self {
            ElabDecl::Con { sym, .. } | ElabDecl::Val { sym, .. } => sym,
        }
    }
}

#[derive(Clone)]
pub(crate) enum Entry {
    CVar(Sym),
    Val(Sym),
}

/// A full capture of the elaborator's persistent state (see
/// [`Elaborator::snapshot`]/[`Elaborator::restore`]). Sessions use it
/// to roll back whole aborted batches. Opaque: it can only be fed back
/// to the elaborator it came from. `Clone` so a session can keep one
/// base snapshot and restore it before every incremental rebuild.
#[derive(Clone)]
pub struct ElabSnapshot {
    genv: Env,
    cx: Cx,
    scope: Vec<Vec<(String, Entry)>>,
    decls_len: usize,
}

#[derive(Clone)]
enum Goal {
    Eq(RCon, RCon),
    Disj(RCon, RCon),
}

struct Pending {
    env: Env,
    goal: Goal,
    span: Span,
    origin: String,
}

struct Hole {
    sym: Sym,
    row: RCon,
    elem_kind: Kind,
    env: Env,
    span: Span,
}

/// The elaborator: global environment, metavariable context, constraint
/// queue, and scope map from source names to core symbols.
pub struct Elaborator {
    /// Global typing environment (grows with each declaration).
    pub genv: Env,
    /// Metavariables and Figure-5 statistics.
    pub cx: Cx,
    pub(crate) scope: Vec<Vec<(String, Entry)>>,
    constraints: Vec<Pending>,
    holes: Vec<Hole>,
    /// All declarations elaborated so far, in order.
    pub decls: Vec<ElabDecl>,
}

impl Default for Elaborator {
    fn default() -> Self {
        Elaborator::new()
    }
}

/// Converts a parse error to an [`ElabError`], preserving its diagnostic
/// code (E02xx / E01xx) through the classification in `ur_syntax`.
fn parse_to_elab(e: ur_syntax::ParseError) -> ElabError {
    let d: ur_syntax::Diagnostic = e.into();
    ElabError::new(d.span, d.message).with_code(d.code)
}

impl Elaborator {
    pub fn new() -> Elaborator {
        Elaborator {
            genv: Env::new(),
            cx: Cx::new(),
            scope: vec![Vec::new()],
            constraints: Vec::new(),
            holes: Vec::new(),
            decls: Vec::new(),
        }
    }

    /// Parses and elaborates a whole program, returning the declarations
    /// it added.
    ///
    /// # Errors
    ///
    /// Returns the first parse or elaboration error.
    pub fn elab_source(&mut self, src: &str) -> EResult<Vec<ElabDecl>> {
        let prog = ur_syntax::parse_program(src).map_err(parse_to_elab)?;
        self.elab_program(&prog)
    }

    /// Elaborates a parsed program.
    ///
    /// # Errors
    ///
    /// Returns the first elaboration error.
    pub fn elab_program(&mut self, prog: &Program) -> EResult<Vec<ElabDecl>> {
        let start = self.decls.len();
        for d in &prog.decls {
            // Per-declaration budget: resource outcomes must not depend on
            // how much fuel earlier declarations happened to burn, so an
            // incremental rebuild that skips them matches a cold run.
            self.cx.fuel.reset();
            if let Err(e) = self.elab_top_decl(d) {
                self.reset_transient();
                self.cx.fuel.reset();
                return Err(e);
            }
            if let Some(kind) = self.cx.fuel.exhausted() {
                self.reset_transient();
                return Err(self.resource_error(d.span(), kind));
            }
        }
        Ok(self.decls[start..].to_vec())
    }

    /// Parses and elaborates a whole program, collecting **every**
    /// diagnostic instead of stopping at the first.
    ///
    /// Recovery happens at declaration boundaries: a failed declaration's
    /// transient state (queued constraints, folder holes) is discarded and
    /// elaboration continues with the next declaration, so one pass
    /// reports all independent errors. Returns the declarations that did
    /// elaborate alongside the diagnostics (empty when the program is
    /// clean).
    pub fn elab_source_all(&mut self, src: &str) -> (Vec<ElabDecl>, ur_syntax::Diagnostics) {
        match ur_syntax::parse_program(src) {
            Err(e) => (Vec::new(), vec![e.into()]),
            Ok(prog) => self.elab_program_all(&prog),
        }
    }

    /// Elaborates a parsed program, collecting every diagnostic (see
    /// [`elab_source_all`](Self::elab_source_all)). Diagnostics come back
    /// sorted by source span, so multi-error output is stable no matter
    /// what order the declarations were actually elaborated in.
    pub fn elab_program_all(
        &mut self,
        prog: &Program,
    ) -> (Vec<ElabDecl>, ur_syntax::Diagnostics) {
        let start = self.decls.len();
        let mut diags = ur_syntax::Diagnostics::new();
        for d in &prog.decls {
            if let Some(diag) = self.elab_decl_recover(d) {
                diags.push(diag);
            }
        }
        sort_diags(&mut diags);
        (self.decls[start..].to_vec(), diags)
    }

    /// Elaborates one top-level declaration with error recovery: on
    /// failure the declaration's transient state (queued constraints,
    /// folder holes) is discarded, the fuel is reset, and the error is
    /// returned as a diagnostic; the elaborator stays usable either way.
    ///
    /// Every declaration starts on a fresh fuel budget (the lifetime
    /// counter is preserved), so resource outcomes do not depend on which
    /// earlier declarations were elaborated rather than reused from the
    /// incremental cache.
    pub(crate) fn elab_decl_recover(&mut self, d: &SDecl) -> Option<ur_syntax::Diagnostic> {
        self.cx.fuel.reset();
        match self.elab_top_decl(d) {
            Ok(()) => {
                if let Some(kind) = self.cx.fuel.exhausted() {
                    self.reset_transient();
                    Some(self.resource_error(d.span(), kind).into())
                } else {
                    None
                }
            }
            Err(e) => {
                self.reset_transient();
                self.cx.fuel.reset();
                Some(e.into())
            }
        }
    }

    /// Captures the elaborator's full persistent state — global env,
    /// checking context (metas, stats, fuel, memo), scope stack, and the
    /// elaborated-declaration count — so a discarded batch (a session
    /// rollback, an incremental rebuild's base restore) can be rolled
    /// back as if it never ran. Transient state (constraints,
    /// folder holes) is empty at declaration boundaries and needs no
    /// capture.
    pub fn snapshot(&self) -> ElabSnapshot {
        ElabSnapshot {
            genv: self.genv.clone(),
            cx: self.cx.clone(),
            scope: self.scope.clone(),
            decls_len: self.decls.len(),
        }
    }

    /// Restores a [`snapshot`](Self::snapshot), discarding everything a
    /// failed attempt may have recorded (env bindings, meta solutions,
    /// memo entries, pushed declarations).
    pub fn restore(&mut self, snap: ElabSnapshot) {
        self.genv = snap.genv;
        self.cx = snap.cx;
        self.scope = snap.scope;
        self.decls.truncate(snap.decls_len);
        self.constraints.clear();
        self.holes.clear();
    }

    /// Installs an already-elaborated declaration (an incremental-cache
    /// outcome): records its global binding, its scope entry, and the
    /// declaration itself, exactly as
    /// [`elab_top_decl`](Self::elab_top_decl) would have.
    pub(crate) fn install_elab_decl(&mut self, d: ElabDecl) {
        match &d {
            ElabDecl::Con { name, sym, kind, def } => {
                match def {
                    Some(c) => self.genv.define_con(*sym, kind.clone(), *c),
                    None => self.genv.bind_con(*sym, kind.clone()),
                }
                let name = name.clone();
                let sym = *sym;
                self.bind_scope(&name, Entry::CVar(sym));
            }
            ElabDecl::Val { name, sym, ty, .. } => {
                self.genv.bind_val(*sym, *ty);
                let name = name.clone();
                let sym = *sym;
                self.bind_scope(&name, Entry::Val(sym));
            }
        }
        self.decls.push(d);
    }

    /// Discards constraints and folder holes left behind by a failed
    /// declaration, so the session stays usable.
    pub(crate) fn reset_transient(&mut self) {
        self.constraints.clear();
        self.holes.clear();
        self.scope.truncate(1);
    }

    /// Parses and elaborates a standalone expression against the current
    /// global environment, running the full inference pipeline (constraint
    /// draining, folder generation, finalization).
    ///
    /// The elaboration is a *request scope*: on every exit the
    /// metavariables it allocated are dropped, the solution generation is
    /// restored and its memo entries are discarded, so a long-lived
    /// session (REPL, server) does not grow with the expressions it
    /// answers. The result is zonked and checked meta-free, so nothing it
    /// returns names a dropped metavariable; `genv` holds only meta-free
    /// declaration types, so the scope cannot solve an older one.
    ///
    /// # Errors
    ///
    /// Returns the first parse or elaboration error.
    pub fn elab_expr_source(&mut self, src: &str) -> EResult<(RExpr, RCon)> {
        let se = ur_syntax::parse_expr(src).map_err(parse_to_elab)?;
        // Every expression gets the whole budget, as every declaration
        // does: a long-lived session (REPL, server) must not pile up
        // earlier expressions' steps until an innocent one hits E0900.
        self.reset_transient();
        self.cx.fuel.reset();
        let mark = self.cx.metas.mark();
        self.cx.memo.open_scope();
        let out = self.elab_expr_parsed(&se);
        if out.is_err() {
            self.reset_transient();
            self.cx.fuel.reset();
        }
        self.cx.memo.close_scope();
        self.cx.metas.rollback(mark);
        out
    }

    fn elab_expr_parsed(&mut self, se: &SExpr) -> EResult<(RExpr, RCon)> {
        let env = self.genv.clone();
        let (ee, ty) = self.elab_expr(&env, se, None)?;
        let span = se.span();
        self.drain()?;
        let subs = self.fill_folders()?;
        self.drain()?;
        self.check_no_constraints(span)?;
        let mut ee = ee;
        for (hole, term) in subs {
            ee = replace_var(&ee, &hole, &term);
        }
        let ee = finalize_expr(&self.cx, &ee);
        let ty = finalize_con(&self.cx, &ty);
        if let Some(m) = find_meta_expr(&ee).or_else(|| find_meta_con(&ty)) {
            return Err(ElabError::new(
                span,
                format!("could not infer {}", self.cx.metas.origin_of(m)),
            ));
        }
        Ok((ee, ty))
    }

    // ---------------- scope ----------------

    fn lookup(&self, name: &str) -> Option<&Entry> {
        self.scope
            .iter()
            .rev()
            .find_map(|frame| frame.iter().rev().find(|(n, _)| n == name))
            .map(|(_, e)| e)
    }

    fn push_frame(&mut self) {
        self.scope.push(Vec::new());
    }

    fn pop_frame(&mut self) {
        self.scope.pop();
    }

    pub(crate) fn bind_scope(&mut self, name: &str, e: Entry) {
        // The stack is never empty in practice (a root frame is installed
        // at construction and `reset_transient` keeps it), but re-install
        // it rather than panic if a recovery path ever drops it.
        if self.scope.is_empty() {
            self.scope.push(Vec::new());
        }
        if let Some(frame) = self.scope.last_mut() {
            frame.push((name.to_string(), e));
        }
    }

    // ---------------- constraints ----------------

    fn require_eq(
        &mut self,
        env: &Env,
        span: Span,
        c1: RCon,
        c2: RCon,
        origin: &str,
    ) -> EResult<()> {
        match unify(env, &mut self.cx, &c1, &c2) {
            Unify::Solved => Ok(()),
            Unify::Postpone => {
                self.cx.stats.constraints_postponed += 1;
                self.constraints.push(Pending {
                    env: env.clone(),
                    goal: Goal::Eq(c1, c2),
                    span,
                    origin: origin.to_string(),
                });
                Ok(())
            }
            Unify::Fail(msg) => Err(ElabError::new(
                span,
                format!("{origin}: {msg}"),
            )),
        }
    }

    fn require_disjoint(
        &mut self,
        env: &Env,
        span: Span,
        c1: RCon,
        c2: RCon,
        origin: &str,
    ) -> EResult<()> {
        match prove(env, &mut self.cx, &c1, &c2) {
            ProveResult::Proved => Ok(()),
            ProveResult::NotYet => {
                self.cx.stats.constraints_postponed += 1;
                self.constraints.push(Pending {
                    env: env.clone(),
                    goal: Goal::Disj(c1, c2),
                    span,
                    origin: origin.to_string(),
                });
                Ok(())
            }
            ProveResult::Refuted => Err(ElabError::new(
                span,
                format!(
                    "{origin}: rows {} and {} share a field name",
                    self.cx.metas.zonk(&c1),
                    self.cx.metas.zonk(&c2)
                ),
            )),
        }
    }

    /// Iterates the constraint queue to a fixed point (§4: "iterating
    /// through finding an immediately-solvable constraint, until no
    /// constraints remain").
    ///
    /// The number of rounds is capped by
    /// [`Limits::max_solver_rounds`](ur_core::Limits); exceeding it marks
    /// the fuel exhausted and returns normally, leaving the remaining
    /// constraints queued — [`check_no_constraints`](Self::check_no_constraints)
    /// then reports the exhaustion as a resource diagnostic.
    fn drain(&mut self) -> EResult<()> {
        let mut rounds: u32 = 0;
        loop {
            if self.cx.fuel.exhausted().is_some() {
                return Ok(());
            }
            rounds += 1;
            if rounds > self.cx.fuel.limits.max_solver_rounds {
                self.cx.fuel.exhaust(ur_core::ResourceKind::SolverRounds);
                return Ok(());
            }
            let mut progress = false;
            let pending = std::mem::take(&mut self.constraints);
            for p in pending {
                match &p.goal {
                    Goal::Eq(c1, c2) => match unify(&p.env, &mut self.cx, c1, c2) {
                        Unify::Solved => progress = true,
                        Unify::Postpone => self.constraints.push(p),
                        Unify::Fail(msg) => {
                            return Err(ElabError::new(
                                p.span,
                                format!("{}: {msg}", p.origin),
                            ))
                        }
                    },
                    Goal::Disj(c1, c2) => match prove(&p.env, &mut self.cx, c1, c2) {
                        ProveResult::Proved => progress = true,
                        ProveResult::NotYet => self.constraints.push(p),
                        ProveResult::Refuted => {
                            return Err(ElabError::new(
                                p.span,
                                format!(
                                    "{}: rows {} and {} share a field name",
                                    p.origin,
                                    self.cx.metas.zonk(c1),
                                    self.cx.metas.zonk(c2)
                                ),
                            ))
                        }
                    },
                }
            }
            if !progress {
                return Ok(());
            }
        }
    }

    // ---------------- kinds ----------------

    fn elab_kind(&mut self, k: &SKind) -> Kind {
        match k {
            SKind::Type => Kind::Type,
            SKind::Name => Kind::Name,
            SKind::Arrow(a, b) => Kind::arrow(self.elab_kind(a), self.elab_kind(b)),
            SKind::Row(a) => Kind::row(self.elab_kind(a)),
            SKind::Pair(a, b) => Kind::pair(self.elab_kind(a), self.elab_kind(b)),
            SKind::Wild => self.cx.metas.fresh_kind(),
        }
    }

    // ---------------- constructors ----------------

    /// Elaborates a surface constructor, checking against `expect` when
    /// given. Returns the core constructor and its kind.
    pub fn elab_con(
        &mut self,
        env: &Env,
        c: &SCon,
        expect: Option<&Kind>,
    ) -> EResult<(RCon, Kind)> {
        let span = c.span();
        let (core, kind) = self.elab_con_inner(env, c)?;
        if let Some(want) = expect {
            unify_kind(&mut self.cx, &kind, want).map_err(|e| {
                ElabError::new(span, format!("kind mismatch for {core}: {e}"))
            })?;
        }
        Ok((core, kind))
    }

    fn elab_con_inner(&mut self, env: &Env, c: &SCon) -> EResult<(RCon, Kind)> {
        match c {
            SCon::Var(span, x) => {
                if let Some(Entry::CVar(sym)) = self.lookup(x) {
                    let sym = *sym;
                    let kind = env
                        .lookup_con(&sym)
                        .map(|b| b.kind.clone())
                        .ok_or_else(|| {
                            ElabError::new(*span, format!("constructor {x} escaped its scope"))
                        })?;
                    return Ok((Con::var(&sym), kind));
                }
                // Pseudo-constants with per-occurrence fresh kinds (the
                // paper's library uses kind polymorphism for these).
                match x.as_str() {
                    "map" => {
                        let k1 = self.cx.metas.fresh_kind();
                        let k2 = self.cx.metas.fresh_kind();
                        let kind = Kind::arrow(
                            Kind::arrow(k1.clone(), k2.clone()),
                            Kind::arrow(Kind::row(k1.clone()), Kind::row(k2.clone())),
                        );
                        Ok((Con::map_c(k1, k2), kind))
                    }
                    "fst" | "snd" => {
                        let k1 = self.cx.metas.fresh_kind();
                        let k2 = self.cx.metas.fresh_kind();
                        let p = Sym::fresh("p");
                        let pk = Kind::pair(k1.clone(), k2.clone());
                        let (body, out) = if x == "fst" {
                            (Con::fst(Con::var(&p)), k1)
                        } else {
                            (Con::snd(Con::var(&p)), k2)
                        };
                        Ok((
                            Con::lam(p, pk.clone(), body),
                            Kind::arrow(pk, out),
                        ))
                    }
                    "folder" => {
                        let k = self.cx.metas.fresh_kind();
                        Ok((
                            Con::folder(k.clone()),
                            Kind::arrow(Kind::row(k), Kind::Type),
                        ))
                    }
                    "int" => Ok((Con::int(), Kind::Type)),
                    "float" => Ok((Con::float(), Kind::Type)),
                    "string" => Ok((Con::string(), Kind::Type)),
                    "bool" => Ok((Con::bool_(), Kind::Type)),
                    "unit" => Ok((Con::unit(), Kind::Type)),
                    _ => Err(ElabError::new(
                        *span,
                        format!("unbound type-level identifier {x}"),
                    )),
                }
            }
            SCon::Name(_, n) => Ok((Con::name(n.as_str()), Kind::Name)),
            SCon::Record(span, inner) => {
                let (row, _) =
                    self.elab_con(env, inner, Some(&Kind::row(Kind::Type)))?;
                let _ = span;
                Ok((Con::record(row), Kind::Type))
            }
            SCon::RowLit(span, entries) => {
                let elem = self.cx.metas.fresh_kind();
                let mut fields = Vec::new();
                for (nc, vc) in entries {
                    let name = self.elab_field_name(env, nc)?;
                    let value = match vc {
                        Some(vc) => {
                            let (v, _) = self.elab_con(env, vc, Some(&elem))?;
                            v
                        }
                        None => {
                            // `[nm]` in constraint position: the value is
                            // irrelevant to disjointness; use unit.
                            unify_kind(&mut self.cx, &elem, &Kind::Type).map_err(|e| {
                                ElabError::new(*span, format!("row literal: {e}"))
                            })?;
                            Con::unit()
                        }
                    };
                    fields.push((name, value));
                }
                Ok((
                    Con::row_of(elem.clone(), fields),
                    Kind::row(elem),
                ))
            }
            SCon::RecordType(_, fields) => {
                let mut row = Vec::new();
                for (nc, tc) in fields {
                    let name = self.elab_field_name(env, nc)?;
                    let (t, _) = self.elab_con(env, tc, Some(&Kind::Type))?;
                    row.push((name, t));
                }
                Ok((
                    Con::record(Con::row_of(Kind::Type, row)),
                    Kind::Type,
                ))
            }
            SCon::Cat(span, a, b) => {
                let elem = self.cx.metas.fresh_kind();
                let rk = Kind::row(elem);
                let (ca, _) = self.elab_con(env, a, Some(&rk))?;
                let (cb, _) = self.elab_con(env, b, Some(&rk))?;
                // Figure 2's side condition on concatenation becomes a
                // queued disjointness obligation.
                self.require_disjoint(
                    env,
                    *span,
                    ca,
                    cb,
                    "row concatenation",
                )?;
                Ok((Con::row_cat(ca, cb), rk))
            }
            SCon::App(span, f, a) => {
                let (cf, kf) = self.elab_con_inner(env, f)?;
                match self.cx.metas.resolve_kind(&kf) {
                    Kind::Arrow(dom, ran) => {
                        let (ca, _) = self.elab_con(env, a, Some(&dom))?;
                        Ok((Con::app(cf, ca), (*ran).clone()))
                    }
                    Kind::Meta(_) => {
                        let (ca, ka) = self.elab_con_inner(env, a)?;
                        let ran = self.cx.metas.fresh_kind();
                        unify_kind(&mut self.cx, &kf, &Kind::arrow(ka, ran.clone()))
                            .map_err(|e| ElabError::new(*span, e))?;
                        Ok((Con::app(cf, ca), ran))
                    }
                    other => Err(ElabError::new(
                        *span,
                        format!("{cf} of kind {other} is applied like a function"),
                    )),
                }
            }
            SCon::Lam(_, x, k, body) => {
                let kind = match k {
                    Some(k) => self.elab_kind(k),
                    None => self.cx.metas.fresh_kind(),
                };
                let sym = Sym::fresh(x.as_str());
                self.push_frame();
                self.bind_scope(x, Entry::CVar(sym));
                let mut env2 = env.clone();
                env2.bind_con(sym, kind.clone());
                let result = self.elab_con_inner(&env2, body);
                self.pop_frame();
                let (cb, kb) = result?;
                Ok((
                    Con::lam(sym, kind.clone(), cb),
                    Kind::arrow(kind, kb),
                ))
            }
            SCon::Arrow(_, a, b) => {
                let (ca, _) = self.elab_con(env, a, Some(&Kind::Type))?;
                let (cb, _) = self.elab_con(env, b, Some(&Kind::Type))?;
                Ok((Con::arrow(ca, cb), Kind::Type))
            }
            SCon::Poly(_, x, k, body) => {
                let kind = self.elab_kind(k);
                let sym = Sym::fresh(x.as_str());
                self.push_frame();
                self.bind_scope(x, Entry::CVar(sym));
                let mut env2 = env.clone();
                env2.bind_con(sym, kind.clone());
                let result = self.elab_con(&env2, body, Some(&Kind::Type));
                self.pop_frame();
                let (cb, _) = result?;
                Ok((Con::poly(sym, kind, cb), Kind::Type))
            }
            SCon::Guarded(_, c1, c2, body) => {
                let k1 = Kind::row(self.cx.metas.fresh_kind());
                let k2 = Kind::row(self.cx.metas.fresh_kind());
                let (cc1, _) = self.elab_con(env, c1, Some(&k1))?;
                let (cc2, _) = self.elab_con(env, c2, Some(&k2))?;
                let mut env2 = env.clone();
                env2.assume_disjoint(cc1, cc2);
                let (cb, _) = self.elab_con(&env2, body, Some(&Kind::Type))?;
                Ok((Con::guarded(cc1, cc2, cb), Kind::Type))
            }
            SCon::Pair(_, a, b) => {
                let (ca, ka) = self.elab_con_inner(env, a)?;
                let (cb, kb) = self.elab_con_inner(env, b)?;
                Ok((Con::pair(ca, cb), Kind::pair(ka, kb)))
            }
            SCon::Fst(span, p) => {
                let (cp, kp) = self.elab_con_inner(env, p)?;
                let k1 = self.cx.metas.fresh_kind();
                let k2 = self.cx.metas.fresh_kind();
                unify_kind(&mut self.cx, &kp, &Kind::pair(k1.clone(), k2))
                    .map_err(|e| ElabError::new(*span, e))?;
                Ok((Con::fst(cp), k1))
            }
            SCon::Snd(span, p) => {
                let (cp, kp) = self.elab_con_inner(env, p)?;
                let k1 = self.cx.metas.fresh_kind();
                let k2 = self.cx.metas.fresh_kind();
                unify_kind(&mut self.cx, &kp, &Kind::pair(k1, k2.clone()))
                    .map_err(|e| ElabError::new(*span, e))?;
                Ok((Con::snd(cp), k2))
            }
            SCon::Wild(span) => {
                let kind = self.cx.metas.fresh_kind();
                let m = self
                    .cx
                    .metas
                    .fresh_con(kind.clone(), format!("wildcard at {span}"));
                Ok((m, kind))
            }
        }
    }

    /// Elaborates a field-name position: a bound constructor variable of
    /// kind `Name` refers to that variable; anything else is a literal
    /// name.
    fn elab_field_name(&mut self, env: &Env, c: &SCon) -> EResult<RCon> {
        match c {
            SCon::Name(_, n) => Ok(Con::name(n.as_str())),
            SCon::Var(_, x) => {
                if let Some(Entry::CVar(sym)) = self.lookup(x) {
                    let sym = *sym;
                    if let Some(b) = env.lookup_con(&sym) {
                        let kind = b.kind.clone();
                        if unify_kind(&mut self.cx, &kind, &Kind::Name).is_ok() {
                            return Ok(Con::var(&sym));
                        }
                    }
                }
                Ok(Con::name(x.as_str()))
            }
            other => {
                let (cc, _) = self.elab_con(env, other, Some(&Kind::Name))?;
                Ok(cc)
            }
        }
    }

    // ---------------- expressions ----------------

    /// Elaborates an expression. `mode` is `Some(t)` for checking mode.
    pub fn elab_expr(
        &mut self,
        env: &Env,
        e: &SExpr,
        mode: Option<&RCon>,
    ) -> EResult<(RExpr, RCon)> {
        match e {
            SExpr::App(_, _, _)
            | SExpr::CApp(_, _, _)
            | SExpr::Bang(_, _)
            | SExpr::Var(_, _)
            | SExpr::Explicit(_, _) => self.elab_spine(env, e, mode),
            SExpr::Lit(span, l) => {
                let (le, ty) = match l {
                    SLit::Int(n) => (Lit::Int(*n), Con::int()),
                    SLit::Float(x) => (Lit::Float(*x), Con::float()),
                    SLit::Str(s) => (Lit::Str(s.as_str().into()), Con::string()),
                    SLit::Bool(b) => (Lit::Bool(*b), Con::bool_()),
                    SLit::Unit => (Lit::Unit, Con::unit()),
                };
                let ee = Expr::lit(le);
                self.finish_mode(env, *span, ee, ty, mode)
            }
            SExpr::Fn(span, params, body) => match mode {
                Some(expected) => self.check_fn(env, *span, params, body, expected),
                None => self.infer_fn(env, *span, params, body),
            },
            SExpr::Record(span, fields) => {
                // Checking mode against a fully determined record type:
                // check each field against its expected type (so
                // polymorphic field values are instantiated).
                if let Some(expected) = mode {
                    let exp_h = hnf(env, &mut self.cx, expected);
                    if let Con::Record(row) = &*exp_h {
                        let row = *row;
                        let mut nf = normalize_row(env, &mut self.cx, &row);
                        // Reverse-engineering (§4.2) driven by the literal:
                        // an expected row `map f ?m` gets `?m` pre-solved to
                        // a skeleton with the literal's field names, making
                        // the expectation fully determined.
                        if nf.fields.is_empty() && nf.atoms.len() == 1 {
                            if let (Some((_, dom)), Some(meta)) =
                                (nf.atoms[0].map.clone(), nf.atoms[0].base_meta())
                            {
                                let mut skel = Vec::new();
                                let mut ok = true;
                                for (nc, _) in fields {
                                    let name = self.elab_field_name(env, nc)?;
                                    if !matches!(&*name, Con::Name(_)) {
                                        ok = false;
                                        break;
                                    }
                                    let a = self.cx.metas.fresh_con(
                                        dom.clone(),
                                        format!("element for field {name} at {span}"),
                                    );
                                    skel.push((name, a));
                                }
                                if ok {
                                    let sol = Con::row_of(dom.clone(), skel);
                                    debug_assert!(!self.cx.metas.occurs(meta, &sol));
                                    self.cx.metas.solve(meta, sol);
                                    self.cx.stats.reverse_engineered += 1;
                                    nf = normalize_row(env, &mut self.cx, &row);
                                }
                            }
                        }
                        let all_lit = nf
                            .fields
                            .iter()
                            .all(|(k, _)| matches!(k, FieldKey::Lit(_)));
                        if nf.atoms.is_empty() && all_lit && nf.fields.len() == fields.len()
                        {
                            return self.check_record(env, *span, fields, &nf, &exp_h);
                        }
                    }
                }
                let mut core_fields = Vec::new();
                let mut row_fields: Vec<(RCon, RCon)> = Vec::new();
                let mut seen: HashSet<String> = HashSet::new();
                // Literal field names are proved pairwise-distinct by the
                // `seen` set in O(1) each; only computed (neutral) names
                // need the disjointness prover. Without this, an n-field
                // literal costs O(n²) normalization work.
                let mut all_names_lit = true;
                for (nc, ve) in fields {
                    let name = self.elab_field_name(env, nc)?;
                    let name_is_lit = if let Con::Name(n) = &*name {
                        if !seen.insert(n.to_string()) {
                            return Err(ElabError::new(
                                *span,
                                format!("duplicate field #{n} in record literal"),
                            ));
                        }
                        true
                    } else {
                        false
                    };
                    let (ev, tv) = self.elab_expr(env, ve, None)?;
                    // Record fields are monomorphic (ML-style): a
                    // polymorphic field value is instantiated with fresh
                    // metavariables; annotate to keep polymorphism.
                    let (ev, tv) = self.instantiate_implicits(env, *span, ev, tv)?;
                    let lit_so_far = name_is_lit && all_names_lit;
                    if !lit_so_far && !row_fields.is_empty() {
                        let single = Con::row_one(name, tv);
                        let acc = Con::row_of(Kind::Type, row_fields.clone());
                        self.require_disjoint(
                            env,
                            *span,
                            single,
                            acc,
                            "record literal",
                        )?;
                    }
                    all_names_lit &= name_is_lit;
                    core_fields.push((name, ev));
                    row_fields.push((name, tv));
                }
                let ee = Expr::record(core_fields);
                let ty = Con::record(Con::row_of(Kind::Type, row_fields));
                self.finish_mode(env, *span, ee, ty, mode)
            }
            SExpr::Proj(span, inner, field) => {
                let (ee, te) = self.elab_expr(env, inner, None)?;
                let name = self.elab_field_name(env, field)?;
                let row = self.expect_record_row(env, *span, &te)?;
                let fty = self.field_type(env, *span, &row, &name)?;
                let out = Expr::proj(ee, name);
                self.finish_mode(env, *span, out, fty, mode)
            }
            SExpr::Cut(span, inner, field) => {
                let (ee, te) = self.elab_expr(env, inner, None)?;
                let name = self.elab_field_name(env, field)?;
                let row = self.expect_record_row(env, *span, &te)?;
                let rest = self.cut_row(env, *span, &row, &name)?;
                let out = Expr::cut(ee, name);
                self.finish_mode(env, *span, out, Con::record(rest), mode)
            }
            SExpr::Cat(span, a, b) => {
                let (ea, ta) = self.elab_expr(env, a, None)?;
                let (eb, tb) = self.elab_expr(env, b, None)?;
                let ra = self.expect_record_row(env, *span, &ta)?;
                let rb = self.expect_record_row(env, *span, &tb)?;
                self.require_disjoint(
                    env,
                    *span,
                    ra,
                    rb,
                    "record concatenation",
                )?;
                let out = Expr::rec_cat(ea, eb);
                self.finish_mode(env, *span, out, Con::record(Con::row_cat(ra, rb)), mode)
            }
            SExpr::BinOp(span, op, a, b) => {
                let fname = binop_name(op).ok_or_else(|| {
                    ElabError::new(*span, format!("unknown operator {op}"))
                })?;
                let call = SExpr::App(
                    *span,
                    Box::new(SExpr::App(
                        *span,
                        Box::new(SExpr::Var(*span, fname.to_string())),
                        a.clone(),
                    )),
                    b.clone(),
                );
                self.elab_expr(env, &call, mode)
            }
            SExpr::Let(span, decls, body) => {
                self.push_frame();
                let mut env2 = env.clone();
                let mut bindings = Vec::new();
                for d in decls {
                    if let Some(b) = self.elab_let_decl(&mut env2, d)? {
                        bindings.push(b);
                    }
                }
                let result = self.elab_expr(&env2, body, mode);
                self.pop_frame();
                let (mut ee, ty) = result?;
                for (sym, bty, bound) in bindings.into_iter().rev() {
                    ee = Expr::let_(sym, bty, bound, ee);
                }
                let _ = span;
                Ok((ee, ty))
            }
            SExpr::If(span, c, t, el) => {
                let (ec, _) = self.elab_expr(env, c, Some(&Con::bool_()))?;
                // Check both branches against a shared (possibly fresh)
                // type, so polymorphic branch expressions (e.g. `none`)
                // are instantiated.
                let target = match mode {
                    Some(m) => *m,
                    None => self
                        .cx
                        .metas
                        .fresh_con(Kind::Type, format!("type of if at {span}")),
                };
                let (et, _) = self.elab_expr(env, t, Some(&target))?;
                let (ee, _) = self.elab_expr(env, el, Some(&target))?;
                Ok((Expr::if_(ec, et, ee), target))
            }
            SExpr::Ann(span, inner, tc) => {
                let (ty, _) = self.elab_con(env, tc, Some(&Kind::Type))?;
                let (ee, _) = self.elab_expr(env, inner, Some(&ty))?;
                self.finish_mode(env, *span, ee, ty, mode)
            }
        }
    }

    /// Instantiates leading `Poly`/`Guarded` layers of `ty` with fresh
    /// metavariables / inferred proofs, rewriting the term accordingly.
    fn instantiate_implicits(
        &mut self,
        env: &Env,
        span: Span,
        mut ee: RExpr,
        mut ty: RCon,
    ) -> EResult<(RExpr, RCon)> {
        loop {
            let ty_h = hnf(env, &mut self.cx, &ty);
            match &*ty_h {
                Con::Poly(a, k, body) => {
                    let m = self.cx.metas.fresh_con(
                        k.clone(),
                        format!("implicit argument {a} at {span}"),
                    );
                    ee = Expr::capp(ee, m);
                    ty = subst(body, a, &m);
                }
                Con::Guarded(c1, c2, body) => {
                    self.require_disjoint(
                        env,
                        span,
                        *c1,
                        *c2,
                        "disjointness obligation",
                    )?;
                    ee = Expr::dapp(ee);
                    ty = *body;
                }
                _ => return Ok((ee, ty)),
            }
        }
    }

    /// In checking mode, unifies the inferred type with the expectation.
    fn finish_mode(
        &mut self,
        env: &Env,
        span: Span,
        ee: RExpr,
        ty: RCon,
        mode: Option<&RCon>,
    ) -> EResult<(RExpr, RCon)> {
        if let Some(expected) = mode {
            self.require_eq(
                env,
                span,
                ty,
                *expected,
                "type mismatch",
            )?;
        }
        Ok((ee, ty))
    }

    /// Checks a record literal field-by-field against a fully determined
    /// expected row.
    fn check_record(
        &mut self,
        env: &Env,
        span: Span,
        fields: &[(ur_syntax::ast::SCon, SExpr)],
        nf: &ur_core::row::RowNf,
        expected: &RCon,
    ) -> EResult<(RExpr, RCon)> {
        let mut core_fields = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for (nc, ve) in fields {
            let name = self.elab_field_name(env, nc)?;
            let name_h = hnf(env, &mut self.cx, &name);
            let Con::Name(n) = &*name_h else {
                return Err(ElabError::new(
                    span,
                    format!("record field {name_h} must be a literal name here"),
                ));
            };
            if !seen.insert(n.to_string()) {
                return Err(ElabError::new(
                    span,
                    format!("duplicate field #{n} in record literal"),
                ));
            }
            let Some(want) = nf.field_lit(n) else {
                return Err(ElabError::new(
                    span,
                    format!("record type {expected} has no field #{n}"),
                ));
            };
            let want = *want;
            let (ev, _) = self.elab_expr(env, ve, Some(&want))?;
            core_fields.push((name_h, ev));
        }
        Ok((Expr::record(core_fields), (*expected)))
    }

    /// Requires `t` to be a record type, returning its row (introducing a
    /// metavariable when `t` is not yet determined).
    fn expect_record_row(&mut self, env: &Env, span: Span, t: &RCon) -> EResult<RCon> {
        let t_h = hnf(env, &mut self.cx, t);
        match &*t_h {
            Con::Record(r) => Ok(*r),
            _ => {
                let row = self
                    .cx
                    .metas
                    .fresh_con(Kind::row(Kind::Type), format!("record row at {span}"));
                self.require_eq(
                    env,
                    span,
                    t_h,
                    Con::record(row),
                    "record expected",
                )?;
                Ok(row)
            }
        }
    }

    /// The type of field `name` in `row`: direct lookup when possible,
    /// otherwise via the unification `row = [name = ?a] ++ ?rest`.
    fn field_type(&mut self, env: &Env, span: Span, row: &RCon, name: &RCon) -> EResult<RCon> {
        let nf = normalize_row(env, &mut self.cx, row);
        let name_h = hnf(env, &mut self.cx, name);
        for (key, v) in &nf.fields {
            let hit = match (&*name_h, key) {
                (Con::Name(n), FieldKey::Lit(m)) => n == m,
                (_, FieldKey::Neutral(k)) => {
                    let k = *k;
                    ur_core::defeq::defeq(env, &mut self.cx, &name_h, &k)
                }
                _ => false,
            };
            if hit {
                // The declarative rule reads e : $([c = t] ++ c');
                // well-formedness of that concatenation is a disjointness
                // obligation (this is the prover's main workload in Fig. 5).
                let v = *v;
                let rest = self.cut_row_direct(env, &nf, &name_h);
                self.require_disjoint(
                    env,
                    span,
                    Con::row_one(name_h, v),
                    rest,
                    "field projection",
                )?;
                return Ok(v);
            }
        }
        if nf.atoms.is_empty() {
            return Err(ElabError::new(
                span,
                format!(
                    "record type ${} has no field {name_h}",
                    self.cx.metas.zonk(row)
                ),
            ));
        }
        let a = self
            .cx
            .metas
            .fresh_con(Kind::Type, format!("type of field {name_h} at {span}"));
        let rest = self
            .cx
            .metas
            .fresh_con(Kind::row(Kind::Type), format!("row rest at {span}"));
        let single = Con::row_one(name_h, a);
        self.require_disjoint(
            env,
            span,
            single,
            rest,
            "field projection",
        )?;
        self.require_eq(
            env,
            span,
            *row,
            Con::row_cat(single, rest),
            "field projection",
        )?;
        Ok(a)
    }

    /// The row of `nf` without field `name` (which must be present),
    /// used to phrase projection disjointness obligations.
    fn cut_row_direct(
        &mut self,
        env: &Env,
        nf: &ur_core::row::RowNf,
        name: &RCon,
    ) -> RCon {
        let mut out = nf.clone();
        out.fields.clear();
        let mut removed = false;
        for (key, v) in &nf.source_fields {
            let hit = !removed
                && match (&**name, key) {
                    (Con::Name(n), FieldKey::Lit(m)) => n == m,
                    (_, FieldKey::Neutral(k)) => {
                        let k = *k;
                        ur_core::defeq::defeq(env, &mut self.cx, name, &k)
                    }
                    _ => false,
                };
            if hit {
                removed = true;
            } else {
                out.fields.push((key.clone(), (*v)));
            }
        }
        out.to_con()
    }

    /// The row remaining after cutting `name` from `row`.
    fn cut_row(&mut self, env: &Env, span: Span, row: &RCon, name: &RCon) -> EResult<RCon> {
        let nf = normalize_row(env, &mut self.cx, row);
        let name_h = hnf(env, &mut self.cx, name);
        if nf.atoms.is_empty() {
            // Fully determined: remove directly.
            let mut out = Vec::new();
            let mut found = false;
            for (key, v) in &nf.source_fields {
                let hit = !found
                    && match (&*name_h, key) {
                        (Con::Name(n), FieldKey::Lit(m)) => n == m,
                        (_, FieldKey::Neutral(k)) => {
                            let k = *k;
                            ur_core::defeq::defeq(env, &mut self.cx, &name_h, &k)
                        }
                        _ => false,
                    };
                if hit {
                    found = true;
                } else {
                    out.push((key.to_con(), (*v)));
                }
            }
            if !found {
                return Err(ElabError::new(
                    span,
                    format!(
                        "record type ${} has no field {name_h} to remove",
                        self.cx.metas.zonk(row)
                    ),
                ));
            }
            let rest = Con::row_of(nf.kind_or_type(), out);
            self.require_disjoint(
                env,
                span,
                Con::row_one(name_h, Con::unit()),
                rest,
                "field removal",
            )?;
            return Ok(rest);
        }
        let a = self
            .cx
            .metas
            .fresh_con(Kind::Type, format!("type of removed field at {span}"));
        let rest = self
            .cx
            .metas
            .fresh_con(Kind::row(Kind::Type), format!("row rest at {span}"));
        let single = Con::row_one(name_h, a);
        self.require_disjoint(
            env,
            span,
            single,
            rest,
            "field removal",
        )?;
        self.require_eq(
            env,
            span,
            *row,
            Con::row_cat(single, rest),
            "field removal",
        )?;
        Ok(rest)
    }

    // ---------------- application spines ----------------

    fn elab_spine(
        &mut self,
        env: &Env,
        e: &SExpr,
        mode: Option<&RCon>,
    ) -> EResult<(RExpr, RCon)> {
        let mut args = Vec::new();
        let head = flatten_spine(e, &mut args);
        let span = e.span();
        // `@f ...`: pass folder arguments explicitly (real Ur's
        // explicitness marker).
        let (head, explicit_folders) = match head {
            SExpr::Explicit(_, inner) => (&**inner, true),
            other => (other, false),
        };
        let (mut ee, mut ty) = self.elab_head(env, head)?;
        let mut idx = 0;

        loop {
            let ty_h = hnf(env, &mut self.cx, &ty);
            match &*ty_h {
                Con::Poly(a, k, body) => {
                    if let Some(SpArg::C(c, cspan)) = args.get(idx) {
                        let (cc, _) = self.elab_con(env, c, Some(k))?;
                        ee = Expr::capp(ee, cc);
                        ty = subst(body, a, &cc);
                        let _ = cspan;
                        idx += 1;
                        continue;
                    }
                    let more_args = idx < args.len();
                    let must_instantiate = more_args
                        || mode.is_some_and(|m| {
                            let m_h = hnf(env, &mut self.cx, m);
                            !matches!(&*m_h, Con::Poly(_, _, _))
                        });
                    if must_instantiate {
                        let m = self.cx.metas.fresh_con(
                            k.clone(),
                            format!("implicit argument {a} at {span}"),
                        );
                        ee = Expr::capp(ee, m);
                        ty = subst(body, a, &m);
                        continue;
                    }
                    break;
                }
                Con::Guarded(c1, c2, body) => {
                    let explicit = matches!(args.get(idx), Some(SpArg::B(_)));
                    let more_args = idx < args.len();
                    let must_discharge = explicit
                        || more_args
                        || mode.is_some_and(|m| {
                            let m_h = hnf(env, &mut self.cx, m);
                            !matches!(&*m_h, Con::Guarded(_, _, _))
                        });
                    if !must_discharge {
                        break;
                    }
                    self.require_disjoint(
                        env,
                        span,
                        *c1,
                        *c2,
                        "disjointness obligation",
                    )?;
                    ee = Expr::dapp(ee);
                    ty = *body;
                    if explicit {
                        idx += 1;
                    }
                    continue;
                }
                Con::Arrow(dom, ran) => {
                    let Some(arg) = args.get(idx) else { break };
                    match arg {
                        SpArg::E(ae) => {
                            // Omitted folder arguments become holes filled
                            // after inference (§4.4) — unless the user
                            // passes a folder-typed variable explicitly.
                            if let Some((fk, row)) = self.folder_row(env, dom) {
                                if !explicit_folders && !self.arg_is_folder_var(env, ae) {
                                    let hole = Sym::fresh("fl");
                                    self.holes.push(Hole {
                                        sym: hole,
                                        row,
                                        elem_kind: fk,
                                        env: env.clone(),
                                        span,
                                    });
                                    ee = Expr::app(ee, Expr::var(&hole));
                                    ty = *ran;
                                    continue;
                                }
                            }
                            let dom = *dom;
                            let ran = *ran;
                            let (ea, _) = self.elab_expr(env, ae, Some(&dom))?;
                            ee = Expr::app(ee, ea);
                            ty = ran;
                            idx += 1;
                        }
                        SpArg::C(_, cspan) => {
                            return Err(ElabError::new(
                                *cspan,
                                format!(
                                    "explicit constructor argument given, but the function \
                                     expects a value of type {dom}"
                                ),
                            ))
                        }
                        SpArg::B(bspan) => {
                            return Err(ElabError::new(
                                *bspan,
                                "`!` used, but the function type has no constraint here"
                                    .to_string(),
                            ))
                        }
                    }
                }
                // A folder being *used* as a function: unfold its
                // definition.
                Con::App(_, _) if idx < args.len() => {
                    if let Some((k, row)) = ur_core::folder::as_folder_app(&ty_h) {
                        let k = self.cx.metas.zonk_kind(&k);
                        ty = unfold_folder(&k, &row);
                        continue;
                    }
                    if idx < args.len() {
                        return Err(ElabError::new(
                            span,
                            format!("expression of type {ty_h} is applied like a function"),
                        ));
                    }
                    break;
                }
                Con::Meta(_) => {
                    if let Some(SpArg::E(_)) = args.get(idx) {
                        let d = self
                            .cx
                            .metas
                            .fresh_con(Kind::Type, format!("argument type at {span}"));
                        let r = self
                            .cx
                            .metas
                            .fresh_con(Kind::Type, format!("result type at {span}"));
                        self.require_eq(
                            env,
                            span,
                            ty_h,
                            Con::arrow(d, r),
                            "application of unknown function",
                        )?;
                        continue;
                    }
                    break;
                }
                _ => {
                    if idx < args.len() {
                        return Err(ElabError::new(
                            span,
                            format!("expression of type {ty_h} is applied like a function"),
                        ));
                    }
                    break;
                }
            }
        }

        self.finish_mode(env, span, ee, ty, mode)
    }

    fn elab_head(&mut self, env: &Env, head: &SExpr) -> EResult<(RExpr, RCon)> {
        match head {
            SExpr::Var(span, x) => match self.lookup(x) {
                Some(Entry::Val(sym)) => {
                    let sym = *sym;
                    let ty = env.lookup_val(&sym).cloned().ok_or_else(|| {
                        ElabError::new(*span, format!("variable {x} escaped its scope"))
                    })?;
                    Ok((Expr::var(&sym), ty))
                }
                Some(Entry::CVar(_)) => Err(ElabError::new(
                    *span,
                    format!("{x} is a type-level variable, not a value"),
                )),
                None => Err(ElabError::new(*span, format!("unbound variable {x}"))),
            },
            other => self.elab_expr(env, other, None),
        }
    }

    /// If `t` head-normalizes to `folder r`, returns the element kind and
    /// `r`.
    fn folder_row(&mut self, env: &Env, t: &RCon) -> Option<(Kind, RCon)> {
        let t = hnf(env, &mut self.cx, t);
        let (head, args) = t.spine();
        let head = hnf(env, &mut self.cx, &head);
        match (&*head, args.len()) {
            (Con::Folder(k), 1) => Some((k.clone(), args[0])),
            _ => None,
        }
    }

    /// True when the surface argument is a variable whose type is a folder
    /// (so the user is passing a folder explicitly).
    fn arg_is_folder_var(&mut self, env: &Env, e: &SExpr) -> bool {
        if let SExpr::Var(_, x) = e {
            if let Some(Entry::Val(sym)) = self.lookup(x) {
                let sym = *sym;
                if let Some(t) = env.lookup_val(&sym).cloned() {
                    return self.folder_row(env, &t).is_some();
                }
            }
        }
        false
    }

    // ---------------- functions ----------------

    fn check_fn(
        &mut self,
        env: &Env,
        span: Span,
        params: &[SParam],
        body: &SExpr,
        expected: &RCon,
    ) -> EResult<(RExpr, RCon)> {
        self.push_frame();
        let result = self.check_fn_inner(env, span, params, body, expected);
        self.pop_frame();
        result
    }

    fn check_fn_inner(
        &mut self,
        env: &Env,
        span: Span,
        params: &[SParam],
        body: &SExpr,
        expected: &RCon,
    ) -> EResult<(RExpr, RCon)> {
        let Some(param) = params.first() else {
            let (ee, _) = self.elab_expr(env, body, Some(expected))?;
            return Ok((ee, (*expected)));
        };
        let mut exp_h = hnf(env, &mut self.cx, expected);
        // Folder values can be written literally (`fn [tf] step init => ...`);
        // unfold the expected folder type to its polymorphic fold form.
        if let Some((k, r)) = ur_core::folder::as_folder_app(&exp_h) {
            let k = self.cx.metas.zonk_kind(&k);
            exp_h = unfold_folder(&k, &r);
        }
        match (param, &*exp_h) {
            (SParam::CParam(x, kann), Con::Poly(a, k, t)) => {
                if let Some(kann) = kann {
                    let ka = self.elab_kind(kann);
                    unify_kind(&mut self.cx, &ka, k)
                        .map_err(|e| ElabError::new(span, e))?;
                }
                let sym = Sym::fresh(x.as_str());
                self.bind_scope(x, Entry::CVar(sym));
                let mut env2 = env.clone();
                env2.bind_con(sym, k.clone());
                let inner = subst(t, a, &Con::var(&sym));
                let (eb, _) = self.check_fn_inner(&env2, span, &params[1..], body, &inner)?;
                Ok((
                    Expr::clam(sym, k.clone(), eb),
                    exp_h,
                ))
            }
            (SParam::DParam(c1, c2), Con::Guarded(g1, g2, t)) => {
                // The binder *names* the assumption; the core term carries
                // the expected guard. (In the paper's §2.3 selector the
                // written `[rest ~ r]` stands for the substituted guard
                // `[rest ~ [nm = t] ++ r]`.) We unify the written
                // constructors best-effort to propagate metavariables, and
                // assume both forms as facts.
                let (cc1, _) = self.elab_con(env, c1, None)?;
                let (cc2, _) = self.elab_con(env, c2, None)?;
                let _ = unify(env, &mut self.cx, &cc1, g1);
                let _ = unify(env, &mut self.cx, &cc2, g2);
                let mut env2 = env.clone();
                env2.assume_disjoint(*g1, *g2);
                env2.assume_disjoint(cc1, cc2);
                let (eb, _) = self.check_fn_inner(&env2, span, &params[1..], body, t)?;
                Ok((
                    Expr::dlam(*g1, *g2, eb),
                    exp_h,
                ))
            }
            (SParam::VParam(x, tann), Con::Arrow(dom, ran)) => {
                if let Some(tann) = tann {
                    let (ta, _) = self.elab_con(env, tann, Some(&Kind::Type))?;
                    self.require_eq(
                        env,
                        span,
                        ta,
                        *dom,
                        "parameter annotation",
                    )?;
                }
                let sym = Sym::fresh(x.as_str());
                self.bind_scope(x, Entry::Val(sym));
                let mut env2 = env.clone();
                env2.bind_val(sym, *dom);
                let (eb, _) = self.check_fn_inner(&env2, span, &params[1..], body, ran)?;
                Ok((
                    Expr::lam(sym, *dom, eb),
                    exp_h,
                ))
            }
            (SParam::VParam(x, tann), Con::Meta(_)) => {
                // Unknown expected type: invent an arrow and retry.
                let dom = match tann {
                    Some(tann) => self.elab_con(env, tann, Some(&Kind::Type))?.0,
                    None => self
                        .cx
                        .metas
                        .fresh_con(Kind::Type, format!("parameter {x} at {span}")),
                };
                let ran = self
                    .cx
                    .metas
                    .fresh_con(Kind::Type, format!("function body type at {span}"));
                self.require_eq(
                    env,
                    span,
                    exp_h,
                    Con::arrow(dom, ran),
                    "function against unknown type",
                )?;
                let sym = Sym::fresh(x.as_str());
                self.bind_scope(x, Entry::Val(sym));
                let mut env2 = env.clone();
                env2.bind_val(sym, dom);
                let (eb, _) = self.check_fn_inner(&env2, span, &params[1..], body, &ran)?;
                Ok((Expr::lam(sym, dom, eb), exp_h))
            }
            (p, _) => Err(ElabError::new(
                span,
                format!(
                    "function parameter {} does not match expected type {}",
                    param_desc(p),
                    self.cx.metas.zonk(&exp_h)
                ),
            )),
        }
    }

    fn infer_fn(
        &mut self,
        env: &Env,
        span: Span,
        params: &[SParam],
        body: &SExpr,
    ) -> EResult<(RExpr, RCon)> {
        self.push_frame();
        let result = self.infer_fn_inner(env, span, params, body);
        self.pop_frame();
        result
    }

    fn infer_fn_inner(
        &mut self,
        env: &Env,
        span: Span,
        params: &[SParam],
        body: &SExpr,
    ) -> EResult<(RExpr, RCon)> {
        let Some(param) = params.first() else {
            let (ee, ty) = self.elab_expr(env, body, None)?;
            // The body of a *value* lambda is monomorphic (annotate the
            // result type to return something polymorphic).
            return self.instantiate_implicits(env, span, ee, ty);
        };
        match param {
            SParam::CParam(x, kann) => {
                let kind = match kann {
                    Some(k) => self.elab_kind(k),
                    None => self.cx.metas.fresh_kind(),
                };
                let sym = Sym::fresh(x.as_str());
                self.bind_scope(x, Entry::CVar(sym));
                let mut env2 = env.clone();
                env2.bind_con(sym, kind.clone());
                let (eb, tb) = self.infer_fn_inner(&env2, span, &params[1..], body)?;
                Ok((
                    Expr::clam(sym, kind.clone(), eb),
                    Con::poly(sym, kind, tb),
                ))
            }
            SParam::DParam(c1, c2) => {
                let k1 = Kind::row(self.cx.metas.fresh_kind());
                let k2 = Kind::row(self.cx.metas.fresh_kind());
                let (cc1, _) = self.elab_con(env, c1, Some(&k1))?;
                let (cc2, _) = self.elab_con(env, c2, Some(&k2))?;
                let mut env2 = env.clone();
                env2.assume_disjoint(cc1, cc2);
                let (eb, tb) = self.infer_fn_inner(&env2, span, &params[1..], body)?;
                Ok((
                    Expr::dlam(cc1, cc2, eb),
                    Con::guarded(cc1, cc2, tb),
                ))
            }
            SParam::VParam(x, tann) => {
                let dom = match tann {
                    Some(t) => self.elab_con(env, t, Some(&Kind::Type))?.0,
                    None => {
                        return Err(ElabError::new(
                            span,
                            format!(
                                "parameter {x} needs a type annotation (only metaprogram \
                                 *definitions* require annotations; uses do not)"
                            ),
                        ))
                    }
                };
                let sym = Sym::fresh(x.as_str());
                self.bind_scope(x, Entry::Val(sym));
                let mut env2 = env.clone();
                env2.bind_val(sym, dom);
                let (eb, tb) = self.infer_fn_inner(&env2, span, &params[1..], body)?;
                Ok((
                    Expr::lam(sym, dom, eb),
                    Con::arrow(dom, tb),
                ))
            }
        }
    }

    // ---------------- declarations ----------------

    pub(crate) fn elab_top_decl(&mut self, d: &SDecl) -> EResult<()> {
        match d {
            SDecl::ConAbs(_, name, k) => {
                let kind = self.elab_kind(k);
                let kind = finalize_kind(&self.cx, &kind);
                let sym = Sym::fresh(name.as_str());
                self.genv.bind_con(sym, kind.clone());
                self.bind_scope(name, Entry::CVar(sym));
                self.decls.push(ElabDecl::Con {
                    name: name.clone(),
                    sym,
                    kind,
                    def: None,
                });
                Ok(())
            }
            SDecl::ConDef(span, name, kann, c) => {
                let expect = kann.as_ref().map(|k| self.elab_kind(k));
                let env = self.genv.clone();
                let (cc, kind) = self.elab_con(&env, c, expect.as_ref())?;
                self.drain()?;
                let cc = finalize_con(&self.cx, &cc);
                let kind = finalize_kind(&self.cx, &kind);
                if let Some(m) = find_meta_con(&cc) {
                    return Err(ElabError::new(
                        *span,
                        format!(
                            "type definition {name} contains an undetermined part ({})",
                            self.cx.metas.origin_of(m)
                        ),
                    ));
                }
                let sym = Sym::fresh(name.as_str());
                self.genv.define_con(sym, kind.clone(), cc);
                self.bind_scope(name, Entry::CVar(sym));
                self.decls.push(ElabDecl::Con {
                    name: name.clone(),
                    sym,
                    kind,
                    def: Some(cc),
                });
                Ok(())
            }
            SDecl::ValAbs(span, name, t) => {
                let env = self.genv.clone();
                let (tc, _) = self.elab_con(&env, t, Some(&Kind::Type))?;
                self.drain()?;
                self.check_no_constraints(*span)?;
                let tc = finalize_con(&self.cx, &tc);
                if let Some(m) = find_meta_con(&tc) {
                    return Err(ElabError::new(
                        *span,
                        format!(
                            "declared type of {name} contains an undetermined part ({})",
                            self.cx.metas.origin_of(m)
                        ),
                    ));
                }
                let sym = Sym::fresh(name.as_str());
                self.genv.bind_val(sym, tc);
                self.bind_scope(name, Entry::Val(sym));
                self.decls.push(ElabDecl::Val {
                    name: name.clone(),
                    sym,
                    ty: tc,
                    body: None,
                });
                Ok(())
            }
            SDecl::Val(span, name, ann, e) => {
                let env = self.genv.clone();
                let (ee, ty) = match ann {
                    Some(t) => {
                        let (tc, _) = self.elab_con(&env, t, Some(&Kind::Type))?;
                        let (ee, _) = self.elab_expr(&env, e, Some(&tc))?;
                        (ee, tc)
                    }
                    None => self.elab_expr(&env, e, None)?,
                };
                self.finish_val(*span, name, ee, ty)
            }
            SDecl::Fun(span, name, params, ann, e) => {
                let body = match ann {
                    Some(t) => SExpr::Ann(*span, Box::new(e.clone()), t.clone()),
                    None => e.clone(),
                };
                let fn_expr = SExpr::Fn(*span, params.clone(), Box::new(body));
                let env = self.genv.clone();
                let (ee, ty) = self.elab_expr(&env, &fn_expr, None)?;
                self.finish_val(*span, name, ee, ty)
            }
        }
    }

    fn finish_val(&mut self, span: Span, name: &str, ee: RExpr, ty: RCon) -> EResult<()> {
        self.drain()?;
        let subs = self.fill_folders()?;
        self.drain()?;
        self.check_no_constraints(span)?;
        let mut ee = ee;
        for (hole, term) in subs {
            ee = replace_var(&ee, &hole, &term);
        }
        let ee = finalize_expr(&self.cx, &ee);
        let ty = finalize_con(&self.cx, &ty);
        if let Some(m) = find_meta_expr(&ee).or_else(|| find_meta_con(&ty)) {
            return Err(ElabError::new(
                span,
                format!(
                    "could not infer {} in declaration of {name}",
                    self.cx.metas.origin_of(m)
                ),
            ));
        }
        let sym = Sym::fresh(name);
        self.genv.bind_val(sym, ty);
        self.bind_scope(name, Entry::Val(sym));
        self.decls.push(ElabDecl::Val {
            name: name.to_string(),
            sym,
            ty,
            body: Some(ee),
        });
        Ok(())
    }

    /// Builds the E0900 diagnostic for an exhausted budget and resets the
    /// fuel so the session stays usable. The message names *which* budget
    /// ran out, how much of it was spent against its configured limit,
    /// and the `Limits` knob that raises it — so a user hitting E0900 on
    /// a legitimately large program knows exactly what to tune. (The
    /// "resource limit exhausted" prefix is what `error::classify` keys
    /// on; keep it stable.)
    pub(crate) fn resource_error(&mut self, span: Span, kind: ur_core::ResourceKind) -> ElabError {
        let limits = self.cx.fuel.limits;
        let (used, limit, knob) = match kind {
            ur_core::ResourceKind::NormSteps => (
                self.cx.fuel.norm_steps_used(),
                limits.max_norm_steps,
                "max_norm_steps",
            ),
            ur_core::ResourceKind::ProverPairs => (
                self.cx.fuel.prover_pairs_used(),
                limits.max_prover_pairs,
                "max_prover_pairs",
            ),
            ur_core::ResourceKind::Depth => (
                limits.max_depth as u64,
                limits.max_depth as u64,
                "max_depth",
            ),
            ur_core::ResourceKind::SolverRounds => (
                u64::from(limits.max_solver_rounds),
                u64::from(limits.max_solver_rounds),
                "max_solver_rounds",
            ),
        };
        self.cx.fuel.reset();
        ElabError::new(
            span,
            format!(
                "resource limit exhausted during inference: {kind} budget spent \
                 ({used} of {limit}; raise Limits::{knob} for larger programs)"
            ),
        )
        .with_code(ur_syntax::Code::ResourceExhausted)
    }

    fn check_no_constraints(&mut self, span: Span) -> EResult<()> {
        // Budget exhaustion dominates: leftover constraints are expected
        // when inference was cut short, and reporting them as "unsolved"
        // would bury the real cause.
        if let Some(kind) = self.cx.fuel.exhausted() {
            self.constraints.clear();
            return Err(self.resource_error(span, kind));
        }
        if let Some(p) = self.constraints.first() {
            let msg = match &p.goal {
                Goal::Eq(c1, c2) => format!(
                    "unsolved constraint ({}): {} = {}",
                    p.origin,
                    self.cx.metas.zonk(c1),
                    self.cx.metas.zonk(c2)
                ),
                Goal::Disj(c1, c2) => format!(
                    "unproved disjointness ({}): {} ~ {}",
                    p.origin,
                    self.cx.metas.zonk(c1),
                    self.cx.metas.zonk(c2)
                ),
            };
            let pspan = p.span;
            self.constraints.clear();
            let _ = span;
            return Err(ElabError::new(pspan, msg));
        }
        Ok(())
    }

    fn elab_let_decl(
        &mut self,
        env: &mut Env,
        d: &SDecl,
    ) -> EResult<Option<(Sym, RCon, RExpr)>> {
        match d {
            SDecl::Val(_, name, ann, e) => {
                let (ee, ty) = match ann {
                    Some(t) => {
                        let (tc, _) = self.elab_con(env, t, Some(&Kind::Type))?;
                        let (ee, _) = self.elab_expr(env, e, Some(&tc))?;
                        (ee, tc)
                    }
                    None => self.elab_expr(env, e, None)?,
                };
                let sym = Sym::fresh(name.as_str());
                env.bind_val(sym, ty);
                self.bind_scope(name, Entry::Val(sym));
                Ok(Some((sym, ty, ee)))
            }
            SDecl::Fun(span, name, params, ann, e) => {
                let body = match ann {
                    Some(t) => SExpr::Ann(*span, Box::new(e.clone()), t.clone()),
                    None => e.clone(),
                };
                let fn_expr = SExpr::Fn(*span, params.clone(), Box::new(body));
                let (ee, ty) = self.elab_expr(env, &fn_expr, None)?;
                let sym = Sym::fresh(name.as_str());
                env.bind_val(sym, ty);
                self.bind_scope(name, Entry::Val(sym));
                Ok(Some((sym, ty, ee)))
            }
            SDecl::ConDef(_, name, kann, c) => {
                let expect = kann.as_ref().map(|k| self.elab_kind(k));
                let (cc, kind) = self.elab_con(env, c, expect.as_ref())?;
                let sym = Sym::fresh(name.as_str());
                env.define_con(sym, kind.clone(), cc);
                // Also record globally so later core type checking can
                // unfold the definition.
                self.genv.define_con(sym, kind, cc);
                self.bind_scope(name, Entry::CVar(sym));
                Ok(None)
            }
            other => Err(ElabError::new(
                other.span(),
                "only `val`, `fun`, and `type`/`con` definitions may appear in `let`"
                    .to_string(),
            )),
        }
    }

    // ---------------- folder generation (§4.4) ----------------

    /// Generates folder instances for all pending holes. Returns the
    /// substitution from hole symbols to generated terms.
    fn fill_folders(&mut self) -> EResult<Vec<(Sym, RExpr)>> {
        let holes = std::mem::take(&mut self.holes);
        let mut subs = Vec::new();
        for h in holes {
            let row = self.cx.metas.zonk(&h.row);
            let nf = normalize_row(&h.env, &mut self.cx, &row);
            if !nf.atoms.is_empty() {
                return Err(ElabError::new(
                    h.span,
                    format!(
                        "cannot generate a folder: row {} is not fully determined",
                        self.cx.metas.zonk(&row)
                    ),
                ));
            }
            let mut fields = Vec::new();
            for (key, v) in &nf.source_fields {
                match key {
                    FieldKey::Lit(n) => {
                        fields.push(((*n), finalize_con(&self.cx, v)))
                    }
                    FieldKey::Neutral(c) => {
                        return Err(ElabError::new(
                            h.span,
                            format!(
                                "cannot generate a folder: field name {c} is not a literal"
                            ),
                        ))
                    }
                }
            }
            let elem_k = finalize_kind(&self.cx, &h.elem_kind);
            let term = gen_folder(&elem_k, &fields);
            self.cx.stats.folders_generated += 1;
            subs.push((h.sym, term));
        }
        Ok(subs)
    }
}

// ---------------- spine flattening ----------------

enum SpArg<'a> {
    E(&'a SExpr),
    C(&'a SCon, Span),
    B(Span),
}

fn flatten_spine<'a>(e: &'a SExpr, args: &mut Vec<SpArg<'a>>) -> &'a SExpr {
    match e {
        SExpr::App(_, f, a) => {
            let h = flatten_spine(f, args);
            args.push(SpArg::E(a));
            h
        }
        SExpr::CApp(span, f, c) => {
            let h = flatten_spine(f, args);
            args.push(SpArg::C(c, *span));
            h
        }
        SExpr::Bang(span, f) => {
            let h = flatten_spine(f, args);
            args.push(SpArg::B(*span));
            h
        }
        _ => e,
    }
}

fn param_desc(p: &SParam) -> String {
    match p {
        SParam::CParam(x, _) => format!("[{x}]"),
        SParam::DParam(_, _) => "[_ ~ _]".to_string(),
        SParam::VParam(x, _) => x.clone(),
    }
}

/// Sorts a diagnostic batch by source span. `sort_by_key` is stable, so
/// diagnostics sharing a span keep their declaration order.
pub(crate) fn sort_diags(diags: &mut ur_syntax::Diagnostics) {
    diags.sort_by_key(|d| d.span);
}

pub(crate) fn binop_name(op: &str) -> Option<&'static str> {
    Some(match op {
        "+" => "add",
        "-" => "sub",
        "*" => "mul",
        "/" => "div",
        "%" => "mod",
        "^" => "strcat",
        "==" => "eq",
        "!=" => "ne",
        "<" => "lt",
        "<=" => "le",
        ">" => "gt",
        ">=" => "ge",
        "&&" => "andb",
        "||" => "orb",
        _ => return None,
    })
}

// ---------------- finalization ----------------

/// Replaces unsolved kind metavariables by `Type` (GHC-style defaulting).
pub fn finalize_kind(cx: &Cx, k: &Kind) -> Kind {
    match cx.metas.resolve_kind(k) {
        Kind::Meta(_) => Kind::Type,
        Kind::Arrow(a, b) => Kind::arrow(finalize_kind(cx, &a), finalize_kind(cx, &b)),
        Kind::Pair(a, b) => Kind::pair(finalize_kind(cx, &a), finalize_kind(cx, &b)),
        Kind::Row(a) => Kind::row(finalize_kind(cx, &a)),
        other => other,
    }
}

/// Zonks and kind-defaults a constructor.
pub fn finalize_con(cx: &Cx, c: &RCon) -> RCon {
    let Ok(out) = Walk::new(cx.metas.zonker(|k| finalize_kind(cx, k))).con(*c);
    out
}

/// Zonks and kind-defaults every constructor inside an expression.
pub fn finalize_expr(cx: &Cx, e: &RExpr) -> RExpr {
    let Ok(out) = Walk::new(cx.metas.zonker(|k| finalize_kind(cx, k))).expr(*e);
    out
}

/// The search behind [`find_meta_con`] and [`find_meta_expr`].
struct FindMeta;

impl Walker for FindMeta {
    type Stop = MetaId;
    fn enters(&self, f: Flags) -> bool {
        f.has_meta()
    }
    fn con(&mut self, c: RCon) -> Result<Step, MetaId> {
        match &*c {
            Con::Meta(m) => Err(*m),
            _ => Ok(Step::Into(c)),
        }
    }
}

/// Finds any remaining metavariable in a constructor.
pub fn find_meta_con(c: &RCon) -> Option<MetaId> {
    Walk::new(FindMeta).con(*c).err()
}

/// Finds any remaining metavariable in an expression's constructors.
pub fn find_meta_expr(e: &RExpr) -> Option<MetaId> {
    Walk::new(FindMeta).expr(*e).err()
}

/// Substitutes a closed expression for a variable (used to fill folder
/// holes; `repl` is closed, so no capture is possible).
pub fn replace_var(e: &RExpr, target: &Sym, repl: &RExpr) -> RExpr {
    struct Replace(Sym, RExpr);
    impl Walker for Replace {
        type Stop = Infallible;
        fn enters(&self, _: Flags) -> bool {
            false
        }
        fn expr(&mut self, e: RExpr) -> Result<Option<RExpr>, Infallible> {
            Ok(match &*e {
                Expr::Var(x) if *x == self.0 => Some(self.1),
                _ => None,
            })
        }
    }
    let Ok(out) = Walk::new(Replace(*target, *repl)).expr(*e);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The finalization clients of the walk on a constructor and an
    /// expression whose trees have 2^40 nodes: each level is shared twice.
    #[test]
    fn finalization_is_linear_on_shared_terms() {
        let mut cx = Cx::new();
        let m = cx.metas.fresh(Kind::Type, "m");
        cx.metas.solve(m, Con::int());
        let u = cx.metas.fresh(Kind::Type, "u");
        let k = cx.metas.fresh_kind();
        let (a, f, hole) = (Sym::fresh("a"), Sym::fresh("f"), Sym::fresh("hole"));
        let mut c = Con::poly(a, k, Con::arrow(Con::meta(m), Con::var(&a)));
        let mut e = Expr::app(Expr::capp(Expr::var(&f), c), Expr::var(&hole));
        for _ in 0..40 {
            c = Con::arrow(c, c);
            e = Expr::app(e, e);
        }
        let fc = finalize_con(&cx, &c);
        assert!(!fc.flags().has_meta() && !fc.flags().has_kmeta(), "{fc}");
        assert_eq!(find_meta_con(&c), Some(m));
        assert_eq!(find_meta_con(&fc), None);
        assert_eq!(find_meta_con(&Con::arrow(fc, Con::meta(u))), Some(u));
        let fe = finalize_expr(&cx, &e);
        assert_eq!(find_meta_expr(&e), Some(m));
        assert_eq!(find_meta_expr(&fe), None);
        let filled = replace_var(&fe, &hole, &Expr::rec_nil());
        assert_ne!(filled, fe);
        assert_eq!(replace_var(&filled, &hole, &Expr::rec_nil()), filled);
    }
}
