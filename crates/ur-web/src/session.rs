//! High-level sessions: the main public API for running Ur/Web programs.
//!
//! A [`Session`] owns an elaborator pre-loaded with the standard-library
//! signature, the builtin registry, the interpreter world (database +
//! debug log), and the runtime environment of top-level values.

use crate::builtins;
use crate::prelude::PRELUDE;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};
use ur_core::con::RCon;
use ur_core::expr::RExpr;
use ur_core::sym::Sym;
use ur_eval::{Builtin, Chunk, EvalEngine, EvalError, EvalErrorKind, Interp, VEnv, Value, World};
use ur_infer::{ElabDecl, ElabError, ElabSnapshot, Elaborator};

/// Errors from running a program in a session.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// A parse/type error.
    Elab(ElabError),
    /// A runtime error.
    Eval(EvalError),
    /// A prelude primitive without an implementation (an internal error).
    MissingBuiltin(String),
    /// A malformed configuration environment variable (`UR_FAILPOINTS`).
    Config(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Elab(e) => write!(f, "{e}"),
            SessionError::Eval(e) => write!(f, "{e}"),
            SessionError::MissingBuiltin(n) => {
                write!(f, "internal error: no implementation for builtin {n}")
            }
            SessionError::Config(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ElabError> for SessionError {
    fn from(e: ElabError) -> Self {
        SessionError::Elab(e)
    }
}

impl From<EvalError> for SessionError {
    fn from(e: EvalError) -> Self {
        SessionError::Eval(e)
    }
}

/// The post-prelude elaborator state every session of one intern-arena
/// generation starts from. The prelude is elaborated once per
/// generation and each later [`Session::new`] clones the result, so the
/// sessions bind the same base syms and share the incremental engine's
/// live-outcome layer. The declarations are kept because answers read
/// them through `elab.decls` (the serve protocol's `type`).
struct PreludeBase {
    generation: u64,
    elab: ElabSnapshot,
    decls: Vec<ElabDecl>,
}

/// The current generation's [`PreludeBase`]. It holds no arena lease:
/// a base from before a `try_reset` is told apart by its generation and
/// replaced, never used.
static PRELUDE_BASE: Mutex<Option<PreludeBase>> = Mutex::new(None);

/// An elaborator at the prelude base of the current arena generation:
/// a clone of the base, or, for the generation's first session, the
/// elaborator that elaborates it. The caller holds an arena lease, so
/// the generation cannot change meanwhile; elaborating under the slot's
/// lock puts concurrent first sessions on one base. A poisoned lock is
/// recovered: the slot is only ever replaced whole.
fn prelude_elaborator() -> Result<Elaborator, ElabError> {
    let mut slot = PRELUDE_BASE.lock().unwrap_or_else(PoisonError::into_inner);
    let generation = ur_core::arena::generation();
    let mut elab = Elaborator::new();
    match slot.as_ref().filter(|b| b.generation == generation) {
        Some(base) => {
            elab.restore(base.elab.clone());
            elab.decls = base.decls.clone();
        }
        None => {
            elab.elab_source(PRELUDE)?;
            *slot = Some(PreludeBase {
                generation,
                elab: elab.snapshot(),
                decls: elab.decls.clone(),
            });
        }
    }
    Ok(elab)
}

/// State backing [`Session::reelaborate`]: the *base* — the session as
/// it stood when incremental mode was first used (normally just the
/// prelude) — plus the red-green query engine. Each rebuild restores
/// the base and replays the new source through the engine, so green
/// declarations are reused instead of re-elaborated.
struct IncrState {
    base_elab: ElabSnapshot,
    base_world: World,
    base_top: VEnv,
    base_by_name: HashMap<String, Sym>,
    engine: ur_query::Engine,
    last_report: ur_query::RunReport,
}

/// An Ur/Web session: elaborate-and-run programs against a persistent
/// world.
///
/// ```
/// use ur_web::Session;
///
/// let mut sess = Session::new()?;
/// sess.run("val x = 20 + 22")?;
/// assert_eq!(sess.get_int("x")?, 42);
/// # Ok::<(), ur_web::SessionError>(())
/// ```
pub struct Session {
    /// The elaborator (inference statistics live in `elab.cx.stats`).
    pub elab: Elaborator,
    /// Runtime world: database and debug output.
    pub world: World,
    /// Has no effect (elaboration is sequential); kept only because the
    /// repository benchmark reads it.
    pub threads: usize,
    /// Has no effect (the incremental engine keeps its outcomes in
    /// memory only); kept only because the repository benchmark sets it.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Which engine evaluates `val` bodies and expressions: the bytecode
    /// VM (default) or the tree-walking interpreter (the differential
    /// oracle). Overridable at construction with `UR_EVAL=interp|vm`,
    /// and by embedders (urc/REPL `--eval=`). Function *application*
    /// ([`Session::apply`]) dispatches on the value itself, so results
    /// from either engine keep working after a switch.
    pub engine: EvalEngine,
    builtins: HashMap<Sym, Rc<Builtin>>,
    top: VEnv,
    by_name: HashMap<String, Sym>,
    /// Compiled-chunk cache, keyed by the hash-consed body id. Arena ids
    /// are stable for the session's lifetime (`_arena_lease`), so a
    /// re-evaluated declaration (incremental rebuilds, repeated source)
    /// reuses its chunk instead of re-lowering. Chunks bake in
    /// `genv`-dependent normalization (static field names, pre-reduced
    /// constructor arguments), so a wholesale environment restore
    /// ([`Session::reelaborate`]'s base restore) clears the cache; size
    /// is bounded by [`CHUNK_CACHE_CAP`].
    chunk_cache: HashMap<RExpr, Arc<Chunk>>,
    /// Shared snapshot of `top` for VM runs (`Rc` of the globals plus
    /// the root constructor list), rebuilt lazily after any top-level
    /// mutation. Without it every VM run would clone every top-level
    /// value — the difference between a render loop amortizing one
    /// compile and paying a full environment copy per iteration.
    vm_globals: Option<(Rc<VEnv>, ur_eval::vm::ConsEnv)>,
    incr: Option<IncrState>,
    /// One-rebuild fuel-ceiling override (see
    /// [`Session::reelaborate_limited`]). Must be applied *after* the
    /// base restore inside [`Session::reelaborate`] — the restore
    /// replaces the whole metavariable context, limits included, so
    /// setting `elab.cx.fuel.limits` from outside is silently undone.
    rebuild_limits: Option<ur_core::limits::Limits>,
    /// Keeps the shared intern arena alive for this session's lifetime:
    /// while any session holds a lease, `ur_core::arena::try_reset` is a
    /// no-op, so every `ConId`/`ExprId` this session minted stays valid.
    /// Dropped with the session — when the last session goes away the
    /// embedder may reset the arena to reclaim memory.
    _arena_lease: ur_core::arena::ArenaLease,
}

/// Bound on [`Session::chunk_cache`]: a long-lived session evaluating
/// ever-fresh bodies (a REPL, a serve loop) flushes the cache instead of
/// growing it without limit — the same policy the interpreter applies to
/// its resolution memo.
const CHUNK_CACHE_CAP: usize = 1 << 10;

impl Session {
    /// Creates a session with the standard library installed: a clone of
    /// the arena generation's prelude base, which only the generation's
    /// first session elaborates.
    ///
    /// # Errors
    ///
    /// Fails if the prelude does not elaborate or a primitive lacks an
    /// implementation (both internal errors, exercised by tests).
    pub fn new() -> Result<Session, SessionError> {
        // Lease first: the base's ids must already be protected from a
        // concurrent `try_reset`.
        let arena_lease = ur_core::arena::lease();
        let elab = prelude_elaborator()?;
        // `UR_FAILPOINTS` configures fault injection without code changes
        // (urc, the REPL, any embedder).
        #[cfg(feature = "failpoints")]
        if let Some(cfg) = ur_core::failpoint::FpConfig::from_env().map_err(SessionError::Config)? {
            ur_core::failpoint::install(Some(cfg));
        }
        let impls = builtins::registry();
        let mut map = HashMap::new();
        let mut by_name = HashMap::new();
        for d in &elab.decls {
            if let ElabDecl::Val {
                name,
                sym,
                body: None,
                ..
            } = d
            {
                let spec = impls
                    .get(name)
                    .ok_or_else(|| SessionError::MissingBuiltin(name.clone()))?;
                map.insert(*sym, Rc::clone(spec));
                by_name.insert(name.clone(), *sym);
            }
        }
        Ok(Session {
            elab,
            world: World::new(),
            threads: 1,
            cache_dir: None,
            engine: std::env::var("UR_EVAL")
                .ok()
                .and_then(|s| EvalEngine::parse(&s))
                .unwrap_or_default(),
            builtins: map,
            top: VEnv::new(),
            by_name,
            chunk_cache: HashMap::new(),
            vm_globals: None,
            incr: None,
            rebuild_limits: None,
            _arena_lease: arena_lease,
        })
    }

    /// The compiled form of `body`, from the session chunk cache
    /// (hash-consed core terms make the lookup cheap) or compiled fresh.
    fn chunk_for(&mut self, body: &RExpr, label: &str) -> Arc<ur_eval::Chunk> {
        match self.chunk_cache.get(body) {
            Some(c) => {
                self.elab.cx.stats.eval_chunk_hits =
                    self.elab.cx.stats.eval_chunk_hits.saturating_add(1);
                Arc::clone(c)
            }
            None => {
                // Compile against a scratch context: constructor
                // normalization during chunk compilation is evaluation
                // work and must not charge the elaborator's fuel ledger
                // (a green rebuild would otherwise report phantom
                // normalization steps).
                let mut cx = ur_core::Cx::new();
                let c = ur_eval::compile(&self.elab.genv, &mut cx, body, label);
                self.elab.cx.stats.eval_chunks_compiled =
                    self.elab.cx.stats.eval_chunks_compiled.saturating_add(1);
                if self.chunk_cache.len() >= CHUNK_CACHE_CAP {
                    self.chunk_cache.clear();
                }
                self.chunk_cache.insert(*body, Arc::clone(&c));
                c
            }
        }
    }

    /// Folds a finished VM dispatch's counters into the session stats.
    fn fold_vm_stats(&mut self, es: ur_eval::vm::EvalStats, runs: u64) {
        let st = &mut self.elab.cx.stats;
        st.eval_vm_runs = st.eval_vm_runs.saturating_add(runs);
        st.eval_steps = st.eval_steps.saturating_add(es.steps);
        st.eval_vm_ops = st.eval_vm_ops.saturating_add(es.vm_ops);
        st.eval_dispatch_ns = st.eval_dispatch_ns.saturating_add(es.dispatch_ns);
    }

    /// An interpreter over the session's world whose step ceiling is the
    /// `max_norm_steps` of the limits in force: a request's deadline
    /// ceiling while a budgeted request runs, the standing limits
    /// otherwise.
    fn interp(&mut self) -> Interp<'_> {
        let mut interp = Interp::new(&mut self.world, &self.elab.genv, &self.builtins);
        interp.max_steps = self.elab.cx.fuel.limits.max_norm_steps;
        interp
    }

    /// Evaluates one elaborated body on the configured engine, folding
    /// the engine's counters into the session statistics.
    fn eval_body(&mut self, body: &RExpr, label: &str) -> Result<Value, EvalError> {
        match self.engine {
            EvalEngine::Vm => {
                let chunk = self.chunk_for(body, label);
                let (globals, cons) = {
                    let g = self
                        .vm_globals
                        .get_or_insert_with(|| ur_eval::vm::share_globals(&self.top));
                    (Rc::clone(&g.0), g.1.clone())
                };
                let mut interp = self.interp();
                let r = ur_eval::vm::run_shared(&mut interp, &chunk, &globals, &cons);
                let es = interp.eval_stats;
                self.fold_vm_stats(es, 1);
                r
            }
            EvalEngine::Interp => {
                // Built in place rather than by `Session::interp`: the
                // run borrows `top` beside the world.
                let mut interp = Interp::new(&mut self.world, &self.elab.genv, &self.builtins);
                interp.max_steps = self.elab.cx.fuel.limits.max_norm_steps;
                let r = interp.eval(&self.top, body);
                let st = &mut self.elab.cx.stats;
                st.eval_interp_runs = st.eval_interp_runs.saturating_add(1);
                st.eval_steps = st.eval_steps.saturating_add(interp.steps);
                r
            }
        }
    }

    /// Elaborates and evaluates a program; returns the (name, value) pairs
    /// of the newly defined top-level values.
    ///
    /// # Errors
    ///
    /// Returns the first parse, type, or runtime error.
    pub fn run(&mut self, src: &str) -> Result<Vec<(String, Value)>, SessionError> {
        let decls = self.elab.elab_source(src)?;
        let mut out = Vec::new();
        for d in &decls {
            if let ElabDecl::Val {
                name,
                sym,
                body: Some(body),
                ..
            } = d
            {
                let v = self.eval_body(body, name)?;
                self.top.vals.insert(*sym, v.clone());
                self.vm_globals = None;
                self.by_name.insert(name.clone(), *sym);
                out.push((name.clone(), v));
            }
        }
        Ok(out)
    }

    /// Elaborates and evaluates a program in multi-error mode: every
    /// declaration that elaborates is evaluated, and every error —
    /// parse, type, resource, or runtime — is collected as a
    /// [`Diagnostic`](ur_syntax::Diagnostic) instead of aborting the
    /// batch. The session stays usable afterwards regardless of how
    /// hostile the input was.
    pub fn run_all(&mut self, src: &str) -> (Vec<(String, Value)>, ur_syntax::Diagnostics) {
        let (decls, diags) = self.elab.elab_source_all(src);
        self.eval_decls(&decls, diags)
    }

    /// Evaluates the `val` bodies of freshly elaborated `decls` in order,
    /// binding each value and appending a runtime-error diagnostic to
    /// `diags` for each body that fails.
    fn eval_decls(
        &mut self,
        decls: &[ElabDecl],
        mut diags: ur_syntax::Diagnostics,
    ) -> (Vec<(String, Value)>, ur_syntax::Diagnostics) {
        let mut out = Vec::new();
        for d in decls {
            if let ElabDecl::Val {
                name,
                sym,
                body: Some(body),
                ..
            } = d
            {
                match self.eval_body(body, name) {
                    Ok(v) => {
                        self.top.vals.insert(*sym, v.clone());
                        self.vm_globals = None;
                        self.by_name.insert(name.clone(), *sym);
                        out.push((name.clone(), v));
                    }
                    Err(e) => diags.push(ur_syntax::Diagnostic::new(
                        ur_syntax::Span::default(),
                        match e.kind {
                            EvalErrorKind::TooDeep | EvalErrorKind::OutOfFuel => {
                                ur_syntax::Code::ResourceExhausted
                            }
                            _ => ur_syntax::Code::Eval,
                        },
                        format!("runtime error evaluating {name}: {e}"),
                    )),
                }
            }
        }
        (out, diags)
    }

    /// Incremental variant of [`Session::run_all`]: elaborates `src` as
    /// *the whole program* (not an append), reusing every declaration
    /// whose content and transitive dependencies are unchanged since the
    /// previous `reelaborate` call — the red-green engine in
    /// [`ur_query`]. Observable results are identical to a cold
    /// `run_all` of the same source on a fresh session; only the amount
    /// of type-inference work differs. Green reuse charges no
    /// elaboration fuel and re-runs none of the hnf/defeq/unify
    /// machinery; evaluation of `val` bodies is deliberately *not*
    /// cached (the runtime world is stateful), so effects replay in
    /// source order on every rebuild.
    ///
    /// The first call captures the session's current state as the
    /// *base*; every call restores that base before elaborating, so
    /// successive calls see edits, not accumulation. Statistics are
    /// cumulative across rebuilds (the incremental counters in
    /// [`Session::stats`] track green/red activity).
    pub fn reelaborate(&mut self, src: &str) -> (Vec<(String, Value)>, ur_syntax::Diagnostics) {
        if self.incr.is_none() {
            self.incr = Some(IncrState {
                base_elab: self.elab.snapshot(),
                base_world: self.world.clone(),
                base_top: self.top.clone(),
                base_by_name: self.by_name.clone(),
                engine: ur_query::Engine::new(ur_query::EngineConfig {
                    cache_dir: None,
                    base_tag: ur_core::fingerprint::hash_str(PRELUDE),
                }),
                last_report: ur_query::RunReport::default(),
            });
        }
        let Some(incr) = self.incr.as_mut() else {
            return (Vec::new(), Vec::new());
        };
        // Restore the base, preserving cumulative statistics. Fuel is
        // deliberately *not* preserved: it returns to its base value, so
        // `lifetime_norm_steps` after a rebuild reflects only the work
        // that rebuild actually did (zero for a fully green one).
        let kept_stats = self.elab.cx.stats.clone();
        self.elab.restore(incr.base_elab.clone());
        self.elab.cx.stats = kept_stats;
        self.world = incr.base_world.clone();
        // The wholesale world restore invalidated any WAL suffix written
        // since the base was captured; re-anchor the durable layer on the
        // restored state before the rebuild replays effects. No-op for
        // the in-memory database.
        self.world.db.persist_rebase();
        self.top = incr.base_top.clone();
        self.vm_globals = None;
        // The elaborator restore above rewound `genv`; cached chunks
        // baked the old environment's normalization into static field
        // names and pre-reduced constructors, so none of them may
        // survive the rebuild.
        self.chunk_cache.clear();
        self.by_name = incr.base_by_name.clone();

        // A per-rebuild fuel ceiling (deadline-budgeted serving) must be
        // installed here, after the restore replaced the whole context.
        if let Some(l) = self.rebuild_limits {
            self.elab.cx.fuel.limits = l;
            self.elab.cx.fuel.reset();
        }

        let (decls, diags, report) = incr.engine.run(&mut self.elab, src, 1);
        incr.last_report = report;
        self.eval_decls(&decls, diags)
    }

    /// [`Session::reelaborate`] under a one-rebuild fuel ceiling:
    /// over-budget declarations degrade to structured E0900
    /// diagnostics instead of running to completion. The ceiling covers
    /// exactly this rebuild, and the session's standing
    /// limits are reinstated afterwards, so later rebuilds and
    /// evaluations are unaffected. This is the deadline-budget hook the
    /// serving layer uses (`deadline_ms` → fuel via
    /// [`ur_core::limits::Limits::for_deadline_ms`]).
    pub fn reelaborate_limited(
        &mut self,
        src: &str,
        limits: ur_core::limits::Limits,
    ) -> (Vec<(String, Value)>, ur_syntax::Diagnostics) {
        let standing = self.elab.cx.fuel.limits;
        self.rebuild_limits = Some(limits);
        let out = self.reelaborate(src);
        self.rebuild_limits = None;
        self.elab.cx.fuel.limits = standing;
        self.elab.cx.fuel.reset();
        out
    }

    /// What the most recent [`Session::reelaborate`] did (the green/red
    /// split). `None` before the first call.
    pub fn last_incr_report(&self) -> Option<&ur_query::RunReport> {
        self.incr.as_ref().map(|i| &i.last_report)
    }

    /// Elaborates and evaluates a single expression.
    ///
    /// # Errors
    ///
    /// Returns the first parse, type, or runtime error.
    pub fn eval(&mut self, src: &str) -> Result<Value, SessionError> {
        let (ee, _ty) = self.elab.elab_expr_source(src)?;
        Ok(self.eval_body(&ee, "<expr>")?)
    }

    /// Elaborates `src` once, then evaluates the resulting core body
    /// `reps` times on the configured engine, returning the final value
    /// and the evaluation-only wall time. This is the measurement loop
    /// the eval benchmark uses: parse/elaboration cost is excluded so
    /// the numbers compare the engines themselves — and for the VM the
    /// first iteration compiles the chunk while the rest hit the cache,
    /// exactly the render-loop pattern the speedup gate targets.
    ///
    /// # Errors
    ///
    /// Returns the first parse, type, or runtime error.
    pub fn eval_repeated(
        &mut self,
        src: &str,
        reps: u32,
    ) -> Result<(Value, std::time::Duration), SessionError> {
        let (ee, _ty) = self.elab.elab_expr_source(src)?;
        let reps = reps.max(1);
        match self.engine {
            // The production path: the chunk, the shared globals, and
            // one interpreter (whose normalization and resolution memos
            // warm up on the first iteration) all live across the loop —
            // exactly what a server holding a session pays per request.
            EvalEngine::Vm => {
                let chunk = self.chunk_for(&ee, "<bench>");
                let (globals, cons) = {
                    let g = self
                        .vm_globals
                        .get_or_insert_with(|| ur_eval::vm::share_globals(&self.top));
                    (Rc::clone(&g.0), g.1.clone())
                };
                let mut interp = self.interp();
                let t0 = std::time::Instant::now();
                let mut runs = 1u64;
                let mut out = ur_eval::vm::run_shared(&mut interp, &chunk, &globals, &cons);
                while out.is_ok() && runs < u64::from(reps) {
                    out = ur_eval::vm::run_shared(&mut interp, &chunk, &globals, &cons);
                    runs += 1;
                }
                let dt = t0.elapsed();
                let es = interp.eval_stats;
                drop(interp);
                self.fold_vm_stats(es, runs);
                Ok((out?, dt))
            }
            // The oracle path stays deliberately cache-free: each
            // iteration re-walks the core term the way a single
            // [`Session::eval`] would.
            EvalEngine::Interp => {
                let t0 = std::time::Instant::now();
                let mut v = self.eval_body(&ee, "<bench>")?;
                for _ in 1..reps {
                    v = self.eval_body(&ee, "<bench>")?;
                }
                Ok((v, t0.elapsed()))
            }
        }
    }

    /// Elaborates a single expression and returns its type without
    /// evaluating.
    ///
    /// # Errors
    ///
    /// Returns the first parse or type error.
    pub fn type_of(&mut self, src: &str) -> Result<RCon, SessionError> {
        let (_ee, ty) = self.elab.elab_expr_source(src)?;
        Ok(ty)
    }

    /// Looks up a previously defined top-level value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let sym = self.by_name.get(name)?;
        self.top.vals.get(sym)
    }

    /// Convenience: a top-level int value.
    ///
    /// # Errors
    ///
    /// Fails if the value is absent or not an int.
    pub fn get_int(&self, name: &str) -> Result<i64, SessionError> {
        self.get(name)
            .ok_or_else(|| SessionError::Eval(EvalError::new(format!("no value {name}"))))?
            .as_int()
            .map_err(SessionError::Eval)
    }

    /// Convenience: a top-level string value.
    ///
    /// # Errors
    ///
    /// Fails if the value is absent or not a string.
    pub fn get_str(&self, name: &str) -> Result<String, SessionError> {
        Ok(self
            .get(name)
            .ok_or_else(|| SessionError::Eval(EvalError::new(format!("no value {name}"))))?
            .as_str()
            .map_err(SessionError::Eval)?
            .to_string())
    }

    /// Applies a function value to arguments.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn apply(&mut self, f: &Value, args: &[Value]) -> Result<Value, SessionError> {
        let mut interp = self.interp();
        let mut v = f.clone();
        for a in args {
            v = interp.apply(v, a.clone())?;
        }
        Ok(v)
    }

    /// The database.
    pub fn db(&mut self) -> &mut ur_db::Db {
        &mut self.world.db
    }

    /// Inference statistics accumulated so far (the Figure-5 counters).
    pub fn stats(&self) -> &ur_core::stats::Stats {
        &self.elab.cx.stats
    }

    /// [`Session::stats`] plus readings of the process-global intern
    /// arena, this thread's failpoint counters and the database's planner
    /// counters, taken at call time. The per-`Cx` counters are copied.
    pub fn stats_snapshot(&self) -> ur_core::stats::Stats {
        let mut s = self.elab.cx.stats.clone();
        s.capture_intern();
        s.capture_failpoints();
        let d = self.world.db.stats();
        s.capture_db(
            d.index_probes,
            d.full_scans,
            d.planner_fallbacks,
            d.snapshot_reads,
            d.versions_gcd,
        );
        s
    }
}

/// A human-readable database summary: durability mode, open
/// transaction, table row counts, WAL length, and the durability
/// counters. Surfaced by the REPL's `:db` command and the serve
/// protocol's `db` request, which snapshot readers answer from a
/// read-only handle without a session.
pub fn db_report(db: &ur_db::Db) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    let mode = if db.is_durable() { "durable (WAL + snapshot)" } else { "in-memory" };
    let _ = writeln!(out, "database: {mode}");
    if db.in_txn() {
        let _ = writeln!(out, "  txn: open");
    }
    let mut names = db.table_names();
    names.sort();
    let _ = writeln!(out, "  tables: {}", names.len());
    for n in &names {
        let rows = db.row_count(n).unwrap_or(0);
        let idxs = db.indexes(n).unwrap_or_default();
        if idxs.is_empty() {
            let _ = writeln!(out, "    {n}: {rows} row(s)");
        } else {
            let cols: Vec<String> = idxs
                .iter()
                .map(|d| format!("{} ({})", d.name, d.column))
                .collect();
            let _ = writeln!(out, "    {n}: {rows} row(s), indexes: {}", cols.join(", "));
        }
    }
    let _ = writeln!(
        out,
        "  planner: {}",
        if db.planner_enabled() { "on" } else { "off" }
    );
    if !db.plan_log().is_empty() {
        let _ = writeln!(out, "  plans (most recent last):");
        for p in db.plan_log() {
            let _ = writeln!(out, "    {p}");
        }
    }
    if db.is_durable() {
        let _ = writeln!(
            out,
            "  wal: {} byte(s), generation {}",
            db.wal_len(),
            db.wal_generation()
        );
        if let Some(why) = db.poison_reason() {
            let _ = writeln!(out, "  poisoned: {why}");
        }
    }
    let _ = writeln!(out, "  {}", db.stats());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_bootstraps() {
        let sess = Session::new().expect("prelude installs");
        assert!(sess.get("missing").is_none());
    }

    #[test]
    fn arithmetic_and_strings() {
        let mut sess = Session::new().unwrap();
        sess.run("val x = 1 + 2 * 3\nval s = \"a\" ^ showInt x").unwrap();
        assert_eq!(sess.get_int("x").unwrap(), 7);
        assert_eq!(sess.get_str("s").unwrap(), "a7");
    }

    #[test]
    fn eval_expression() {
        let mut sess = Session::new().unwrap();
        let v = sess.eval("if 1 < 2 then 10 else 20").unwrap();
        assert_eq!(v.as_int().unwrap(), 10);
    }

    #[test]
    fn lists_and_folds() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val l = cons 1 (cons 2 (cons 3 nil))\n\
             val total = foldList (fn (x : int) (acc : int) => x + acc) 0 l\n\
             val n = lengthList l",
        )
        .unwrap();
        assert_eq!(sess.get_int("total").unwrap(), 6);
        assert_eq!(sess.get_int("n").unwrap(), 3);
    }

    #[test]
    fn options() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val a = getOpt (some 5) 0\n\
             val b = getOpt none 7",
        )
        .unwrap();
        assert_eq!(sess.get_int("a").unwrap(), 5);
        assert_eq!(sess.get_int("b").unwrap(), 7);
    }

    #[test]
    fn xml_rendering_escapes() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val x = renderXml (tagP (cdata \"<script>alert(1)</script>\"))",
        )
        .unwrap();
        let s = sess.get_str("x").unwrap();
        assert_eq!(s, "<p>&lt;script&gt;alert(1)&lt;/script&gt;</p>");
    }

    #[test]
    fn sql_end_to_end() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val t = createTable \"people\" {Name = sqlString, Age = sqlInt}\n\
             val u1 = insert t {Name = const \"alice\", Age = const 30}\n\
             val u2 = insert t {Name = const \"bob\", Age = const 25}\n\
             val n = rowCount t",
        )
        .unwrap();
        assert_eq!(sess.get_int("n").unwrap(), 2);
        let rows = sess.eval("selectAll t (sqlLt (column [#Age]) (const 28))").unwrap();
        let rows = rows.as_list().unwrap().to_vec();
        assert_eq!(rows.len(), 1);
        let rec = rows[0].as_record().unwrap();
        assert_eq!(rec.get("Name").unwrap().as_str().unwrap().as_ref(), "bob");
    }

    #[test]
    fn sql_injection_is_neutralized() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val t = createTable \"notes\" {Body = sqlString}\n\
             val u = insert t {Body = const \"'; DROP TABLE notes; --\"}\n\
             val n = rowCount t",
        )
        .unwrap();
        assert_eq!(sess.get_int("n").unwrap(), 1);
        // The table still exists and the malicious text round-trips as data.
        let rows = sess.eval("selectAll t (sqlTrue)").unwrap();
        let rows = rows.as_list().unwrap().to_vec();
        let body = rows[0].as_record().unwrap()["Body"].as_str().unwrap();
        assert_eq!(body.as_ref(), "'; DROP TABLE notes; --");
        // And the logged SQL has the quote escaped.
        let log = sess.db().log().join("\n");
        assert!(log.contains("''; DROP TABLE notes; --"));
    }

    #[test]
    fn type_errors_are_reported_not_executed() {
        let mut sess = Session::new().unwrap();
        let err = sess.run("val bad = 1 + \"two\"").unwrap_err();
        assert!(matches!(err, SessionError::Elab(_)));
    }

    #[test]
    fn sequences_and_debug() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val u = createSequence \"s\"\n\
             val a = nextval \"s\"\n\
             val b = nextval \"s\"\n\
             val d = debug \"hello\"",
        )
        .unwrap();
        assert_eq!(sess.get_int("a").unwrap(), 1);
        assert_eq!(sess.get_int("b").unwrap(), 2);
        assert_eq!(sess.world.out, vec!["hello".to_string()]);
    }

    #[test]
    fn stats_are_exposed() {
        let mut sess = Session::new().unwrap();
        sess.run("fun proj3 [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] (x : $([nm = t] ++ r)) = x.nm\nval v = proj3 [#A] {A = 1, B = 2}").unwrap();
        assert!(sess.stats().disjoint_prover_calls > 0);
        assert_eq!(sess.get_int("v").unwrap(), 1);
    }

    #[test]
    fn vm_is_the_default_engine_and_counts_runs() {
        let mut sess = Session::new().unwrap();
        assert_eq!(sess.engine, EvalEngine::Vm);
        sess.run("val x = 1 + 2").unwrap();
        let s = sess.stats();
        assert!(s.eval_vm_runs > 0, "vm runs counted: {s}");
        assert!(s.eval_vm_ops > 0, "vm ops counted: {s}");
        assert!(s.eval_chunks_compiled > 0, "chunks counted: {s}");
        assert_eq!(s.eval_interp_runs, 0);
    }

    #[test]
    fn interp_engine_still_works_and_counts() {
        let mut sess = Session::new().unwrap();
        sess.engine = EvalEngine::Interp;
        sess.run("val x = 40 + 2").unwrap();
        assert_eq!(sess.get_int("x").unwrap(), 42);
        let s = sess.stats();
        assert!(s.eval_interp_runs > 0, "{s}");
        assert_eq!(s.eval_vm_runs, 0);
    }

    #[test]
    fn repeated_bodies_hit_the_chunk_cache() {
        let mut sess = Session::new().unwrap();
        // Identical bodies hash-cons to the same core term, so the
        // second evaluation reuses the compiled chunk.
        sess.run("val a = 40 + 2").unwrap();
        sess.run("val b = 40 + 2").unwrap();
        assert!(sess.stats().eval_chunk_hits > 0, "{}", sess.stats());
    }

    #[test]
    fn reelaborate_clears_the_chunk_cache() {
        let mut sess = Session::new().unwrap();
        let (_, d1) = sess.reelaborate("val a = 40 + 2");
        assert!(d1.is_empty(), "{d1:?}");
        let hits = sess.stats().eval_chunk_hits;
        // The rebuild restores the base environment first, so even an
        // identical body recompiles rather than reusing a chunk from
        // the previous build.
        let (_, d2) = sess.reelaborate("val a = 40 + 2");
        assert!(d2.is_empty(), "{d2:?}");
        assert_eq!(
            sess.stats().eval_chunk_hits,
            hits,
            "chunk survived the base restore"
        );
        assert_eq!(sess.get_int("a").unwrap(), 42);
    }

    #[test]
    fn chunk_cache_is_bounded() {
        use ur_core::expr::{Expr, Lit};
        let mut sess = Session::new().unwrap();
        for i in 0..=(CHUNK_CACHE_CAP as i64) {
            let body = Expr::lit(Lit::Int(i));
            let _ = sess.chunk_for(&body, "cap");
            assert!(
                sess.chunk_cache.len() <= CHUNK_CACHE_CAP,
                "cache exceeded its cap at {i}"
            );
        }
    }

    #[test]
    fn non_ascii_strings_evaluate_to_themselves_in_both_engines() {
        for engine in [EvalEngine::Vm, EvalEngine::Interp] {
            let mut sess = Session::new().unwrap();
            sess.engine = engine;
            sess.run("val s = \"hé😀\"").unwrap();
            for v in [sess.eval("s").unwrap(), sess.eval("\"hé😀\"").unwrap()] {
                assert_eq!(&*v.as_str().unwrap(), "hé😀", "{engine:?}");
            }
        }
    }

    /// Diagnostic columns count characters, so non-ASCII text earlier on
    /// a line does not shift them.
    #[test]
    fn diagnostic_columns_count_characters() {
        for s in ["aaaaa", "ééééé"] {
            let mut sess = Session::new().unwrap();
            let (_, diags) = sess.run_all(&format!("val s = \"{s}\" val t = nope"));
            let d = diags[0].to_string();
            assert!(d.contains("nope") && d.ends_with("(at 1:25)"), "{s}: {d}");
        }
    }

    #[test]
    fn engines_agree_on_metaprogram_output() {
        let src = "fun proj3 [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] (x : $([nm = t] ++ r)) = x.nm\n\
                   val v = proj3 [#A] {A = 1, B = 2}\n\
                   val l = cons 1 (cons 2 (cons 3 nil))\n\
                   val total = foldList (fn (x : int) (acc : int) => x + acc) 0 l\n\
                   val r = {A = 1, B = \"two\", C = True} -- #B\n\
                   val x = renderXml (tagP (cdata \"hi & bye\"))";
        let mut vm = Session::new().unwrap();
        vm.engine = EvalEngine::Vm;
        let mut oracle = Session::new().unwrap();
        oracle.engine = EvalEngine::Interp;
        let a = vm.run(src).unwrap();
        let b = oracle.run(src).unwrap();
        assert_eq!(a.len(), b.len());
        for ((na, va), (nb, vb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(va.to_string(), vb.to_string(), "divergence at {na}");
        }
    }
}

#[cfg(test)]
mod xml_typing_tests {
    use super::*;

    #[test]
    fn misplaced_tags_are_type_errors() {
        // <tr> directly inside <p> (inline context) is rejected.
        let mut sess = Session::new().unwrap();
        assert!(sess.eval("tagP (tagTr (tagTd (cdata \"x\")))").is_err());
        // <td> inside <table> without <tr> is rejected.
        assert!(sess.eval("tagTable (tagTd (cdata \"x\"))").is_err());
        // The correct nesting is accepted.
        assert!(sess
            .eval("tagTable (tagTr (tagTd (cdata \"x\")))")
            .is_ok());
    }

    #[test]
    fn cdata_is_context_polymorphic() {
        let mut sess = Session::new().unwrap();
        for src in [
            "renderXml (tagP (cdata \"a\"))",
            "renderXml (tagTr (tagTd (cdata \"a\")))",
            "renderXml (tagUl (tagLi (cdata \"a\")))",
        ] {
            assert!(sess.eval(src).is_ok(), "{src}");
        }
    }

    #[test]
    fn xcat_requires_matching_contexts() {
        let mut sess = Session::new().unwrap();
        // body ++ tr cells: contexts differ.
        assert!(sess
            .eval("xcat (tagP (cdata \"a\")) (tagTd (cdata \"b\"))")
            .is_err());
        assert!(sess
            .eval("xcat (tagP (cdata \"a\")) (tagH1 (cdata \"b\"))")
            .is_ok());
    }

    #[test]
    fn page_produces_full_document() {
        let mut sess = Session::new().unwrap();
        let v = sess
            .eval("page \"T&C\" (tagP (cdata \"hi\"))")
            .unwrap();
        let s = v.as_str().unwrap();
        assert!(s.starts_with("<html><head><title>T&amp;C</title>"));
        assert!(s.contains("<body><p>hi</p></body>"));
    }

    #[test]
    fn ordered_select_builtin() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val t = createTable \"ord\" {K = sqlInt, V = sqlString}\n\
             val a = insert t {K = const 3, V = const \"c\"}\n\
             val b = insert t {K = const 1, V = const \"a\"}\n\
             val c = insert t {K = const 2, V = const \"b\"}",
        )
        .unwrap();
        let rows = sess
            .eval("selectOrdered [#K] t (sqlTrue) 0 2")
            .unwrap();
        assert_eq!(
            rows.to_string(),
            "[{K = 1, V = \"a\"}, {K = 2, V = \"b\"}]"
        );
        // Ordering by a column the table lacks is a type error.
        assert!(sess.eval("selectOrdered [#Nope] t (sqlTrue) 0 2").is_err());
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    /// An evaluation nested past `MAX_EVAL_DEPTH` is a resource error on
    /// both engines (E0900 in a load's diagnostics), the declarations
    /// around it still bind, and a shallower one still answers. Debug
    /// frames are several times the release ones the budget is sized
    /// for, so this runs on a larger thread.
    #[test]
    fn evaluation_past_the_depth_budget_is_e0900_on_both_engines() {
        let run = || {
            for engine in [EvalEngine::Vm, EvalEngine::Interp] {
                let mut sess = Session::new().unwrap();
                sess.engine = engine;
                let (vals, diags) = sess.run_all(
                    "val twice = fn [a] (f : a -> a) (x : a) => f (f x)\n\
                     val inc = fn (n : int) => n + 1\n\
                     val deep = twice twice twice twice twice inc 0\n\
                     val ok = twice twice twice twice inc 0",
                );
                assert_eq!(diags.len(), 1, "{engine:?}: {diags:?}");
                assert_eq!(diags[0].code, ur_syntax::Code::ResourceExhausted, "{engine:?}");
                assert!(diags[0].message.contains("nested too deep"), "{engine:?}");
                assert!(vals.iter().all(|(n, _)| n != "deep"));
                assert_eq!(sess.get_int("ok").unwrap(), 65_536, "{engine:?}");
            }
        };
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(64 << 20)
                .spawn_scoped(s, run)
                .unwrap()
                .join()
                .unwrap();
        });
    }

    /// Evaluation charges the standing fuel ceiling: a declaration whose
    /// evaluation needs more applications than `max_norm_steps` is a
    /// resource error on both engines (E0900 naming the budget), the
    /// declarations around it still bind, and both engines charge the
    /// same steps for what they evaluated.
    #[test]
    fn evaluation_past_its_step_ceiling_is_e0900_on_both_engines() {
        let mut steps = Vec::new();
        for engine in [EvalEngine::Vm, EvalEngine::Interp] {
            let mut sess = Session::new().unwrap();
            sess.engine = engine;
            sess.elab.cx.fuel.limits.max_norm_steps = 50_000;
            let (vals, diags) = sess.run_all(
                "val twice = fn [a] (f : a -> a) (x : a) => f (f x)\n\
                 val inc = fn (n : int) => n + 1\n\
                 val long = twice twice twice twice inc 0\n\
                 val ok = twice twice twice inc 0",
            );
            assert_eq!(diags.len(), 1, "{engine:?}: {diags:?}");
            assert_eq!(diags[0].code, ur_syntax::Code::ResourceExhausted, "{engine:?}");
            assert!(diags[0].message.contains("step budget of 50000"), "{diags:?}");
            assert!(vals.iter().all(|(n, _)| n != "long"));
            assert_eq!(sess.get_int("ok").unwrap(), 16, "{engine:?}");
            steps.push(sess.stats().eval_steps);
        }
        assert_eq!(steps[0], steps[1], "the engines charged different steps");
    }

    /// Builtins charge the elements they copy, so a few applications over
    /// a big list cannot do unbounded native work: at a 50,000-step
    /// ceiling, 16 reversals of a 4,096-item list (65,536 copies) and a
    /// `cons` fold over it (about 8 million copies) are E0900 on both
    /// engines, while one reversal binds.
    #[test]
    fn builtins_charge_the_elements_they_copy() {
        let mut steps = Vec::new();
        for engine in [EvalEngine::Vm, EvalEngine::Interp] {
            let mut sess = Session::new().unwrap();
            sess.engine = engine;
            sess.elab.cx.fuel.limits.max_norm_steps = 50_000;
            let (vals, diags) = sess.run_all(
                "val twice = fn [a] (f : a -> a) (x : a) => f (f x)\n\
                 val dbl = fn (l : list int) => appendList l l\n\
                 val big = dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl \
                   (cons 1 nil))))))))))))\n\
                 val revs = lengthList (twice twice twice (fn (l : list int) => revList l) big)\n\
                 val folded = lengthList \
                   (foldList (fn (x : int) (acc : list int) => cons x acc) nil big)\n\
                 val one = lengthList (revList big)",
            );
            assert_eq!(diags.len(), 2, "{engine:?}: {diags:?}");
            assert!(
                diags.iter().all(|d| d.code == ur_syntax::Code::ResourceExhausted),
                "{engine:?}: {diags:?}"
            );
            assert!(vals.iter().all(|(n, _)| n != "revs" && n != "folded"));
            assert_eq!(sess.get_int("one").unwrap(), 4_096, "{engine:?}");
            steps.push(sess.stats().eval_steps);
        }
        assert_eq!(steps[0], steps[1], "the engines charged different steps");
    }

    /// A failed declaration must not poison the session: stale folder
    /// holes and constraints are discarded (regression test).
    #[test]
    fn session_recovers_from_failed_declarations() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "type meta (t :: Type) = {Show : t -> string}\n\
             fun render [r :: {Type}] (fl : folder r) (mr : $(map meta r)) (x : $r) : string =\n\
               fl [fn r => $(map meta r) -> $r -> string]\n\
                  (fn [nm] [t] [r] [[nm] ~ r] acc mr x =>\n\
                     mr.nm.Show x.nm ^ acc (mr -- nm) (x -- nm))\n\
                  (fn _ _ => \"\") mr x",
        )
        .unwrap();
        // Creates a folder hole with an undetermined row, then fails.
        assert!(sess.run("val bad = render oops").is_err());
        // Unrelated follow-up work must succeed.
        sess.run("val ok = 1 + 1").unwrap();
        assert_eq!(sess.get_int("ok").unwrap(), 2);
        // And the metaprogram still works.
        sess.run("val out = render {A = {Show = showInt}} {A = 5}")
            .unwrap();
        assert_eq!(sess.get_str("out").unwrap(), "5");
    }

    /// Failed `eval` calls also leave the session clean.
    #[test]
    fn eval_errors_do_not_leak_constraints() {
        let mut sess = Session::new().unwrap();
        assert!(sess.eval("{A = 1} ++ {A = 2}").is_err());
        assert_eq!(sess.eval("1 + 1").unwrap().as_int().unwrap(), 2);
    }

    /// `run_all` reports every bad declaration and still evaluates the
    /// good ones.
    #[test]
    fn run_all_reports_all_errors_and_runs_the_rest() {
        let mut sess = Session::new().unwrap();
        let (defs, diags) = sess.run_all(
            "val a : int = \"nope\"\n\
             val b = missing\n\
             val ok = 40 + 2",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(defs.len(), 1);
        assert_eq!(sess.get_int("ok").unwrap(), 42);
    }

    /// `reelaborate` is whole-program-replace: a no-op rebuild is fully
    /// green, values still evaluate, and an edit only recomputes the
    /// changed cone while producing the same observable results as a
    /// cold run.
    #[test]
    fn reelaborate_reuses_green_declarations() {
        let mut sess = Session::new().unwrap();
        let src = "val a = 40\nval b = a + 2\nval s = showInt b";
        let (defs, diags) = sess.reelaborate(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(defs.len(), 3);
        assert_eq!(sess.get_int("b").unwrap(), 42);
        let r1 = sess.last_incr_report().unwrap().clone();
        assert_eq!(r1.red, 3);

        // No-op rebuild: all green, values unchanged, effects replayed.
        let (defs2, diags2) = sess.reelaborate(src);
        assert!(diags2.is_empty(), "{diags2:?}");
        assert_eq!(defs2.len(), 3);
        assert_eq!(sess.get_str("s").unwrap(), "42");
        let r2 = sess.last_incr_report().unwrap().clone();
        assert_eq!(r2.green, 3, "{r2:?}");
        assert_eq!(r2.red, 0, "{r2:?}");

        // Edit `a`: its dependents recompute, results update.
        let (_, diags3) = sess.reelaborate("val a = 10\nval b = a + 2\nval s = showInt b");
        assert!(diags3.is_empty(), "{diags3:?}");
        assert_eq!(sess.get_int("b").unwrap(), 12);
        let r3 = sess.last_incr_report().unwrap().clone();
        assert!(r3.red >= 1, "{r3:?}");
        assert_eq!(sess.stats().queries_total, 9);
        assert!(sess.stats().green_reused >= 3);
    }

    /// Removing a declaration via rebuild removes its binding — the
    /// base restore means rebuilds replace, never accumulate.
    #[test]
    fn reelaborate_replaces_rather_than_accumulates() {
        let mut sess = Session::new().unwrap();
        let (_, d1) = sess.reelaborate("val x = 1\nval y = 2");
        assert!(d1.is_empty());
        assert!(sess.get("y").is_some());
        let (_, d2) = sess.reelaborate("val x = 1");
        assert!(d2.is_empty());
        assert!(sess.get("y").is_none(), "stale binding survived rebuild");
        assert_eq!(sess.get_int("x").unwrap(), 1);
    }

    /// `db_report` names the durability mode and every table.
    #[test]
    fn db_report_lists_tables_and_mode() {
        let mut sess = Session::new().unwrap();
        sess.run(
            "val t = createTable \"people\" {Name = sqlString}\n\
             val u = insert t {Name = const \"alice\"}",
        )
        .unwrap();
        let report = db_report(sess.db());
        assert!(report.contains("in-memory"), "{report}");
        assert!(report.contains("people: 1 row(s)"), "{report}");
    }

    /// A session whose world is backed by a durable database persists
    /// its interpreter effects: a fresh open of the same directory sees
    /// exactly what the program committed.
    #[test]
    fn durable_world_effects_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("ur-sess-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut sess = Session::new().unwrap();
            *sess.db() = ur_db::Db::open(&dir).unwrap();
            sess.run(
                "val t = createTable \"people\" {Name = sqlString, Age = sqlInt}\n\
                 val u1 = insert t {Name = const \"alice\", Age = const 30}\n\
                 val u2 = insert t {Name = const \"bob\", Age = const 25}\n\
                 val s = createSequence \"ids\"\n\
                 val i = nextval \"ids\"",
            )
            .unwrap();
            assert_eq!(sess.get_int("i").unwrap(), 1);
            let report = db_report(sess.db());
            assert!(report.contains("durable"), "{report}");
            assert!(report.contains("wal:"), "{report}");
        }
        let mut db = ur_db::Db::open(&dir).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 2);
        assert_eq!(db.nextval("ids").unwrap(), 2, "sequence position survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fuel is per expression, as it is per declaration: a session with
    /// no per-request budget (REPL, `urc --serve`) evaluates a cheap
    /// expression any number of times under a tight limit, and one
    /// expression that alone needs more than the limit still degrades
    /// to E0900.
    #[test]
    fn expression_fuel_does_not_leak_across_evals() {
        let mut sess = Session::new().unwrap();
        sess.elab.cx.fuel.limits.max_norm_steps = 20_000;
        let fold = "foldList (fn x acc => x + acc) 0 (cons 1 (cons 2 nil))";
        for i in 0..1_000 {
            match sess.eval(fold) {
                Ok(v) => assert_eq!(v.to_string(), "3"),
                Err(e) => panic!("eval #{i} failed: {e}"),
            }
        }
        // ~114 steps per field: 250 fields need ~28,500 steps.
        let fields: Vec<String> = (0..250).map(|i| format!("F{i} = {fold}")).collect();
        let err = sess
            .eval(&format!("{{{}}}.F0", fields.join(", ")))
            .expect_err("an over-budget expression must fail");
        let SessionError::Elab(e) = &err else {
            panic!("expected an elaboration error, got {err}");
        };
        assert_eq!(e.code().as_str(), "E0900", "{err}");
        assert!(e.message.contains("max_norm_steps"), "{err}");
        // And the session keeps answering afterwards.
        assert_eq!(sess.eval(fold).unwrap().to_string(), "3");
    }
}
