//! The red-green incremental elaboration engine.
//!
//! Every declaration of a program is a *query* keyed by its **input
//! fingerprint**:
//!
//! ```text
//! input_fp(i) = fold mix over
//!     mix(env_fp, content_fp(i)), input_fp(dep_1), …, input_fp(dep_k)
//! ```
//!
//! where `content_fp` hashes the declaration's canonical printed form
//! (span-erased, whitespace-normalized — a comment edit stays green),
//! the dependencies come from the name-level [`DepGraph`] in ascending
//! index order, and `env_fp` covers everything else an elaboration can
//! observe: crate version, [`LawConfig`](ur_core::LawConfig) bits,
//! resource [`Limits`](ur_core::Limits), and the base environment
//! (prelude) identity. Input fingerprints are transitive by
//! construction: a change anywhere in a declaration's dependency cone
//! changes its key.
//!
//! A rebuild walks declarations in source order. A declaration is
//! **green** when all of its dependencies are green *and* the layer
//! below holds an outcome for its key; green declarations are *seeded*
//! — their recorded outcome is installed verbatim, re-running none of
//! the hnf/defeq/unify machinery and charging no fuel. Everything else
//! is **red** and re-elaborates in place through the ordinary engine
//! ([`elab_program_all_incremental`]).
//!
//! ## One live-outcome layer per process
//!
//! Outcomes are kept *live* — arena ids and syms of this process — in
//! one process-wide map, so seeding a green declaration clones ids:
//! nothing is decoded and nothing is re-interned, and a long-lived
//! session's rebuilds do not grow the shared intern arena. Every engine
//! in the process reads and fills the same map: a second connection's
//! session and a session rebuilt after a contained panic both seed from
//! memory what another session elaborated, as a no-op rebuild does.
//!
//! The map belongs to one intern-arena generation. A run that sees a new
//! generation clears it first (its ids named the drained arena), and the
//! map holds no [`ArenaLease`](ur_core::arena::ArenaLease), so it never
//! keeps the arena from resetting. Within a generation it grows the way
//! the arena does: nothing is evicted until the last session is gone and
//! the embedder resets the arena.
//!
//! There is no disk layer. A new process elaborates cold; within a
//! process the map already warms every later session, and a disk layer
//! would cost an fsync'd write per rebuild and could seed outcomes that
//! another build of the elaborator produced (docs/PERFORMANCE.md §7).
//!
//! ## Why seeding live outcomes is sound
//!
//! A live outcome names its dependencies' syms directly, so seeding it
//! is only right if every such sym is one this rebuild installs. The
//! engine keeps this invariant:
//!
//! > For every memory entry `K` and every dependency key `D` of `K`,
//! > the memory entry for `D`, when present, holds exactly the outcome
//! > `K` was elaborated against.
//!
//! Seeding then needs nothing more: `K` is green only if each of its
//! dependencies is green, and a green dependency is seeded from its own
//! entry — the one `K` names. The invariant holds because an entry is
//! written only by a red declaration whose dependencies are all *live*
//! (seeded this rebuild, or red and written this rebuild), and is never
//! overwritten. Nothing needs overwriting: input fingerprints are
//! transitive, so a present key has its whole dependency cone present
//! and its first occurrence comes back green; a first occurrence is red
//! only while its key is absent, and a red recomputation makes every
//! dependent in the same rebuild red too.
//!
//! The invariant also holds across sessions and threads. Seeding and
//! write-back each take the map's lock, and a rebuild's whole write-back
//! happens under one hold. A key that another session wrote between
//! this rebuild's seeding and its write-back is taken, so this rebuild's
//! outcome for it is not live, and its dependents are not written
//! either — exactly as for a verbatim duplicate below.
//!
//! Verbatim duplicate declarations (same text, same dependency keys)
//! share one key, yet cold each copy binds syms of its own, and the
//! evaluator keys top-level values by sym: seeding both copies from one
//! entry would let a failed effect in the second copy leave the first
//! copy's value visible under the shared sym. So a key is seeded at
//! most once per rebuild. A later copy is always red; its outcome is
//! never written (the key is taken), so it is never live, and its
//! dependents are not written either — they re-elaborate against it on
//! every rebuild.
//!
//! Base syms come from the session's restored base snapshot, not from
//! any dependency, so every entry is also keyed by its *base identity*,
//! a hash of the base bindings' sym ids. Sessions of one arena
//! generation start from one shared prelude base (`ur_web::Session`)
//! and so share entries; another base (a fresh [`Elaborator`], a
//! session that declared more before its first rebuild) never matches.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};
use ur_core::fingerprint::{hash_str, mix, Fnv64};
use ur_core::sym::Sym;
use ur_infer::{elab_program_all_incremental, DepGraph, Elaborator, Outcome, Seed};
use ur_infer::{Diagnostic, Diagnostics, ElabDecl};
use ur_syntax::pretty::decl_to_string;
use ur_syntax::{parse_program, Span};

/// Engine construction parameters.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Has no effect (outcomes live in memory only); kept only because
    /// the repository benchmark sets it.
    pub cache_dir: Option<PathBuf>,
    /// Identity of the base environment the engine runs against
    /// (typically a hash of the prelude source). Folded into `env_fp`,
    /// so outcomes produced against a different base never seed.
    pub base_tag: u64,
}

/// What one [`Engine::run`] did, for reporting and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Declarations in the program.
    pub decls_total: usize,
    /// Declarations reused from the live-outcome layer without
    /// re-elaboration.
    pub green: usize,
    /// Declarations that re-elaborated.
    pub red: usize,
    /// Always 0 (there is no disk layer); kept only because the
    /// repository benchmark reads it.
    pub disk_store_errs: u64,
}

/// A diagnostic in declaration-relative form: the primary span's line is
/// kept as a delta from the declaration's own line, so the replayed
/// diagnostic lands correctly after unrelated edits shift the
/// declaration vertically. (A purely horizontal move of the declaration
/// within its line is not compensated — but such a move changes the
/// declaration's printed form only if its text changed, which makes it
/// red anyway.) Notes carry no spans, so they replay verbatim.
struct RelDiag {
    dline: i64,
    diag: Diagnostic,
}

impl RelDiag {
    fn new(d: &Diagnostic, decl_span: Span) -> RelDiag {
        RelDiag {
            dline: i64::from(d.span.line) - i64::from(decl_span.line),
            diag: d.clone(),
        }
    }

    /// The diagnostic at the declaration's current position.
    fn replay(&self, decl_span: Span) -> Diagnostic {
        let mut d = self.diag.clone();
        d.span.line = (i64::from(decl_span.line) + self.dline).clamp(0, i64::from(u32::MAX)) as u32;
        d
    }
}

/// One layer entry: a live outcome and its diagnostic.
struct Live {
    outcome: Outcome,
    diag: Option<RelDiag>,
}

/// The process-wide live-outcome layer of one arena generation, keyed by
/// (base identity, input fingerprint).
#[derive(Default)]
struct Layer {
    generation: u64,
    entries: HashMap<(u64, u64), Live>,
}

/// Locks the layer, first dropping what an earlier arena generation
/// left: its ids named nodes the reset drained. A poisoned lock is
/// recovered: every write inserts one whole entry under the invariant,
/// so the map is valid after any of them.
fn layer() -> MutexGuard<'static, Layer> {
    static LAYER: LazyLock<Mutex<Layer>> = LazyLock::new(Mutex::default);
    let mut layer = LAYER.lock().unwrap_or_else(PoisonError::into_inner);
    let generation = ur_core::arena::generation();
    if layer.generation != generation {
        *layer = Layer {
            generation,
            entries: HashMap::new(),
        };
    }
    layer
}

/// A red-green incremental elaboration engine over the process-wide
/// live-outcome layer. One engine instance tracks one base environment;
/// reuse it across rebuilds of the same session.
pub struct Engine {
    base_tag: u64,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            base_tag: cfg.base_tag,
        }
    }

    /// Elaborates `src` against `elab`, which must be at the base state
    /// this engine was configured for (callers restore a base snapshot
    /// before each rebuild). Returns the elaborated declarations, the
    /// diagnostics in source order, and a [`RunReport`].
    ///
    /// Semantics are identical to a cold
    /// [`elab_source_all`](ur_infer::elab::Elaborator::elab_source_all)
    /// run — the layer changes how much work happens, never the result.
    ///
    /// `_threads` has no effect; it stays only because the repository
    /// benchmark passes it.
    pub fn run(
        &mut self,
        elab: &mut Elaborator,
        src: &str,
        _threads: usize,
    ) -> (Vec<ElabDecl>, Diagnostics, RunReport) {
        let prog = match parse_program(src) {
            Ok(p) => p,
            Err(e) => return (Vec::new(), vec![e.into()], RunReport::default()),
        };
        let n = prog.decls.len();

        // Base environment enumeration, in sym-id (creation) order.
        let mut base_cons: Vec<Sym> = elab.genv.cons().map(|(s, _)| *s).collect();
        base_cons.sort_by_key(|s| s.id());
        let mut base_vals: Vec<Sym> = elab.genv.vals().map(|(s, _)| *s).collect();
        base_vals.sort_by_key(|s| s.id());
        let env_fp = env_fingerprint(elab, self.base_tag, &base_cons, &base_vals);
        let base_id = base_identity(&base_cons, &base_vals);

        // Fingerprints. Dependencies always point at earlier
        // declarations; for robustness a forward edge contributes a
        // fixed tag instead of an (uncomputed) fingerprint.
        let graph = DepGraph::build(&prog.decls);
        let mut input_fp = vec![0u64; n];
        for i in 0..n {
            let mut fp = mix(env_fp, hash_str(&decl_to_string(&prog.decls[i])));
            for &d in graph.deps(i) {
                let dep_fp = if d < i { input_fp[d] } else { 0x6f72_7761_7264_u64 };
                fp = mix(fp, dep_fp);
            }
            input_fp[i] = fp;
        }

        // Green detection + seeding, in source order so every green
        // declaration's dependencies are installed before it.
        // A key is seeded at most once: a later verbatim copy is red, so
        // it binds syms of its own, as it does cold.
        let mut green = vec![false; n];
        let mut seeded: HashSet<u64> = HashSet::new();
        let mut seeds: Vec<Option<Seed>> = (0..n).map(|_| None).collect();
        {
            let layer = layer();
            for i in 0..n {
                let key = input_fp[i];
                if seeded.contains(&key) || !graph.deps(i).iter().all(|&d| d < i && green[d]) {
                    continue;
                }
                let Some(live) = layer.entries.get(&(base_id, key)) else {
                    continue;
                };
                seeds[i] = Some(Seed {
                    outcome: live.outcome.clone(),
                    diag: live.diag.as_ref().map(|rd| rd.replay(prog.decls[i].span())),
                });
                green[i] = true;
                seeded.insert(key);
            }
        }
        let greens = green.iter().filter(|&&g| g).count();

        let (decls, diags, records) = elab_program_all_incremental(elab, &prog, seeds);

        // Write back red outcomes whose dependencies are all live
        // (seeded, or written here) and whose key is new — the two
        // conditions the module-doc invariant rests on.
        if records.len() == n {
            let mut live = green.clone();
            let mut layer = layer();
            for (i, rec) in records.iter().enumerate() {
                if green[i] || !graph.deps(i).iter().all(|&d| d < i && live[d]) {
                    continue;
                }
                if let Entry::Vacant(slot) = layer.entries.entry((base_id, input_fp[i])) {
                    slot.insert(Live {
                        outcome: rec.outcome.clone(),
                        diag: rec
                            .diag
                            .as_ref()
                            .map(|d| RelDiag::new(d, prog.decls[i].span())),
                    });
                    live[i] = true;
                }
            }
        }

        let st = &mut elab.cx.stats;
        st.queries_total = st.queries_total.saturating_add(n as u64);
        st.green_reused = st.green_reused.saturating_add(greens as u64);
        st.red_recomputed = st.red_recomputed.saturating_add((n - greens) as u64);

        let report = RunReport {
            decls_total: n,
            green: greens,
            red: n - greens,
            disk_store_errs: 0,
        };
        (decls, diags, report)
    }
}

/// Everything an elaboration observes besides the declarations
/// themselves: crate version, equational-law configuration, resource
/// limits, the configured base tag, and the base environment's binding
/// names in enumeration order.
fn env_fingerprint(
    elab: &Elaborator,
    base_tag: u64,
    base_cons: &[Sym],
    base_vals: &[Sym],
) -> u64 {
    let mut f = Fnv64::new();
    f.write_str(env!("CARGO_PKG_VERSION"));
    f.write_str(&format!("{:?}", elab.cx.laws));
    f.write_str(&format!("{:?}", elab.cx.fuel.limits));
    f.write_u64(base_tag);
    f.write_u32(base_cons.len() as u32);
    for s in base_cons {
        f.write_str(s.name());
    }
    f.write_u32(base_vals.len() as u32);
    for s in base_vals {
        f.write_str(s.name());
    }
    f.finish()
}

/// Which base the outcomes of a run name: a hash of the base bindings'
/// sym ids. Ids are unique in the process, so bases that bind different
/// syms get different identities (up to a 64-bit hash collision, as for
/// input fingerprints).
fn base_identity(base_cons: &[Sym], base_vals: &[Sym]) -> u64 {
    let mut f = Fnv64::new();
    f.write_u32(base_cons.len() as u32);
    for s in base_cons.iter().chain(base_vals) {
        f.write_u32(s.id());
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "con t :: Type = int\n\
                       val one : int = 1\n\
                       val two : t = one\n";

    fn strip(decls: &[ElabDecl]) -> Vec<String> {
        decls.iter().map(|d| format!("{d:?}")).collect()
    }

    /// An engine whose `base_tag` no other test uses, so its keys are
    /// its own in the process-wide layer.
    fn engine(base_tag: u64) -> Engine {
        Engine::new(EngineConfig {
            cache_dir: None,
            base_tag,
        })
    }

    #[test]
    fn noop_rebuild_is_fully_green() {
        let mut eng = engine(1);
        let mut e1 = Elaborator::new();
        let (d1, g1, r1) = eng.run(&mut e1, SRC, 1);
        assert_eq!(r1.red, 3, "cold run recomputes everything");
        assert!(g1.is_empty(), "{g1:?}");
        let mut e2 = Elaborator::new();
        let (d2, g2, r2) = eng.run(&mut e2, SRC, 1);
        assert_eq!(r2.green, 3, "warm no-op rebuild is fully green: {r2:?}");
        assert_eq!(r2.red, 0);
        assert!(g2.is_empty());
        assert_eq!(norm(&strip(&d1)), norm(&strip(&d2)));
        // Green reuse must charge no elaboration fuel.
        assert_eq!(e2.cx.fuel.lifetime_norm_steps(), 0);
    }

    #[test]
    fn single_edit_recomputes_only_the_dependent_cone() {
        let mut eng = engine(2);
        let mut e1 = Elaborator::new();
        let _ = eng.run(&mut e1, SRC, 1);
        // Edit `one` (decl 1): `two` depends on it, `t` does not.
        let edited = "con t :: Type = int\n\
                      val one : int = 2\n\
                      val two : t = one\n";
        let mut e2 = Elaborator::new();
        let (_, diags, r) = eng.run(&mut e2, edited, 1);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(r.green, 1, "only `t` stays green: {r:?}");
        assert_eq!(r.red, 2);
    }

    #[test]
    fn cached_diagnostics_replay_at_shifted_positions() {
        let bad = "val a : int = 1\nval b : int = \"oops\"\n";
        let mut eng = engine(5);
        let mut e1 = Elaborator::new();
        let (_, d1, _) = eng.run(&mut e1, bad, 1);
        assert_eq!(d1.len(), 1, "{d1:?}");
        // Insert an unrelated declaration above; `b` shifts down a line
        // but stays green, and its diagnostic replays at the new line.
        let shifted = "val z : int = 9\nval a : int = 1\nval b : int = \"oops\"\n";
        let mut e2 = Elaborator::new();
        let (_, d2, r) = eng.run(&mut e2, shifted, 1);
        assert_eq!(d2.len(), 1, "{d2:?}");
        assert_eq!(d2[0].code, d1[0].code);
        assert_eq!(d2[0].message, d1[0].message);
        assert_eq!(d2[0].span.line, d1[0].span.line + 1, "{:?}", d2[0]);
        assert!(r.green >= 1, "b must be a green replay: {r:?}");
    }

    #[test]
    fn memory_layer_is_dropped_when_the_base_changes() {
        // Two bases that bind the same name to different syms: the
        // second run must not seed the first base's outcome.
        let mut eng = engine(7);
        let based = || {
            let mut e = Elaborator::new();
            e.elab_source("val p = 1").unwrap();
            e
        };
        let mut e1 = based();
        let _ = eng.run(&mut e1, "val q = p", 1);
        let mut e2 = based();
        let (d2, diags, r) = eng.run(&mut e2, "val q = p", 1);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(r.red, 1, "another base's outcome was seeded: {r:?}");
        let ElabDecl::Val { body: Some(body), .. } = &d2[0] else {
            panic!("{d2:?}")
        };
        assert!(
            ur_core::typing::type_of(&e2.genv, &mut e2.cx, body).is_ok(),
            "q must name the second base's p"
        );
    }

    #[test]
    fn a_fresh_engine_seeds_from_the_process_layer() {
        let mut e1 = Elaborator::new();
        let (d1, _, r1) = engine(8).run(&mut e1, SRC, 1);
        assert_eq!(r1.red, 3, "{r1:?}");
        // A brand-new engine over the same base finds every outcome.
        let mut e2 = Elaborator::new();
        let (d2, diags, r2) = engine(8).run(&mut e2, SRC, 1);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!((r2.green, r2.red), (3, 0), "{r2:?}");
        assert_eq!(norm(&strip(&d1)), norm(&strip(&d2)));
    }

    fn norm(xs: &[String]) -> Vec<String> {
        // Sym ids differ between cold and warm runs (alpha-renaming);
        // strip `#N` suffixes the Debug form carries.
        xs.iter()
            .map(|s| {
                let mut out = String::new();
                let mut chars = s.chars().peekable();
                while let Some(c) = chars.next() {
                    if c == '#' {
                        while matches!(chars.peek(), Some(d) if d.is_ascii_digit()) {
                            chars.next();
                        }
                    } else {
                        out.push(c);
                    }
                }
                out
            })
            .collect()
    }
}
