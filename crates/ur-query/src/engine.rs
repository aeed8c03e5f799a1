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
//! **green** when all of its dependencies are green *and* its key has a
//! cached outcome (memory first, then the on-disk layer in
//! [`crate::disk`]); green declarations are *seeded* — their recorded
//! outcome is installed verbatim, re-running none of the hnf/defeq/unify
//! machinery and charging no fuel. Everything else is **red** and
//! re-elaborates in place through the ordinary engine
//! ([`elab_program_all_incremental`]).
//!
//! ## The two layers
//!
//! The **memory layer** holds *live* outcomes — arena ids and syms of
//! this process — so seeding a green declaration from it clones ids:
//! nothing is decoded and nothing is re-interned, and a long-lived
//! session's rebuilds do not grow the shared intern arena. The **disk
//! layer** holds the linked, process-independent form ([`crate::link`])
//! in packs ([`crate::disk`]); a disk hit is decoded once, against the
//! syms this rebuild has installed so far, and then lives in the memory
//! layer. Red outcomes are written to the disk layer as one pack per
//! rebuild (the link codec runs only when it is enabled) and, under the
//! invariant below, to the memory layer.
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
//! any dependency, so the layer also records the base bindings it was
//! filled against and is cleared when a run's base differs (a fresh
//! [`Elaborator`], another session).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use ur_core::fingerprint::{hash_str, mix, Fnv64};
use ur_core::sym::Sym;
use ur_infer::{elab_program_all_incremental, DepGraph, Elaborator, Outcome, Seed};
use ur_infer::{Code, Diagnostic, Diagnostics, ElabDecl};
use ur_syntax::pretty::decl_to_string;
use ur_syntax::{parse_program, Span};

use crate::disk;
use crate::link::{self, LinkTable, RelDiag, ResolveTable};

/// Engine construction parameters.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Explicit cache directory; `None` defers to `UR_CACHE_DIR` /
    /// `.ur-cache` resolution (see [`disk::resolve_cache_dir`]).
    pub cache_dir: Option<PathBuf>,
    /// Identity of the base environment the engine runs against
    /// (typically a hash of the prelude source). Folded into `env_fp`,
    /// so caches produced against a different base never seed.
    pub base_tag: u64,
}

/// What one [`Engine::run`] did, for reporting and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Declarations in the program.
    pub decls_total: usize,
    /// Declarations reused from cache without re-elaboration.
    pub green: usize,
    /// Declarations that re-elaborated.
    pub red: usize,
    /// Verified entries loaded from the disk layer this run.
    pub disk_hits: u64,
    /// Packs read this run that failed their check (each rejected
    /// whole, and deleted), plus entries of checked packs that failed
    /// to decode. A pack that has vanished is a miss, not a rejection.
    pub disk_rejections: u64,
    /// Red entries the disk layer could not persist this run (full
    /// disk, bad permissions, …): all of a pack's entries when its
    /// write fails. The run is still correct — the cache just stays
    /// cold for those entries.
    pub disk_store_errs: u64,
}

/// One memory-layer entry: a live outcome and its diagnostic in
/// declaration-relative form (replayed at the declaration's current
/// position when seeded).
struct Live {
    outcome: Outcome,
    diag: Option<RelDiag>,
}

/// A red-green incremental elaboration engine with a two-layer
/// (memory + disk) outcome cache. One engine instance tracks one base
/// environment; reuse it across rebuilds of the same session.
pub struct Engine {
    /// The disk layer, when enabled.
    disk: Option<disk::Index>,
    base_tag: u64,
    /// Live outcomes by input fingerprint (see the module doc for the
    /// invariant that makes seeding them sound).
    memory: HashMap<u64, Live>,
    /// The base constructor and value bindings `memory` was filled
    /// against, in sym-id order.
    memory_base: (Vec<Sym>, Vec<Sym>),
    /// Whether this engine already warned about disk-store failures;
    /// one warning per engine (≈ per session), not one per entry.
    warned_store_err: bool,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            disk: disk::resolve_cache_dir(cfg.cache_dir).map(disk::Index::open),
            base_tag: cfg.base_tag,
            memory: HashMap::new(),
            memory_base: (Vec::new(), Vec::new()),
            warned_store_err: false,
        }
    }

    /// The resolved disk-cache directory, if the disk layer is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(disk::Index::dir)
    }

    /// Number of live outcomes in the in-memory layer.
    pub fn memory_entries(&self) -> usize {
        self.memory.len()
    }

    /// Elaborates `src` against `elab`, which must be at the base state
    /// this engine was configured for (callers restore a base snapshot
    /// before each rebuild). Returns the elaborated declarations, the
    /// diagnostics in source order, and a [`RunReport`].
    ///
    /// Semantics are identical to a cold
    /// [`elab_source_all`](ur_infer::elab::Elaborator::elab_source_all)
    /// run — the cache changes how much work happens, never the result.
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

        // Base environment enumeration, in sym-id (creation) order. Both
        // the link and resolve tables are built from this one list, and
        // env_fp covers it, so cross-process ordinals agree.
        let mut base_cons: Vec<Sym> = elab.genv.cons().map(|(s, _)| *s).collect();
        base_cons.sort_by_key(|s| s.id());
        let mut base_vals: Vec<Sym> = elab.genv.vals().map(|(s, _)| *s).collect();
        base_vals.sort_by_key(|s| s.id());
        let env_fp = env_fingerprint(elab, self.base_tag, &base_cons, &base_vals);
        if self.memory_base.0 != base_cons || self.memory_base.1 != base_vals {
            // Live outcomes name base syms directly; another base's are
            // not this one's.
            self.memory.clear();
            self.memory_base = (base_cons.clone(), base_vals.clone());
        }

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
        // declaration's dependencies are installed (and in the resolve
        // table a disk entry decodes against) before it.
        // A key is seeded at most once: a later verbatim copy is red, so
        // it binds syms of its own, as it does cold.
        let mut resolve = ResolveTable::new(base_cons.clone(), base_vals.clone());
        let mut green = vec![false; n];
        let mut seeded: HashSet<u64> = HashSet::new();
        let mut seeds: Vec<Option<Seed>> = (0..n).map(|_| None).collect();
        let mut reader = self.disk.as_mut().map(|ix| ix.reader(env_fp));
        let mut disk_hits = 0u64;
        let mut disk_rejections = 0u64;
        for i in 0..n {
            let key = input_fp[i];
            if seeded.contains(&key) || !graph.deps(i).iter().all(|&d| d < i && green[d]) {
                continue;
            }
            let live = match self.memory.entry(key) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(slot) => {
                    let Some(bytes) = reader.as_mut().and_then(|r| r.get(key)) else {
                        continue;
                    };
                    let Some((outcome, diag)) = link::decode_entry(bytes, &resolve) else {
                        // Undecodable entry: recompute.
                        disk_rejections = disk_rejections.saturating_add(1);
                        continue;
                    };
                    disk_hits = disk_hits.saturating_add(1);
                    slot.insert(Live { outcome, diag })
                }
            };
            resolve.add_decl(key, &live.outcome);
            seeds[i] = Some(Seed {
                outcome: live.outcome.clone(),
                diag: live.diag.as_ref().map(|rd| replay_diag(rd, prog.decls[i].span())),
            });
            green[i] = true;
            seeded.insert(key);
        }
        if let Some(r) = &reader {
            disk_rejections = disk_rejections.saturating_add(r.rejected());
        }
        let greens = green.iter().filter(|&&g| g).count();

        let (decls, diags, records) = elab_program_all_incremental(elab, &prog, seeds);

        // Write back red outcomes: linked into the run's disk pack, live
        // into memory when every dependency is live (seeded, or written
        // here) and the key is new — the two conditions the module-doc
        // invariant rests on. Every outcome is registered in the link
        // table so later red declarations can reference its
        // contributions.
        let mut pack: Vec<(u64, Vec<u8>)> = Vec::new();
        if records.len() == n {
            let mut live = green.clone();
            let mut ltab = LinkTable::new(&base_cons, &base_vals);
            for (i, rec) in records.iter().enumerate() {
                let key = input_fp[i];
                if !green[i] {
                    let rel = rec
                        .diag
                        .as_ref()
                        .map(|d| rebase_diag(d, prog.decls[i].span()));
                    if reader.is_some() {
                        if let Some(bytes) = link::encode_entry(&rec.outcome, rel.as_ref(), &ltab) {
                            pack.push((key, bytes));
                        }
                    }
                    if graph.deps(i).iter().all(|&d| d < i && live[d]) {
                        if let Entry::Vacant(slot) = self.memory.entry(key) {
                            slot.insert(Live {
                                outcome: rec.outcome.clone(),
                                diag: rel,
                            });
                            live[i] = true;
                        }
                    }
                }
                ltab.add_decl(key, &rec.outcome);
            }
        }
        let mut disk_store_errs = 0u64;
        if let Some(r) = reader {
            let entries = pack.len() as u64;
            if !r.finish(pack) {
                disk_store_errs = entries;
            }
        }
        if disk_store_errs > 0 && !self.warned_store_err {
            self.warned_store_err = true;
            eprintln!(
                "warning: ur-query disk cache: {disk_store_errs} entries not stored in {:?}; \
                 cache stays cold (check disk space/permissions)",
                self.cache_dir()
            );
        }

        let st = &mut elab.cx.stats;
        st.queries_total = st.queries_total.saturating_add(n as u64);
        st.green_reused = st.green_reused.saturating_add(greens as u64);
        st.red_recomputed = st.red_recomputed.saturating_add((n - greens) as u64);
        st.disk_hits = st.disk_hits.saturating_add(disk_hits);
        st.disk_rejections = st.disk_rejections.saturating_add(disk_rejections);
        st.disk_store_errs = st.disk_store_errs.saturating_add(disk_store_errs);

        let report = RunReport {
            decls_total: n,
            green: greens,
            red: n - greens,
            disk_hits,
            disk_rejections,
            disk_store_errs,
        };
        (decls, diags, report)
    }
}

/// Everything an elaboration observes besides the declarations
/// themselves: crate version, equational-law configuration, resource
/// limits, the configured base tag, and the base environment's binding
/// names in enumeration order (so a drifted base can never be confused
/// with the one a cache entry was linked against).
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

/// Diagnostic → declaration-relative form (store direction).
fn rebase_diag(d: &Diagnostic, decl_span: Span) -> RelDiag {
    RelDiag {
        dline: d.span.line as i64 - decl_span.line as i64,
        col: d.span.col,
        code: d.code.as_str().to_string(),
        message: d.message.clone(),
        notes: d.notes.clone(),
    }
}

/// Declaration-relative form → diagnostic at the declaration's current
/// position (load direction).
fn replay_diag(rd: &RelDiag, decl_span: Span) -> Diagnostic {
    let line = (decl_span.line as i64 + rd.dline).clamp(0, u32::MAX as i64) as u32;
    let mut d = Diagnostic::new(
        Span { line, col: rd.col },
        Code::parse(&rd.code).unwrap_or(Code::Other),
        rd.message.clone(),
    );
    for n in &rd.notes {
        d = d.with_note(n.clone());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "con t :: Type = int\n\
                       val one : int = 1\n\
                       val two : t = one\n";

    fn run_cold(src: &str) -> (Vec<ElabDecl>, Diagnostics) {
        let mut elab = Elaborator::new();
        elab.elab_source_all(src)
    }

    fn strip(decls: &[ElabDecl]) -> Vec<String> {
        decls.iter().map(|d| format!("{d:?}")).collect()
    }

    #[test]
    fn noop_rebuild_is_fully_green() {
        let mut eng = Engine::new(EngineConfig {
            cache_dir: Some(test_dir("noop")),
            base_tag: 1,
        });
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
        cleanup("noop");
    }

    #[test]
    fn single_edit_recomputes_only_the_dependent_cone() {
        let mut eng = Engine::new(EngineConfig {
            cache_dir: Some(test_dir("edit")),
            base_tag: 2,
        });
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
        cleanup("edit");
    }

    #[test]
    fn disk_layer_seeds_a_fresh_engine() {
        let dir = test_dir("disk");
        let mut eng1 = Engine::new(EngineConfig {
            cache_dir: Some(dir.clone()),
            base_tag: 3,
        });
        let mut e1 = Elaborator::new();
        let (_, _, r1) = eng1.run(&mut e1, SRC, 1);
        assert_eq!(r1.disk_hits, 0);
        // A brand-new engine (fresh process simulation) hits disk.
        let mut eng2 = Engine::new(EngineConfig {
            cache_dir: Some(dir),
            base_tag: 3,
        });
        let mut e2 = Elaborator::new();
        let (d2, g2, r2) = eng2.run(&mut e2, SRC, 1);
        assert!(g2.is_empty());
        assert_eq!(r2.green, 3, "{r2:?}");
        assert_eq!(r2.disk_hits, 3);
        let (cold, _) = run_cold(SRC);
        assert_eq!(norm(&strip(&cold)), norm(&strip(&d2)));
        cleanup("disk");
    }

    #[test]
    fn corrupt_disk_entries_fall_back_to_recompute() {
        let dir = test_dir("corrupt");
        let mut eng1 = Engine::new(EngineConfig {
            cache_dir: Some(dir.clone()),
            base_tag: 4,
        });
        let mut e1 = Elaborator::new();
        let _ = eng1.run(&mut e1, SRC, 1);
        // Bit-flip every cached file.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            let mut b = std::fs::read(&p).unwrap();
            let mid = b.len() / 2;
            b[mid] ^= 0xff;
            std::fs::write(&p, b).unwrap();
        }
        let mut eng2 = Engine::new(EngineConfig {
            cache_dir: Some(dir),
            base_tag: 4,
        });
        let mut e2 = Elaborator::new();
        let (_, diags, r) = eng2.run(&mut e2, SRC, 1);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(r.green, 0, "corrupt entries must not seed: {r:?}");
        assert_eq!(r.red, 3);
        assert!(r.disk_rejections >= 1, "{r:?}");
        cleanup("corrupt");
    }

    #[test]
    fn cached_diagnostics_replay_at_shifted_positions() {
        let bad = "val a : int = 1\nval b : int = \"oops\"\n";
        let mut eng = Engine::new(EngineConfig {
            cache_dir: Some(test_dir("diag")),
            base_tag: 5,
        });
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
        cleanup("diag");
    }

    #[test]
    fn unwritable_cache_dir_counts_store_errors() {
        // The cache dir's parent is a regular file: `create_dir_all`
        // fails, so every write-back counts as a store error — and the
        // run itself still succeeds (the cache just stays cold).
        let file = std::env::temp_dir().join(format!("ur-query-eng-notdir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let mut eng = Engine::new(EngineConfig {
            cache_dir: Some(file.join("cache")),
            base_tag: 6,
        });
        let mut e = Elaborator::new();
        let (_, diags, r) = eng.run(&mut e, SRC, 1);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(r.red, 3);
        assert_eq!(r.disk_store_errs, 3, "{r:?}");
        assert_eq!(e.cx.stats.disk_store_errs, 3);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn memory_layer_is_dropped_when_the_base_changes() {
        // Two bases that bind the same name to different syms. The disk
        // layer is off in effect (its directory cannot be created), so
        // any reuse in the second run would come from memory.
        let file = std::env::temp_dir().join(format!("ur-query-eng-base-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let mut eng = Engine::new(EngineConfig {
            cache_dir: Some(file.join("cache")),
            base_tag: 7,
        });
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
        let _ = std::fs::remove_file(&file);
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

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ur-query-eng-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cleanup(tag: &str) {
        let _ = std::fs::remove_dir_all(test_dir(tag));
    }
}
