//! Warm-vs-cold differential suite for the incremental elaboration
//! engine (`ur_query` + `Session::reelaborate`).
//!
//! The engine promises that a warm rebuild is *observably identical* to
//! elaborating the edited program cold in a fresh session: the same
//! declarations (up to fresh symbol ids), the same diagnostics, the
//! same values — while re-running only the declarations whose
//! transitive inputs actually changed. This suite pins that promise on:
//!
//! 1. the acceptance criteria — a no-op rebuild of the combined
//!    Figure-5 batch re-runs *zero* declaration elaborations, and a
//!    single-declaration edit re-elaborates only that declaration plus
//!    its true transitive dependents;
//! 2. random edit scripts (mutate / insert / delete / swap / duplicate /
//!    revert, over groups that reference earlier groups' bindings)
//!    replayed against a cold per-step baseline;
//! 3. the adversarial corpus — error outcomes cache and replay too;
//! 4. the process-wide live-outcome layer — a second session seeds
//!    from what the first elaborated, and two sessions rebuilding
//!    concurrently over it each still match their cold baseline;
//! 5. the fuel ledger — green reuse charges no normalization steps.
//!
//! Every warm rebuild is also re-checked under the Figure-4 judgment
//! (`type_of` + `defeq`, as `tests/core_recheck.rs` does): green
//! declarations are seeded from live outcomes, and a seeded body that
//! named a symbol this rebuild did not install would print the same
//! after `#N` stripping but fail to type-check.
//!
//! All sessions in this binary share one arena generation, so they
//! share the layer: a test that asserts a declaration is red uses
//! declarations no other test elaborates.

use std::sync::{Arc, Barrier};
use ur::core::defeq::defeq;
use ur::core::typing::type_of;
use ur::infer::{Diagnostics, ElabDecl};
use ur::Session;
use ur_testutil::Rng;

/// Erases gensym counters (`foo#123` -> `foo#`) so runs that draw
/// different fresh-symbol numbers from the process-global counter
/// compare structurally.
fn strip_sym_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '#' {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        }
    }
    out
}

/// Normalized observation of one run: declaration debug forms, printed
/// values, and rendered diagnostics — everything a caller can see.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Observed {
    decls: Vec<String>,
    vals: Vec<(String, String)>,
    diags: Vec<String>,
}

fn normalize(
    decls: &[ur::infer::ElabDecl],
    vals: &[(String, ur::Value)],
    diags: &Diagnostics,
) -> Observed {
    Observed {
        decls: decls
            .iter()
            .map(|d| strip_sym_ids(&format!("{d:?}")))
            .collect(),
        vals: vals
            .iter()
            .map(|(n, v)| (n.clone(), strip_sym_ids(&v.to_string())))
            .collect(),
        diags: diags.iter().map(|d| strip_sym_ids(&d.to_string())).collect(),
    }
}

/// Cold baseline: a fresh session, full evaluation.
fn cold(src: &str) -> Observed {
    let mut sess = Session::new().expect("session");
    let base_len = sess.elab.decls.len();
    let (vals, diags) = sess.run_all(src);
    normalize(&sess.elab.decls[base_len..], &vals, &diags)
}

/// A warm session wrapping `Session::reelaborate`, exposing normalized
/// observations per rebuild.
struct Warm {
    sess: Session,
    base_len: usize,
}

impl Warm {
    fn new() -> Self {
        let sess = Session::new().expect("session");
        let base_len = sess.elab.decls.len();
        Warm { sess, base_len }
    }

    fn rebuild(&mut self, src: &str) -> (Observed, ur::query::RunReport) {
        let (vals, diags) = self.sess.reelaborate(src);
        recheck(&self.sess, self.base_len, src);
        let obs = normalize(&self.sess.elab.decls[self.base_len..], &vals, &diags);
        let report = self
            .sess
            .last_incr_report()
            .cloned()
            .expect("reelaborate sets a report");
        (obs, report)
    }
}

/// Re-checks every value declaration the last rebuild installed under
/// the core judgment, against the environment that rebuild built. Runs
/// on a copy of the session's context, so the check charges the
/// session no fuel.
fn recheck(sess: &Session, base_len: usize, src: &str) {
    let env = &sess.elab.genv;
    let mut cx = sess.elab.cx.clone();
    for d in &sess.elab.decls[base_len..] {
        if let ElabDecl::Val {
            name,
            ty,
            body: Some(body),
            ..
        } = d
        {
            let got = type_of(env, &mut cx, body).unwrap_or_else(|e| {
                panic!("core re-check of {name} failed: {e}\nterm: {body}\nsource:\n{src}")
            });
            assert!(
                defeq(env, &mut cx, &got, ty),
                "{name}: core says {got}, inference said {ty}\nsource:\n{src}"
            );
        }
    }
}

/// One combined source for the whole §6 suite (deduplicated
/// implementations, no usage demos) — the benchmark workload.
fn combined_figure5_batch() -> String {
    let mut parts: Vec<&'static str> = Vec::new();
    for s in ur::studies::studies() {
        let impl_src = s.implementation();
        if !parts.contains(&impl_src) {
            parts.push(impl_src);
        }
    }
    parts.join("\n")
}

// ---------------------------------------------------------------------
// 1. Acceptance criteria
// ---------------------------------------------------------------------

/// No other test here loads this batch over the plain prelude base, so
/// its first load is cold.
#[test]
fn noop_rebuild_of_combined_figure5_batch_reruns_zero_elaborations() {
    let src = combined_figure5_batch();
    let baseline = cold(&src);
    let mut warm = Warm::new();

    let (first, r1) = warm.rebuild(&src);
    assert_eq!(first, baseline, "cold incremental run diverges");
    assert_eq!(r1.red, r1.decls_total, "first build must recompute all");
    assert!(r1.decls_total > 0, "empty batch");

    let (second, r2) = warm.rebuild(&src);
    assert_eq!(second, baseline, "no-op rebuild diverges");
    assert_eq!(r2.red, 0, "no-op rebuild re-ran elaborations: {r2:?}");
    assert_eq!(r2.green, r2.decls_total, "{r2:?}");
}

#[test]
fn whitespace_and_comment_edits_stay_fully_green() {
    let src = "con t :: Type = int\nval one : int = 1\nval two : t = one\n";
    // Same declarations, different concrete syntax: content hashing
    // goes through the span-erasing pretty-printer, so this is a no-op.
    let reformatted =
        "(* a comment *)\ncon t :: Type =   int\n\n\nval one : int = 1\nval two : t = one";
    let mut warm = Warm::new();
    let (first, _) = warm.rebuild(src);
    let (second, r2) = warm.rebuild(reformatted);
    assert_eq!(r2.red, 0, "reformatting recomputed declarations: {r2:?}");
    assert_eq!(first.vals, second.vals);
}

#[test]
fn single_decl_edit_recomputes_only_the_dependent_cone() {
    let base = "con t :: Type = int\n\
                val one : int = 1\n\
                val two : t = one\n\
                val solo = 42\n";
    let edited = "con t :: Type = int\n\
                  val one : int = 7\n\
                  val two : t = one\n\
                  val solo = 42\n";
    let mut warm = Warm::new();
    warm.rebuild(base);
    let (obs, r) = warm.rebuild(edited);
    // `one` changed; `two` depends on it. `t` and `solo` are untouched.
    assert_eq!(r.green, 2, "{r:?}");
    assert_eq!(r.red, 2, "{r:?}");
    assert_eq!(obs, cold(edited), "warm edit diverges from cold");
    assert!(
        obs.vals.iter().any(|(n, v)| n == "one" && v == "7"),
        "{obs:?}"
    );
}

#[test]
fn independent_decl_edit_leaves_the_rest_green() {
    let base = "val a = 1\nval b = a + 1\nval c = 10\nval d = c + 1\n";
    let edited = "val a = 1\nval b = a + 1\nval c = 20\nval d = c + 1\n";
    let mut warm = Warm::new();
    warm.rebuild(base);
    let (obs, r) = warm.rebuild(edited);
    // Only the `c` cone (c, d) re-runs; the `a` cone stays green.
    assert_eq!(r.green, 2, "{r:?}");
    assert_eq!(r.red, 2, "{r:?}");
    assert_eq!(obs, cold(edited));
}

// ---------------------------------------------------------------------
// 2. Random edit scripts vs cold baseline
// ---------------------------------------------------------------------

/// A binding a generated group defines, for later groups to reference.
enum Bound {
    /// `val NAME = <int>`.
    Int(String),
    /// `val NAME = {FIELD = <int>, …}`.
    Rec(String, String),
    /// `fun NAME [t :: Type] (x : t) = x`.
    Fun(String),
    /// `con NAME :: Type = int`.
    Ty(String),
}

/// One declaration group. Half the time it stands alone; otherwise it
/// references a binding some earlier group defined (which a later
/// delete, swap, or revert may have removed or moved after it — the
/// resulting errors must replay exactly as a cold run reports them).
/// `salt` keeps names unique; every binding a group defines joins
/// `bound`.
fn gen_group(rng: &mut Rng, salt: usize, bound: &mut Vec<Bound>) -> String {
    if !bound.is_empty() && rng.bool_() {
        let k = rng.range_i64(0, 50);
        let group = match rng.pick(bound) {
            Bound::Int(n) => format!("val ref{salt} = {n} + {k}"),
            Bound::Rec(n, f) => format!("val ref{salt} = {n}.{f} + {k}"),
            Bound::Fun(n) => format!("val ref{salt} = {n} {k}"),
            Bound::Ty(n) => format!("val ref{salt} : {n} = {k}"),
        };
        bound.push(Bound::Int(format!("ref{salt}")));
        return group;
    }
    match rng.below(5) {
        0 => {
            bound.push(Bound::Int(format!("int{salt}")));
            format!("val int{salt} = {}", rng.range_i64(0, 1000))
        }
        1 => {
            bound.push(Bound::Rec(format!("rec{salt}"), format!("A{salt}")));
            format!(
                "val rec{salt} = {{A{salt} = {}, B{salt} = \"s{salt}\"}}",
                rng.range_i64(0, 100)
            )
        }
        2 => {
            bound.push(Bound::Ty(format!("ty{salt}")));
            bound.push(Bound::Int(format!("use{salt}")));
            format!(
                "con ty{salt} :: Type = int\nval use{salt} : ty{salt} = {}",
                rng.range_i64(0, 50)
            )
        }
        3 => {
            bound.push(Bound::Fun(format!("f{salt}")));
            bound.push(Bound::Int(format!("app{salt}")));
            format!(
                "fun f{salt} [t :: Type] (x : t) = x\nval app{salt} = f{salt} {}",
                rng.range_i64(0, 9)
            )
        }
        _ => {
            bound.push(Bound::Int(format!("sum{salt}")));
            format!("val sum{salt} = {} + {}", rng.below(100), rng.below(100))
        }
    }
}

/// A random edit script over declaration groups: mutate / insert /
/// delete / swap / duplicate / revert.
struct Script {
    rng: Rng,
    salt: usize,
    bound: Vec<Bound>,
    groups: Vec<String>,
    history: Vec<Vec<String>>,
}

impl Script {
    /// A script whose starting program is eight groups drawn from `seed`;
    /// its edits draw from the same stream.
    fn new(seed: u64) -> Script {
        let mut script = Script {
            rng: Rng::new(seed),
            salt: 0,
            bound: Vec::new(),
            groups: Vec::new(),
            history: Vec::new(),
        };
        script.groups = (0..8).map(|_| script.fresh()).collect();
        script
    }

    fn fresh(&mut self) -> String {
        self.salt += 1;
        gen_group(&mut self.rng, self.salt, &mut self.bound)
    }

    /// Applies one random edit and returns the edited program.
    fn step(&mut self) -> String {
        self.history.push(self.groups.clone());
        let n = self.groups.len();
        match self.rng.below(6) {
            0 => {
                // Mutate: regenerate one group in place.
                let i = self.rng.below(n);
                self.groups[i] = self.fresh();
            }
            1 => {
                let g = self.fresh();
                self.groups.push(g);
            }
            2 if n > 3 => {
                let i = self.rng.below(n);
                self.groups.remove(i);
            }
            3 => {
                // Duplicate: an identical copy (same text, and the
                // same dependency keys when nothing in between
                // rebinds its names) shadows the original.
                let i = self.rng.below(n);
                let j = self.rng.below(n + 1);
                self.groups.insert(j, self.groups[i].clone());
            }
            4 => {
                // Revert to an earlier program: its declarations
                // come back green from whatever rebuild cached them.
                self.groups = self.rng.pick(&self.history).clone();
            }
            _ => {
                let i = self.rng.below(n);
                let j = self.rng.below(n);
                self.groups.swap(i, j);
            }
        }
        self.groups.join("\n")
    }
}

#[test]
fn random_edit_scripts_match_the_cold_baseline() {
    let mut script = Script::new(0x1ec4_ed18);
    let mut warm = Warm::new();
    for step in 0..16 {
        let src = script.step();
        let (obs, r) = warm.rebuild(&src);
        assert_eq!(obs, cold(&src), "step {step} diverges from cold");
        assert_eq!(r.decls_total, r.green + r.red, "step {step}: {r:?}");
    }
}

/// A declaration duplicated verbatim has one input fingerprint for both
/// copies. Each copy must bind symbols of its own, as it does cold, and
/// dependents of either copy must come back green only against the
/// outcome the copy they name was seeded with — never pointing at a
/// symbol an earlier rebuild minted for the other copy. The effectful
/// steps tell the copies apart at run time: the second `createTable`
/// fails, so `r` must see no value for the second `t` rather than the
/// first copy's table.
#[test]
fn duplicate_declarations_seed_consistent_dependents() {
    let table = "val t = createTable \"t\" {A = sqlInt}";
    let effectful = format!("{table}\n{table}\nval r = t");
    let steps = [
        "val a = 1\nval b = a + 1\nval a = 1\nval c = a + 2",
        "val a = 1\nval c = a + 2",
        "val a = 1\nval b = a + 1",
        "val a = 1\nval b = a + 1\nval a = 1\nval c = a + 2",
        "val a = 1\nval a = 1\nval b = a + 1\nval c = a + 2",
        &effectful,
        &effectful,
        "val t = createTable \"t\" {A = sqlInt}\nval r = t",
        &effectful,
    ];
    let mut warm = Warm::new();
    for _ in 0..2 {
        for (k, src) in steps.iter().enumerate() {
            let (obs, _) = warm.rebuild(src);
            assert_eq!(obs, cold(src), "step {k} diverges from cold");
        }
    }
}

#[test]
fn dependency_chain_edits_propagate_redness_transitively() {
    let mut warm = Warm::new();
    let base = "val base = 1\n\
                val c1 = base + 1\n\
                val c2 = c1 + 1\n\
                val c3 = c2 + 1\n\
                val solo = 99\n";
    warm.rebuild(base);
    // Editing the root re-runs the whole chain but not `solo`.
    let edited = base.replace("val base = 1", "val base = 2");
    let (obs, r) = warm.rebuild(&edited);
    assert_eq!(r.red, 4, "chain root edit: {r:?}");
    assert_eq!(r.green, 1, "chain root edit: {r:?}");
    assert_eq!(obs, cold(&edited));
    // Editing the tip re-runs only the tip.
    let tip = edited.replace("val c3 = c2 + 1", "val c3 = c2 + 10");
    let (obs, r) = warm.rebuild(&tip);
    assert_eq!(r.red, 1, "chain tip edit: {r:?}");
    assert_eq!(r.green, 4, "chain tip edit: {r:?}");
    assert_eq!(obs, cold(&tip));
}

// ---------------------------------------------------------------------
// 3. Adversarial corpus: error outcomes cache and replay
// ---------------------------------------------------------------------

/// Hostile inputs drawn from `tests/adversarial.rs` — including parse
/// errors and programs whose whole point is to fail.
const ADVERSARIAL: &[(&str, &str)] = &[
    (
        "multi-error",
        "val a : int = \"not an int\"\nval b = missingVariable\nval c : string = 42\nval good = 7",
    ),
    ("unbound", "val x = definitelyNotDefined"),
    ("self-application", "val omega = fn x => x x"),
    ("bad-disjointness", "val r = {A = 1} ++ {A = 2}\nval ok = 3"),
    ("shadow-then-use", "val x = 1\nval x = \"two\"\nval y = x"),
    (
        "failed-shadow-falls-back",
        "val x = 1\nval x = missingName\nval y = x",
    ),
    (
        "forward-reference",
        "val a = laterName\nval laterName = 2\nval b = laterName",
    ),
    (
        "type-shadowing",
        "con t :: Type = int\ncon t :: Type = string\nval v : t = \"s\"",
    ),
    (
        "mixed-good-bad",
        "val one = 1\nval bad : string = one\nval two = one + one",
    ),
    ("dup-field-concat", "val u = {A = 1, A = 2} ++ {A = 3}"),
    ("both-sides-missing", "val v = missing ++ alsoMissing"),
    ("kind-error", "con k :: Type = #A #B #C\nval after = 1"),
    ("unterminated-string", "val s = \"unterminated"),
    ("trailing-parens", "val x = ((("),
    ("missing-binder", "val = 3\nval ok = 4"),
    (
        "wide-independent-with-errors",
        "val a = 1\nval b = a + missing1\nval c = 2\nval d = c + missing2\nval e = a + c",
    ),
];

#[test]
fn adversarial_corpus_round_trips_through_the_incremental_engine() {
    for (name, src) in ADVERSARIAL {
        let baseline = cold(src);
        let mut warm = Warm::new();
        let (first, _) = warm.rebuild(src);
        assert_eq!(first, baseline, "{name}: cold incremental diverges");
        // Failed declarations cache their diagnostics, so a repeat is
        // fully green and replays the same errors.
        let (second, r) = warm.rebuild(src);
        assert_eq!(second, baseline, "{name}: warm rebuild diverges");
        assert_eq!(r.red, 0, "{name}: repeat recomputed declarations: {r:?}");
    }
}

#[test]
fn cached_diagnostics_replay_at_shifted_spans() {
    let base = "val a = 1\nval bad = missingName\n";
    let mut warm = Warm::new();
    let (first, _) = warm.rebuild(base);
    let line_of = |obs: &Observed| {
        assert_eq!(obs.diags.len(), 1, "{obs:?}");
        obs.diags[0].clone()
    };
    let d1 = line_of(&first);
    // Prepend an unrelated declaration: `bad` moves down one line but
    // stays green; its replayed diagnostic must move with it.
    let shifted = format!("val zero = 0\n{base}");
    let (second, r) = warm.rebuild(&shifted);
    assert_eq!(r.green, 2, "{r:?}");
    assert_eq!(r.red, 1, "{r:?}");
    let d2 = line_of(&second);
    assert_ne!(d1, d2, "span did not shift");
    assert_eq!(second, cold(&shifted), "replayed diag diverges from cold");
}

// ---------------------------------------------------------------------
// 4. The process-wide layer: sessions share outcomes
// ---------------------------------------------------------------------

#[test]
fn a_second_session_seeds_from_memory() {
    let src = "val seedA = 1\nval seedB = seedA + 1\nval seedC = seedB + 1\n";
    let baseline = cold(src);
    let (first, r) = Warm::new().rebuild(src);
    assert_eq!(first, baseline);
    assert_eq!(r.red, 3, "{r:?}");
    // The first session is gone; its outcomes stay in the layer.
    let (second, r) = Warm::new().rebuild(src);
    assert_eq!(r.red, 0, "a fresh session did not reuse the layer: {r:?}");
    assert_eq!(second, baseline, "memory-seeded run diverges from cold");
}

/// Two sessions on two threads rebuild interleaved random edit scripts
/// (one starting program, different edit seeds) over the shared layer,
/// starting together so their seeding and write-back race. Every
/// rebuild must equal a cold run and pass the Figure-4 re-check.
#[test]
fn two_sessions_on_two_threads_match_the_cold_baseline() {
    const STEPS: usize = 16;
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = [0x5e55_0001u64, 0x5e55_0002]
        .into_iter()
        .map(|edit_seed| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut script = Script::new(0x5e55_0000);
                script.rng = Rng::new(edit_seed);
                let mut warm = Warm::new();
                let start = script.groups.join("\n");
                barrier.wait();
                let (obs, _) = warm.rebuild(&start);
                assert_eq!(obs, cold(&start), "seed {edit_seed:#x}: start diverges");
                for step in 0..STEPS {
                    let src = script.step();
                    let (obs, r) = warm.rebuild(&src);
                    assert_eq!(
                        obs,
                        cold(&src),
                        "seed {edit_seed:#x}: step {step} diverges from cold"
                    );
                    assert_eq!(r.decls_total, r.green + r.red, "step {step}: {r:?}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("session thread");
    }
}

// ---------------------------------------------------------------------
// 5. The fuel ledger: green reuse is free
// ---------------------------------------------------------------------

/// The session's base gains one declaration before its first rebuild,
/// so the base binds a sym no other session binds and the batch's keys
/// are this test's own: its first load is cold whatever runs beside it.
#[test]
fn green_reuse_charges_no_elaboration_fuel() {
    let src = combined_figure5_batch();
    let mut warm = Warm::new();
    let (_, diags) = warm.sess.run_all("val fuelLedgerBase = 0");
    assert!(diags.is_empty(), "{diags:?}");
    warm.base_len = warm.sess.elab.decls.len();
    let steps_at_base = warm.sess.elab.cx.fuel.lifetime_norm_steps();
    warm.rebuild(&src);
    let steps_cold = warm.sess.elab.cx.fuel.lifetime_norm_steps();
    assert!(
        steps_cold > steps_at_base,
        "cold build of the Figure-5 batch charged no normalization steps"
    );
    let (_, r) = warm.rebuild(&src);
    assert_eq!(r.red, 0, "{r:?}");
    let steps_warm = warm.sess.elab.cx.fuel.lifetime_norm_steps();
    assert_eq!(
        steps_warm, steps_at_base,
        "green reuse charged elaboration fuel"
    );
}

// ---------------------------------------------------------------------
// 6. Machine-readable diagnostics share one encoder
// ---------------------------------------------------------------------

#[test]
fn session_diagnostics_encode_to_the_stable_json_shape() {
    let mut sess = Session::new().expect("session");
    let (_, diags) = sess.run_all("val bad = missingName");
    assert!(!diags.is_empty());
    let json = ur::query::json::diags_to_json(&diags);
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    for key in ["\"code\":\"E", "\"line\":", "\"col\":", "\"message\":", "\"notes\":"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // The flat-object parser accepts a single note-free diagnostic
    // object, so serve-mode consumers can round-trip what CI emits.
    let one = ur::query::json::diag_to_json(&diags[0]).replace(",\"notes\":[]", "");
    let parsed = ur::query::json::parse_flat_object(&one).expect("parses");
    assert_eq!(parsed.get("code").map(String::as_str), Some(diags[0].code.as_str()));
}
