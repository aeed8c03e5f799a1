//! Hash-consing and memoization properties: the interned core
//! ([`ur::core::arena`]) and the judgment memo tables
//! ([`ur::core::memo`]).
//!
//! Three layers of guarantees are pinned down here:
//!
//! 1. **Interning soundness/completeness** — structurally identical closed
//!    constructors built independently intern to the *same* node (pointer
//!    equality), and equal intern ids always imply definitional equality.
//! 2. **Memo transparency** — every memoized judgment (`hnf`, `defeq`,
//!    `normalize_row`, `prove`) returns the same answers with the memo
//!    tables enabled and disabled, on random inputs and on the adversarial
//!    fuel-exhaustion shapes.
//! 3. **End-to-end transparency** — the Figure-5 case studies elaborate to
//!    identical results with caching on and off, and the cached run
//!    actually hits the tables.
//!
//! Randomness comes from the deterministic [`ur_testutil::Rng`]; every
//! test fixes its seed, so failures reproduce exactly.

use ur::core::arena;
use ur::core::con::{Con, RCon};
use ur::core::defeq::defeq;
use ur::core::disjoint::prove;
use ur::core::env::Env;
use ur::core::kind::Kind;
use ur::core::prelude::Cx;
use ur::core::row::{canon_con, normalize_row};
use ur::core::sym::Sym;
use ur_testutil::Rng;

const CASES: usize = 96;

const NAME_POOL: &[&str] = &["A", "B", "C", "D", "E", "F", "G", "H"];

fn prim_type(rng: &mut Rng) -> RCon {
    match rng.below(4) {
        0 => Con::int(),
        1 => Con::float(),
        2 => Con::string(),
        _ => Con::bool_(),
    }
}

/// A random *closed* constructor (no variables, no metavariables) of
/// bounded depth. Two generators driven by equal-seeded `Rng`s produce
/// structurally identical terms, which is what the sharing tests exploit.
fn gen_closed(rng: &mut Rng, depth: u32) -> RCon {
    if depth == 0 {
        return prim_type(rng);
    }
    match rng.below(7) {
        0 => prim_type(rng),
        1 => Con::arrow(gen_closed(rng, depth - 1), gen_closed(rng, depth - 1)),
        2 => Con::pair(gen_closed(rng, depth - 1), gen_closed(rng, depth - 1)),
        3 => Con::name(*rng.pick(NAME_POOL)),
        4 => Con::row_one(Con::name(*rng.pick(NAME_POOL)), gen_closed(rng, depth - 1)),
        5 => Con::row_cat(
            Con::row_one(Con::name(*rng.pick(NAME_POOL)), gen_closed(rng, depth - 1)),
            Con::row_nil(Kind::Type),
        ),
        _ => Con::record(Con::row_one(
            Con::name(*rng.pick(NAME_POOL)),
            gen_closed(rng, depth - 1),
        )),
    }
}

/// A random literal row with distinct field names (0..6 fields).
fn lit_row(rng: &mut Rng) -> Vec<(String, RCon)> {
    let n = rng.below(6);
    let mut m = std::collections::BTreeMap::new();
    for _ in 0..n {
        m.insert(rng.pick(NAME_POOL).to_string(), prim_type(rng));
    }
    m.into_iter().collect()
}

fn to_row(fields: &[(String, RCon)]) -> RCon {
    Con::row_of(
        Kind::Type,
        fields
            .iter()
            .map(|(n, t)| (Con::name(n.as_str()), (*t)))
            .collect(),
    )
}

fn random_assoc(fields: &[(String, RCon)], shape: u64) -> RCon {
    if fields.is_empty() {
        return Con::row_nil(Kind::Type);
    }
    if fields.len() == 1 {
        return to_row(fields);
    }
    let mid = 1 + (shape as usize % (fields.len() - 1));
    Con::row_cat(
        random_assoc(&fields[..mid], shape / 2),
        random_assoc(&fields[mid..], shape / 3 + 1),
    )
}

/// A `Cx` with the memo tables switched off (interning still applies —
/// it is global and semantics-free).
fn uncached_cx() -> Cx {
    let mut cx = Cx::new();
    cx.memo.enabled = false;
    cx
}

// ---------------------------------------------------------------------
// 1. Interning: structural sharing and id-equality soundness.
// ---------------------------------------------------------------------

/// Independently built, structurally identical closed terms intern to
/// one shared node: handles are pointer-equal and carry one `ConId`.
#[test]
fn identical_builds_share_one_node() {
    for seed in 0..CASES as u64 {
        let mut r1 = Rng::new(0x1A7E_0000 + seed);
        let mut r2 = Rng::new(0x1A7E_0000 + seed);
        let a = gen_closed(&mut r1, 4);
        let b = gen_closed(&mut r2, 4);
        assert!(a == b, "hash-consing must share: {a} vs {b}");
    }
}

/// Equal intern ids imply definitional equality (id equality is syntactic
/// equality, which is finer than defeq).
#[test]
fn id_equality_implies_defeq() {
    let mut rng = Rng::new(0x1A7E_1000);
    for _ in 0..CASES {
        let a = gen_closed(&mut rng, 4);
        let b = gen_closed(&mut rng, 4);
        let env = Env::new();
        let mut cx = Cx::new();
        if a == b {
            assert!(defeq(&env, &mut cx, &a, &b));
        }
        // Reflexivity is O(1) under hash-consing but must still hold.
        assert!(defeq(&env, &mut cx, &a, &a));
    }
}

/// Name literals are interned: equal labels share one `Rc<str>`.
#[test]
fn name_literals_are_pointer_shared() {
    let a = Con::name("SharedLabel");
    let b = Con::name(String::from("Shared") + "Label");
    match (&*a, &*b) {
        (Con::Name(x), Con::Name(y)) => {
            assert!(x == y, "labels must share one allocation");
        }
        _ => unreachable!(),
    }
}

/// Flags are conservative but exact on closed terms: a generated closed
/// constructor is always flagged closed.
#[test]
fn generated_closed_terms_are_flagged_closed() {
    let mut rng = Rng::new(0x1A7E_2000);
    for _ in 0..CASES {
        let c = gen_closed(&mut rng, 4);
        assert!(c.flags().is_closed(), "{c} must be closed");
    }
    // And a term with a variable is not.
    let v = Con::var(&Sym::fresh("x"));
    assert!(!Con::arrow(v, Con::int()).flags().is_closed());
}

/// 8-thread intern hammer: every thread races to build the *same*
/// deterministic term sequence, and the sharded arena must hand all of
/// them identical ids (same shallow key ⇒ same id), keep distinct terms
/// on distinct ids, and leave every id dereferenceable afterwards. The
/// sequence is large enough that every shard's hash-cons table grows
/// while the threads race.
#[test]
fn hammer_concurrent_interning_agrees_across_threads() {
    use std::sync::{Arc, Barrier};

    const THREADS: usize = 8;
    const ROUNDS: u64 = 16384;
    const DEPTH: u32 = 8;

    let before = arena::stats().con_per_shard;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..ROUNDS)
                    .map(|seed| {
                        let mut rng = Rng::new(0x4A44_0000 + seed);
                        gen_closed(&mut rng, DEPTH)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let per_thread: Vec<Vec<RCon>> = handles
        .into_iter()
        .map(|h| h.join().expect("hammer thread must not panic"))
        .collect();
    let after = arena::stats().con_per_shard;

    // A shard table starts at 64 buckets and doubles whenever its nodes
    // would fill more than 7/8 of them, so the thresholds are 56, 112,
    // 224, ...: a shard whose node count more than doubled during the
    // race, and ended past 56, grew its table while the threads raced.
    for (s, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(
            *a > 2 * b && *a > 56,
            "shard {s} went from {b} to {a} nodes: its table may not have grown"
        );
    }

    // Same shallow key ⇒ same id, regardless of which thread interned it
    // first: all threads observed the identical id sequence.
    for (t, ids) in per_thread.iter().enumerate().skip(1) {
        assert_eq!(&per_thread[0], ids, "thread {t} disagrees on intern ids");
    }

    // Uniqueness: one id never names two structurally distinct terms.
    let mut seen: std::collections::HashMap<RCon, String> = std::collections::HashMap::new();
    for (seed, id) in per_thread[0].iter().enumerate() {
        let mut rng = Rng::new(0x4A44_0000 + seed as u64);
        let printed = gen_closed(&mut rng, DEPTH).to_string();
        if let Some(prev) = seen.insert(*id, printed.clone()) {
            assert_eq!(prev, printed, "id {id:?} maps to two distinct terms");
        }
    }

    // Stability: re-interning the same sequence afterwards (single
    // threaded, warm table) reproduces every id.
    for (seed, id) in per_thread[0].iter().enumerate() {
        let mut rng = Rng::new(0x4A44_0000 + seed as u64);
        assert_eq!(gen_closed(&mut rng, DEPTH), *id);
    }
}

// ---------------------------------------------------------------------
// 2. Memo transparency on random inputs.
// ---------------------------------------------------------------------

/// `defeq` answers agree between cached and uncached runs, and repeated
/// cached queries (which hit the table) agree with the first answer.
#[test]
fn defeq_memo_agrees_with_uncached() {
    let mut rng = Rng::new(0x3E30_0001);
    let env = Env::new();
    let mut cached = Cx::new();
    for _ in 0..CASES {
        let fields = lit_row(&mut rng);
        let (s1, s2) = (rng.next_u64(), rng.next_u64());
        let t1 = random_assoc(&fields, s1);
        let t2 = random_assoc(&lit_row(&mut rng), s2);
        let mut uncached = uncached_cx();
        let plain = defeq(&env, &mut uncached, &t1, &t2);
        let first = defeq(&env, &mut cached, &t1, &t2);
        let second = defeq(&env, &mut cached, &t1, &t2);
        assert_eq!(plain, first, "cached vs uncached on {t1} = {t2}");
        assert_eq!(first, second, "cache replay on {t1} = {t2}");
    }
    assert!(
        cached.stats.defeq_memo_hits > 0,
        "repeat queries must hit: {}",
        cached.stats
    );
}

/// Row normalization produces the same canonical form with and without
/// the memo table.
#[test]
fn row_memo_agrees_with_uncached() {
    let mut rng = Rng::new(0x3E30_0002);
    let env = Env::new();
    let mut cached = Cx::new();
    for _ in 0..CASES {
        let fields = lit_row(&mut rng);
        let t = random_assoc(&fields, rng.next_u64());
        let mut uncached = uncached_cx();
        let plain = normalize_row(&env, &mut uncached, &t);
        let first = normalize_row(&env, &mut cached, &t);
        let second = normalize_row(&env, &mut cached, &t);
        assert_eq!(canon_con(&plain.to_con()), canon_con(&first.to_con()));
        assert_eq!(canon_con(&first.to_con()), canon_con(&second.to_con()));
    }
    assert!(cached.stats.row_memo_hits > 0, "{}", cached.stats);
}

/// Disjointness verdicts agree between cached and uncached runs.
#[test]
fn disjoint_memo_agrees_with_uncached() {
    let mut rng = Rng::new(0x3E30_0003);
    let env = Env::new();
    let mut cached = Cx::new();
    for _ in 0..CASES {
        let r1 = to_row(&lit_row(&mut rng));
        let r2 = to_row(&lit_row(&mut rng));
        let mut uncached = uncached_cx();
        let plain = prove(&env, &mut uncached, &r1, &r2);
        let first = prove(&env, &mut cached, &r1, &r2);
        // The key is an unordered pair: the flipped query must hit too.
        let flipped = prove(&env, &mut cached, &r2, &r1);
        assert_eq!(plain, first, "cached vs uncached on {r1} ~ {r2}");
        assert_eq!(first, flipped, "symmetry of the verdict cache");
    }
    assert!(cached.stats.disjoint_memo_hits > 0, "{}", cached.stats);
}

/// `hnf` agrees between cached and uncached runs on reducible terms.
#[test]
fn hnf_memo_agrees_with_uncached() {
    let mut rng = Rng::new(0x3E30_0004);
    let env = Env::new();
    let mut cached = Cx::new();
    for _ in 0..CASES {
        // (fn a => a -> a) T, plus projections of pairs: all reducible.
        let t = gen_closed(&mut rng, 3);
        let a = Sym::fresh("a");
        let f = Con::lam(a, Kind::Type, Con::arrow(Con::var(&a), Con::var(&a)));
        let redex = match rng.below(3) {
            0 => Con::app(f, t),
            1 => Con::fst(Con::pair(t, Con::int())),
            _ => Con::snd(Con::pair(Con::int(), t)),
        };
        let mut uncached = uncached_cx();
        let plain = ur::core::hnf::hnf(&env, &mut uncached, &redex);
        let first = ur::core::hnf::hnf(&env, &mut cached, &redex);
        let second = ur::core::hnf::hnf(&env, &mut cached, &redex);
        // Hash-consing makes syntactic equality pointer equality.
        assert!(plain == first, "{plain} vs {first}");
        assert!(first == second);
    }
    assert!(cached.stats.hnf_memo_hits > 0, "{}", cached.stats);
}

/// Solving a metavariable invalidates earlier meta-dependent entries:
/// the memoized answer tracks the solution state, never a stale verdict.
#[test]
fn meta_solution_invalidates_stale_entries() {
    let env = Env::new();
    let mut cx = Cx::new();
    let m = cx.metas.fresh_con(Kind::Type, "t");
    // ?t vs int: not equal while unsolved...
    assert!(!defeq(&env, &mut cx, &m, &Con::int()));
    // ...then ?t := int makes the same query true; a stale cache entry
    // would keep answering false.
    let ur::core::con::Con::Meta(id) = &*m else {
        unreachable!()
    };
    cx.metas.solve(*id, Con::int());
    assert!(defeq(&env, &mut cx, &m, &Con::int()));
}

// ---------------------------------------------------------------------
// 3. Memo transparency on the adversarial fuel-exhaustion shapes.
// ---------------------------------------------------------------------

/// The deep near-miss arrow chain answers the same conservative `false`
/// with the memo on and off, and trips the same budget.
#[test]
fn adversarial_deep_defeq_same_with_and_without_memo() {
    let deep = |leaf: RCon, n: usize| {
        let mut c = leaf;
        for _ in 0..n {
            c = Con::arrow(c, Con::int());
        }
        c
    };
    let env = Env::new();
    let mut verdicts = Vec::new();
    for enabled in [true, false] {
        let mut cx = Cx::new();
        cx.memo.enabled = enabled;
        let (a, b) = (deep(Con::int(), 10_000), deep(Con::float(), 10_000));
        let eq = defeq(&env, &mut cx, &a, &b);
        verdicts.push((eq, cx.fuel.exhausted()));
    }
    assert_eq!(verdicts[0], verdicts[1], "memo must be transparent");
    assert!(!verdicts[0].0);
}

/// Repeated wide-row disjointness queries agree across cached runs even
/// under heavy reuse (the same pair asked many times).
#[test]
fn repeated_wide_disjoint_queries_are_stable() {
    let fields: Vec<(String, RCon)> = (0..64)
        .map(|i| (format!("F{i}"), Con::int()))
        .collect();
    let other: Vec<(String, RCon)> = (0..64)
        .map(|i| (format!("G{i}"), Con::int()))
        .collect();
    let env = Env::new();
    let mut cx = Cx::new();
    let (r1, r2) = (to_row(&fields), to_row(&other));
    let first = prove(&env, &mut cx, &r1, &r2);
    for _ in 0..100 {
        assert_eq!(prove(&env, &mut cx, &r1, &r2), first);
    }
    assert_eq!(first, ur::core::disjoint::ProveResult::Proved);
    assert!(cx.stats.disjoint_memo_hits >= 100);
    // Figure-5 counter semantics: every call counts, hit or miss.
    assert_eq!(cx.stats.disjoint_prover_calls, 101);
}

// ---------------------------------------------------------------------
// 4. End-to-end: Figure-5 case studies, cached vs uncached.
// ---------------------------------------------------------------------

/// Loads every §6 case study into two sessions — memo tables on and off —
/// and checks that elaboration produces identical declarations and the
/// usage demos identical values, while the cached run actually hits the
/// hnf/defeq/disjointness tables (an acceptance criterion of the
/// interning work).
#[test]
fn studies_elaborate_identically_cached_and_uncached() {
    let mut total_cached = ur::core::stats::Stats::new();
    for s in ur::studies::studies() {
        let cached = run_study_with_memo(&s, true);
        let uncached = run_study_with_memo(&s, false);
        assert_eq!(
            cached.0, uncached.0,
            "study {} must produce identical usage values",
            s.id
        );
        assert_eq!(
            cached.1, uncached.1,
            "study {} must elaborate identical declaration types",
            s.id
        );
        total_cached.absorb(&cached.2);
    }
    assert!(total_cached.hnf_memo_hits > 0, "{total_cached}");
    assert!(total_cached.defeq_memo_hits > 0, "{total_cached}");
    assert!(total_cached.disjoint_memo_hits > 0, "{total_cached}");
}

/// Memo transparency must survive concurrent elaboration: sessions on
/// separate threads share the sharded arena (as `ur-serve`'s pool
/// workers do), so interning hit patterns differ completely
/// from a lone sequential run — while every observable result stays
/// identical, memo on or off.
#[test]
fn studies_elaborate_identically_cached_and_uncached_in_parallel() {
    for s in ur::studies::studies() {
        let sequential = run_study_with_memo(&s, true);
        for threads in [2, 4] {
            let runs: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let s = &s;
                        scope.spawn(move || run_study_with_memo(s, t % 2 == 0))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("study thread must not panic"))
                    .collect()
            });
            for (t, run) in runs.iter().enumerate() {
                let memo = if t % 2 == 0 { "cached" } else { "uncached" };
                assert_eq!(
                    sequential.0, run.0,
                    "study {} values diverge: sequential vs {memo} thread {t} of {threads}",
                    s.id
                );
                assert_eq!(
                    sequential.1, run.1,
                    "study {} types diverge: sequential vs {memo} thread {t} of {threads}",
                    s.id
                );
            }
        }
    }
}

/// Runs a study (dependencies, implementation, usage demo) in a fresh
/// session with the memo tables forced on or off. Returns the usage
/// values, the pretty-printed types of all elaborated declarations, and
/// the session's final stats.
fn run_study_with_memo(
    s: &ur::studies::Study,
    enabled: bool,
) -> (Vec<(String, String)>, Vec<String>, ur::core::stats::Stats) {
    fn load(sess: &mut ur::Session, src: &str, what: &str) -> Vec<(String, ur::Value)> {
        let (vals, diags) = sess.run_all(src);
        assert!(diags.is_empty(), "{what} must load cleanly: {diags:?}");
        vals
    }
    fn load_deps(sess: &mut ur::Session, s: &ur::studies::Study) {
        for dep in s.deps {
            let d = ur::studies::study(dep);
            load_deps(sess, &d);
            load(sess, d.implementation(), d.id);
        }
    }
    let mut sess = ur::Session::new().expect("session");
    sess.elab.cx.memo.enabled = enabled;
    load_deps(&mut sess, s);
    load(&mut sess, s.implementation(), s.id);
    let values: Vec<(String, String)> = load(&mut sess, s.usage, "usage")
        .into_iter()
        .map(|(n, v)| (n, v.to_string()))
        .collect();
    let types: Vec<String> = sess
        .elab
        .decls
        .iter()
        .map(|d| strip_sym_ids(&format!("{d:?}")))
        .collect();
    (values, types, sess.elab.cx.stats.clone())
}

/// Erases gensym counters (`foo#123` -> `foo#`) so that two sessions run
/// back to back — which draw different fresh-symbol numbers from the
/// process-global counter — compare structurally.
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
