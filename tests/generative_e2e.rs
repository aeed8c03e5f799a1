//! Generative end-to-end testing: random record programs are produced as
//! *source text*, elaborated, evaluated, and compared against a reference
//! semantics computed in Rust. This exercises the whole pipeline (lexer,
//! parser, elaborator, folder generation, interpreter) on inputs no one
//! hand-wrote.
//!
//! Randomness comes from the in-repo deterministic [`ur_testutil::Rng`]
//! (offline build: no `proptest`); seeds are fixed, so failures reproduce.

use std::collections::BTreeMap;
use ur::eval::EvalEngine;
use ur::Session;
use ur_testutil::{gen, Rng};

const CASES: usize = 48;

#[derive(Clone, Debug)]
enum FieldVal {
    Int(i64),
    Str(String),
    Bool(bool),
}

impl FieldVal {
    fn ur_literal(&self) -> String {
        match self {
            FieldVal::Int(n) => n.to_string(),
            FieldVal::Str(s) => format!("{s:?}"),
            FieldVal::Bool(true) => "True".to_string(),
            FieldVal::Bool(false) => "False".to_string(),
        }
    }

    fn expected_display(&self) -> String {
        match self {
            FieldVal::Int(n) => n.to_string(),
            FieldVal::Str(s) => format!("{s:?}"),
            FieldVal::Bool(true) => "True".to_string(),
            FieldVal::Bool(false) => "False".to_string(),
        }
    }
}

fn field_val(rng: &mut Rng) -> FieldVal {
    match rng.below(3) {
        0 => FieldVal::Int(rng.range_i64(0, 1000)),
        1 => FieldVal::Str(rng.lowercase(8)),
        _ => FieldVal::Bool(rng.bool_()),
    }
}

/// A random record with 1..5 distinct field names.
fn record(rng: &mut Rng) -> BTreeMap<String, FieldVal> {
    const NAMES: &[&str] = &["A", "B", "C", "D", "E"];
    let n = 1 + rng.below(4);
    let mut m = BTreeMap::new();
    while m.len() < n {
        let name = rng.pick(NAMES).to_string();
        let v = field_val(rng);
        m.insert(name, v);
    }
    m
}

fn record_literal(rec: &BTreeMap<String, FieldVal>) -> String {
    let fields: Vec<String> = rec
        .iter()
        .map(|(n, v)| format!("{n} = {}", v.ur_literal()))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Projection of every field of a random record literal returns the
/// field's value.
#[test]
fn projections_evaluate_to_their_fields() {
    let mut rng = Rng::new(0xE2E_0001);
    for _ in 0..CASES {
        let rec = record(&mut rng);
        let mut sess = Session::new().unwrap();
        sess.run(&format!("val r = {}", record_literal(&rec))).unwrap();
        for (name, v) in &rec {
            let got = sess.eval(&format!("r.{name}")).unwrap();
            assert_eq!(got.to_string(), v.expected_display());
        }
    }
}

/// Removing a field then re-adding it rebuilds the same record value,
/// through the generic paper `proj`-style machinery.
#[test]
fn cut_and_readd_preserves_records() {
    let mut rng = Rng::new(0xE2E_0002);
    for _ in 0..CASES {
        let rec = record(&mut rng);
        let names: Vec<&String> = rec.keys().collect();
        let chosen = names[rng.below(names.len())].clone();
        let mut sess = Session::new().unwrap();
        sess.run(&format!(
            "val r = {lit}\nval r2 = (r -- {f}) ++ {{{f} = r.{f}}}",
            lit = record_literal(&rec),
            f = chosen
        ))
        .unwrap();
        let v1 = sess.eval("r").unwrap().to_string();
        let v2 = sess.eval("r2").unwrap().to_string();
        assert_eq!(v1, v2);
    }
}

/// A random split of a record into two disjoint literals concatenates
/// back to the whole, independent of order.
#[test]
fn split_concat_roundtrip() {
    let mut rng = Rng::new(0xE2E_0003);
    for _ in 0..CASES {
        let rec = record(&mut rng);
        let items: Vec<(&String, &FieldVal)> = rec.iter().collect();
        let k = rng.below(items.len() + 1);
        let (l, r) = items.split_at(k);
        let part = |fields: &[(&String, &FieldVal)]| {
            let inner: Vec<String> = fields
                .iter()
                .map(|(n, v)| format!("{n} = {}", v.ur_literal()))
                .collect();
            format!("{{{}}}", inner.join(", "))
        };
        let mut sess = Session::new().unwrap();
        sess.run(&format!(
            "val whole = {}\nval ab = {} ++ {}\nval ba = {} ++ {}",
            record_literal(&rec),
            part(l),
            part(r),
            part(r),
            part(l),
        ))
        .unwrap();
        let whole = sess.eval("whole").unwrap().to_string();
        assert_eq!(sess.eval("ab").unwrap().to_string(), whole.clone());
        assert_eq!(sess.eval("ba").unwrap().to_string(), whole);
    }
}

/// The generic projection metaprogram agrees with direct projection on
/// random records, for every field.
#[test]
fn generic_proj_matches_direct() {
    let mut rng = Rng::new(0xE2E_0004);
    for _ in 0..CASES {
        let rec = record(&mut rng);
        let mut sess = Session::new().unwrap();
        sess.run(
            "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
                 (x : $([nm = t] ++ r)) = x.nm",
        )
        .unwrap();
        sess.run(&format!("val r = {}", record_literal(&rec))).unwrap();
        for name in rec.keys() {
            let generic = sess.eval(&format!("proj [#{name}] r")).unwrap().to_string();
            let direct = sess.eval(&format!("r.{name}")).unwrap().to_string();
            assert_eq!(generic, direct);
        }
    }
}

/// Round-trip through the database: a random record inserted into a
/// matching table comes back unchanged.
#[test]
fn db_roundtrip_for_random_records() {
    let mut rng = Rng::new(0xE2E_0005);
    for _ in 0..CASES {
        let rec = record(&mut rng);
        let mut sess = Session::new().unwrap();
        let schema: Vec<String> = rec
            .iter()
            .map(|(n, v)| {
                let ty = match v {
                    FieldVal::Int(_) => "sqlInt",
                    FieldVal::Str(_) => "sqlString",
                    FieldVal::Bool(_) => "sqlBool",
                };
                format!("{n} = {ty}")
            })
            .collect();
        let exps: Vec<String> = rec
            .iter()
            .map(|(n, v)| format!("{n} = const {}", v.ur_literal()))
            .collect();
        sess.run(&format!(
            "val t = createTable \"gen\" {{{}}}\n\
             val u = insert t {{{}}}",
            schema.join(", "),
            exps.join(", "),
        ))
        .unwrap();
        let rows = sess.eval("selectAll t (sqlTrue)").unwrap();
        let rows = rows.as_list().unwrap();
        assert_eq!(rows.len(), 1);
        let rec_v = rows[0].as_record().unwrap();
        for (name, v) in &rec {
            assert_eq!(rec_v[name.as_str()].to_string(), v.expected_display());
        }
    }
}

/// A session pinned to one execution engine.
fn session_with(engine: EvalEngine) -> Session {
    let mut sess = Session::new().unwrap();
    sess.engine = engine;
    sess
}

/// The eval-heavy tier: random programs full of shadowed `let`s,
/// capturing closures, folds, and record algebra, run through BOTH
/// engines declaration-by-declaration. Any divergence — in a value, or
/// in the evaluation steps the program charged — is a bug in the
/// bytecode compiler or VM (the tree-walking interpreter is the
/// oracle); the failing seed is in the panic message.
#[test]
fn eval_heavy_programs_agree_across_engines() {
    for case in 0..CASES as u64 {
        let seed = 0xE2E_0006 + case;
        let mut rng = Rng::new(seed);
        let prog = gen::eval_program(&mut rng, 8, 3);
        let mut vm = session_with(EvalEngine::Vm);
        let mut oracle = session_with(EvalEngine::Interp);
        let (vm_defs, vm_diags) = vm.run_all(&prog.source);
        let (or_defs, or_diags) = oracle.run_all(&prog.source);
        assert!(
            vm_diags.is_empty() && or_diags.is_empty(),
            "seed {seed:#x}: generated program failed to elaborate\n\
             vm: {vm_diags:?}\ninterp: {or_diags:?}\nprogram:\n{}",
            prog.source
        );
        assert_eq!(
            vm_defs.len(),
            or_defs.len(),
            "seed {seed:#x}: engines defined different numbers of values\nprogram:\n{}",
            prog.source
        );
        for ((vn, vv), (on, ov)) in vm_defs.iter().zip(&or_defs) {
            assert_eq!(vn, on, "seed {seed:#x}: declaration order diverged");
            assert_eq!(
                vv.to_string(),
                ov.to_string(),
                "seed {seed:#x}: engines disagree on `{vn}`\nprogram:\n{}",
                prog.source
            );
        }
        assert_eq!(
            vm.stats().eval_steps,
            oracle.stats().eval_steps,
            "seed {seed:#x}: engines charged different steps\nprogram:\n{}",
            prog.source
        );
    }
}

/// Re-evaluating the same generated expressions through one VM session
/// hits the per-declaration chunk cache (identical bodies hash-cons to
/// the same core term); the cached chunk must produce the same value
/// as the first compile, and as the oracle.
#[test]
fn chunk_cache_reuse_stays_consistent_with_the_oracle() {
    for case in 0..8u64 {
        let seed = 0xE2E_0007 + case;
        let mut rng = Rng::new(seed);
        let prog = gen::eval_program(&mut rng, 6, 3);
        let mut vm = session_with(EvalEngine::Vm);
        let mut oracle = session_with(EvalEngine::Interp);
        let (_, vm_diags) = vm.run_all(&prog.source);
        let (_, or_diags) = oracle.run_all(&prog.source);
        assert!(
            vm_diags.is_empty() && or_diags.is_empty(),
            "seed {seed:#x}: generated program failed to elaborate:\n{}",
            prog.source
        );
        for name in &prog.vals {
            let first = vm.eval(name).unwrap().to_string();
            let second = vm.eval(name).unwrap().to_string();
            let reference = oracle.eval(name).unwrap().to_string();
            assert_eq!(first, second, "seed {seed:#x}: cached chunk diverged on {name}");
            assert_eq!(first, reference, "seed {seed:#x}: vm diverged on {name}");
        }
    }
}
