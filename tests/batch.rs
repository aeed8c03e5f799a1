//! Multi-error batch elaboration through `Session::run_all` and
//! `Elaborator::elab_source_all`: every error is reported, span-sorted,
//! error recovery falls back to an earlier binder, and splitting a batch
//! into consecutive `run_all` calls does not change its outcome.

use ur::infer::Diagnostics;
use ur::Session;
use ur_testutil::Rng;

/// Elaborates `src` in a fresh session (prelude installed), without
/// evaluating. Returns the debug form of every newly elaborated
/// declaration plus the diagnostics.
fn elab(src: &str) -> (Vec<String>, Diagnostics) {
    let mut sess = Session::new().expect("session");
    let (decls, diags) = sess.elab.elab_source_all(src);
    let decls = decls.iter().map(|d| format!("{d:?}")).collect();
    (decls, diags)
}

/// Elaborates *and evaluates* `src`, returning printed values and
/// diagnostics.
fn run(src: &str) -> (Vec<(String, String)>, Diagnostics) {
    let mut sess = Session::new().expect("session");
    let (vals, diags) = sess.run_all(src);
    let vals = vals.into_iter().map(|(n, v)| (n, v.to_string())).collect();
    (vals, diags)
}

fn assert_span_sorted(diags: &Diagnostics, ctx: &str) {
    for w in diags.windows(2) {
        assert!(
            w[0].span <= w[1].span,
            "{ctx}: diagnostics not span-sorted: {} before {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn multi_error_diagnostics_are_complete_and_span_sorted() {
    let src =
        "val a : int = \"not an int\"\nval b = missingVariable\nval c : string = 42\nval good = 7";
    let (decls, diags) = elab(src);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert_eq!(decls.len(), 1, "only `good` elaborates");
    assert_span_sorted(&diags, "multi-error");
    let lines: Vec<u32> = diags.iter().map(|d| d.span.line).collect();
    assert_eq!(lines, vec![1, 2, 3]);
}

#[test]
fn error_recovery_falls_back_to_earlier_binder() {
    // The second `x` fails, so `y` must see the *first* `x` — the
    // recovery rule the dependency graph encodes by drawing edges to
    // every earlier binder, not just the latest.
    let src = "val x = 1\nval x = missingName\nval y = x + 1";
    let (vals, diags) = run(src);
    assert_eq!(diags.len(), 1);
    assert!(
        vals.iter().any(|(n, v)| n == "y" && v == "2"),
        "run must compute y = 2: {vals:?}"
    );
}

/// A pool of independent well-formed declaration groups; any subset in
/// any order is a valid program.
fn gen_groups(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match rng.below(5) {
            0 => format!("val int{i} = {}", rng.range_i64(0, 1000)),
            1 => format!(
                "val rec{i} = {{A{i} = {}, B{i} = \"s{i}\"}}",
                rng.range_i64(0, 100)
            ),
            2 => format!(
                "con ty{i} :: Type = int\nval use{i} : ty{i} = {}",
                rng.range_i64(0, 50)
            ),
            3 => format!(
                "fun f{i} [t :: Type] (x : t) = x\nval app{i} = f{i} {}",
                rng.range_i64(0, 9)
            ),
            _ => format!("val sum{i} = {} + {}", rng.below(100), rng.below(100)),
        })
        .collect()
}

#[test]
fn sharded_elaboration_matches_single_batch() {
    // Splitting one batch into consecutive `run_all` calls must not
    // change the outcome.
    let mut rng = Rng::new(0x5aa2ded);
    let groups = gen_groups(&mut rng, 9);
    let whole = groups.join("\n");
    let (base_vals, base_diags) = run(&whole);
    assert!(base_diags.is_empty(), "{base_diags:?}");
    let mut sess = Session::new().expect("session");
    let mut vals: Vec<(String, String)> = Vec::new();
    let mut diags = Diagnostics::new();
    for shard in groups.chunks(3) {
        let (v, d) = sess.run_all(&shard.join("\n"));
        vals.extend(v.into_iter().map(|(n, v)| (n, v.to_string())));
        diags.extend(d);
    }
    assert_eq!(base_vals, vals, "sharded");
    assert!(diags.is_empty(), "sharded: {diags:?}");
}
