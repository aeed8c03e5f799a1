//! Arena growth bound (tentpole acceptance test): repeated sessions must
//! not grow the shared intern arena without bound.
//!
//! Every `Session` takes an [`ur::core::arena::ArenaLease`]; while any
//! lease is live, [`ur::core::arena::try_reset`] refuses to run, and once
//! the last session drops the arena may be drained in place (generation
//! bump, hash-cons maps cleared).
//!
//! This lives in its own test binary on purpose: `try_reset` demands
//! process-wide quiescence, which concurrent tests in a shared binary
//! could not guarantee.

use ur::core::arena;

const SRC: &str = "val r = { A = 1, B = \"two\", C = 40 + 2 }\n\
                   val total = r.A + r.C\n\
                   val label = r.B";

/// One full session cycle: build, elaborate, evaluate, drop.
fn run_cycle() {
    let mut sess = ur::Session::new().expect("session");
    let (vals, diags) = sess.run_all(SRC);
    assert!(diags.is_empty(), "cycle must elaborate cleanly: {diags:?}");
    assert_eq!(vals.len(), 3);
}

#[test]
fn arena_growth_is_bounded_over_100_session_cycles() {
    // While a session is alive its lease must veto the reset.
    {
        let sess = ur::Session::new().expect("session");
        assert!(arena::lease_count() >= 1);
        assert!(!arena::try_reset(), "live lease must block reset");
        drop(sess);
    }

    // Establish the per-cycle footprint: one cycle from a clean slate.
    assert!(arena::try_reset(), "quiescent arena must reset");
    run_cycle();
    let per_cycle = arena::stats();
    assert!(per_cycle.con_nodes > 0, "a cycle must intern terms");
    let bound = (per_cycle.con_nodes + per_cycle.expr_nodes) * 2;

    let gen_before = arena::generation();
    for i in 0..100 {
        assert!(
            arena::try_reset(),
            "cycle {i}: no live sessions, reset must run"
        );
        run_cycle();
        let s = arena::stats();
        assert!(
            s.con_nodes + s.expr_nodes <= bound,
            "cycle {i}: arena grew past the per-cycle bound: \
             {} + {} > {bound}",
            s.con_nodes,
            s.expr_nodes,
        );
    }
    assert_eq!(
        arena::generation(),
        gen_before + 100,
        "every reset must bump the generation"
    );

    // A reset drains the term stores entirely (strings survive — labels
    // may be cached in diagnostics beyond term lifetime).
    assert!(arena::try_reset());
    let drained = arena::stats();
    assert_eq!(drained.con_nodes, 0);
    assert_eq!(drained.expr_nodes, 0);

    // The arena remains fully serviceable after many resets.
    run_cycle();
}
