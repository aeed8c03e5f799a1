//! One elaborated prelude per intern-arena generation: every session of
//! a generation clones the same base, so all of them bind the same
//! prelude syms and share the incremental engine's live-outcome layer.
//! Neither the base nor the layer holds an arena lease: once every
//! session has dropped, the arena resets, and the next session
//! elaborates a new base over an empty layer.
//!
//! This lives in its own test binary on purpose: `try_reset` demands
//! process-wide quiescence, which concurrent tests in a shared binary
//! could not guarantee.

use ur::core::arena;
use ur::core::sym::Sym;
use ur::infer::ElabDecl;
use ur::Session;

const SRC: &str = "val baseA = 1\nval baseB = baseA + 1";

fn prelude_syms(sess: &Session) -> Vec<Sym> {
    sess.elab
        .decls
        .iter()
        .map(|d| match d {
            ElabDecl::Con { sym, .. } | ElabDecl::Val { sym, .. } => *sym,
        })
        .collect()
}

/// Rebuilds `sess` as `SRC` and returns how many declarations were red.
fn red_of_load(sess: &mut Session) -> usize {
    let (vals, diags) = sess.reelaborate(SRC);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(vals.len(), 2);
    assert_eq!(sess.get_int("baseB").expect("baseB"), 2);
    sess.last_incr_report().expect("report").red
}

#[test]
fn sessions_of_one_generation_share_a_base_and_a_reset_makes_a_new_one() {
    let (syms, generation) = {
        let mut first = Session::new().expect("session");
        let second = Session::new().expect("session");
        let syms = prelude_syms(&first);
        assert!(!syms.is_empty(), "the prelude declares something");
        assert_eq!(prelude_syms(&second), syms, "one generation, one base");
        assert_eq!(red_of_load(&mut first), 2, "a cold load");
        (syms, arena::generation())
    };
    assert_eq!(
        arena::lease_count(),
        0,
        "the base and the layer hold no lease"
    );

    // Within the generation a new session reuses both.
    {
        let mut third = Session::new().expect("session");
        assert_eq!(prelude_syms(&third), syms);
        assert_eq!(red_of_load(&mut third), 0, "the layer outlives its session");
    }

    assert!(arena::try_reset(), "no session is alive");
    assert_eq!(arena::generation(), generation + 1);
    let mut fresh = Session::new().expect("session");
    let fresh_syms = prelude_syms(&fresh);
    assert_eq!(fresh_syms.len(), syms.len());
    assert!(
        fresh_syms.iter().zip(&syms).all(|(a, b)| a != b),
        "a new generation elaborates a new base"
    );
    assert_eq!(red_of_load(&mut fresh), 2, "a reset empties the layer");
}
