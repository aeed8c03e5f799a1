//! Dependency-graph coverage (`ur_infer::batch::DepGraph`): the edges
//! the incremental engine keys invalidation on, under forward
//! references, shadowing, unknown names and local binders.

use ur_infer::DepGraph;
use ur_syntax::parse_program;

fn graph_of(src: &str) -> DepGraph {
    let prog = parse_program(src).expect("parse");
    DepGraph::build(&prog.decls)
}

// ---------------- name resolution ----------------

#[test]
fn references_draw_edges_to_the_binding_declaration() {
    let g = graph_of("val x = 1\nval y = x");
    assert_eq!(g.deps(0), &[] as &[usize]);
    assert_eq!(g.deps(1), &[0]);
}

#[test]
fn forward_references_get_no_edge() {
    // `a` references `laterName` before it is bound; sequentially that is
    // an unbound-variable error, so the graph must NOT point forward —
    // `a` elaborates against the base environment and fails identically.
    let g = graph_of("val a = laterName\nval laterName = 2\nval b = laterName");
    assert_eq!(g.deps(0), &[] as &[usize], "no forward edge");
    assert_eq!(g.deps(2), &[1], "later use binds to the declaration");
}

#[test]
fn shadowing_draws_edges_to_every_earlier_binder() {
    // If the second `x` fails to elaborate, sequential recovery falls
    // back to the first `x` — so a dependent needs BOTH binders done
    // before it can run.
    let g = graph_of("val x = 1\nval x = 2\nval y = x");
    assert_eq!(g.deps(1), &[] as &[usize], "the shadower itself uses no x");
    assert_eq!(g.deps(2), &[0, 1]);
}

#[test]
fn unknown_names_contribute_no_edges() {
    let g = graph_of("val a = nowhere\nval b = 1");
    assert_eq!(g.deps(0), &[] as &[usize]);
    assert_eq!(g.deps(1), &[] as &[usize]);
}

#[test]
fn let_local_binders_do_not_leak_into_the_graph() {
    let g = graph_of("val a = let val q = 1 in q end\nval b = q");
    assert_eq!(g.deps(1), &[] as &[usize], "q is local to a's let");
}

#[test]
fn graphs_built_from_source_are_always_acyclic() {
    // Shadowing, self-reference, forward reference: none of these can
    // produce a cycle, because edges only ever point to earlier indices.
    for src in [
        "val x = 1\nval x = x\nval x = x",
        "fun f (x : int) = f x",
        "val a = b\nval b = a",
    ] {
        let g = graph_of(src);
        for i in 0..g.len() {
            assert!(
                g.deps(i).iter().all(|&d| d < i),
                "source {src:?}: declaration {i} depends on {:?}",
                g.deps(i)
            );
        }
    }
}
