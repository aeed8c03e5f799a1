//! The parser runs on the caller's thread, so its depth budget must fit
//! the stacks callers have. Every recursive shape of the grammar, nested
//! exactly [`MAX_PARSE_DEPTH`] levels deep, must parse on a 1.5 MiB
//! thread (less than the 2 MiB the test runner and `std::thread` give),
//! and one level deeper must be rejected with a diagnostic, not a stack
//! overflow. Run in debug and in release: inlining changes frame sizes.

use ur_syntax::{parse_con, parse_expr, Code, Diagnostic, ParseError, MAX_PARSE_DEPTH};

const STACK: usize = 3 * 512 * 1024;

/// A recursive shape: its name, the entry point that parses it, and a
/// builder whose `build(d)` nests to exactly `d` levels of the depth
/// budget.
type Shape = (
    &'static str,
    fn(&str) -> Result<(), ParseError>,
    fn(usize) -> String,
);

fn expr(src: &str) -> Result<(), ParseError> {
    parse_expr(src).map(drop)
}

fn con(src: &str) -> Result<(), ParseError> {
    parse_con(src).map(drop)
}

/// `open` × n, `leaf`, `close` × n.
fn wrap(open: &str, leaf: &str, close: &str, n: usize) -> String {
    format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
}

// The entry point's own `expr`/`con` is level 1, so `d` levels take
// `d - 1` nestings; a kind starts one level below its binder's `con`.
const SHAPES: &[Shape] = &[
    ("parenthesised expression", expr, |d| {
        wrap("(", "1", ")", d - 1)
    }),
    ("application argument", expr, |d| {
        wrap("cons 1 (", "nil", ")", d - 1)
    }),
    ("record", expr, |d| wrap("{A = ", "1", "}", d - 1)),
    ("fn chain", expr, |d| wrap("fn x => ", "x", "", d - 1)),
    ("if-else chain", expr, |d| {
        wrap("if True then 1 else ", "1", "", d - 1)
    }),
    ("if condition", expr, |d| {
        wrap("if ", "True", " then 1 else 1", d - 1)
    }),
    ("let body chain", expr, |d| {
        wrap("let val x = 1 in ", "x", " end", d - 1)
    }),
    ("let declaration", expr, |d| {
        wrap("let val x = ", "1", " in x end", d - 1)
    }),
    ("e [c] spine", expr, |d| wrap("f [int] (", "1", ")", d - 1)),
    ("annotation", expr, |d| wrap("(", "1", " : int)", d - 1)),
    ("type arrow", con, |d| wrap("int -> ", "int", "", d - 1)),
    ("parenthesised type", con, |d| wrap("(", "int", ")", d - 1)),
    ("row type", con, |d| wrap("[A = ", "int", "]", d - 1)),
    ("record type", con, |d| wrap("{A : ", "int", "}", d - 1)),
    ("guard", con, |d| wrap("[a ~ b] => ", "int", "", d - 1)),
    ("$ prefix run", con, |d| wrap("$", "r", "", d - 1)),
    ("@ prefix run", expr, |d| wrap("@", "f", "", d - 1)),
    ("left-associative chain", expr, |d| {
        wrap("", "1", " + 1", d - 1)
    }),
    ("mixed operator chain", expr, |d| {
        (1..d).fold("1".to_string(), |s, i| {
            s + if i % 2 == 0 { " * 2" } else { " - 3" }
        })
    }),
    (":: polymorphism", con, |d| {
        wrap("a :: Type -> ", "int", "", d - 1)
    }),
    ("row kind", con, |d| {
        format!("fn a :: {} => a", wrap("{", "Type", "}", d - 2))
    }),
    ("kind arrow", con, |d| {
        format!("fn a :: {} => a", wrap("Type -> ", "Type", "", d - 2))
    }),
];

/// Runs `f` on a thread with a [`STACK`]-byte stack; an overflow aborts
/// the whole test binary, so it cannot pass unseen.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(s, f)
            .expect("spawn a small-stack thread")
            .join()
            .expect("the parse thread returns")
    })
}

#[test]
fn every_shape_fits_its_depth_budget_in_a_small_stack() {
    for &(name, parse, build) in SHAPES {
        let (at_limit, deeper) = on_small_stack(|| {
            (
                parse(&build(MAX_PARSE_DEPTH)),
                parse(&build(MAX_PARSE_DEPTH + 1)),
            )
        });
        if let Err(e) = at_limit {
            panic!("{name}: {MAX_PARSE_DEPTH} levels must parse: {e}");
        }
        let Err(e) = deeper else {
            panic!("{name}: {} levels must be rejected", MAX_PARSE_DEPTH + 1);
        };
        let d = Diagnostic::from(e);
        assert_eq!(d.code, Code::ParseTooDeep, "{name}: {d}");
    }
}

#[test]
fn ten_thousand_levels_of_each_shape_are_rejected_on_a_small_stack() {
    for &(name, parse, build) in SHAPES {
        assert!(on_small_stack(|| parse(&build(10_000))).is_err(), "{name}");
    }
}
