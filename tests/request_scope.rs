//! Request scopes: every expression a session elaborates leaves the
//! session as it found it.
//!
//! `Elaborator::elab_expr_source` drops the metavariables an expression
//! allocated, restores the solution generation and discards the memo
//! entries it made, on every exit. So a server answering evals does not
//! grow with the requests it answers (*flat*), and what one request
//! leaves behind cannot change the answer to the next (*transparent*).
//!
//! This lives in its own test binary on purpose: arena statistics are
//! process-global, and a concurrent test in a shared binary would intern
//! into the window being measured. The two tests here take one lock for
//! the same reason.

use std::fmt::Write as _;
use std::sync::Mutex;
use ur::core::arena;
use ur::serve::protocol::handle_line;
use ur::serve::ReqCtx;
use ur::studies::study;
use ur::Session;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A session that loaded `src` through the protocol, as a server's does.
fn loaded_session(src: &str) -> (Session, ReqCtx) {
    let mut sess = Session::new().expect("session");
    let mut ctx = ReqCtx::new(None);
    let (resp, _) = handle_line(&mut sess, &mut ctx, &line("load", "source", src), None);
    assert!(
        resp.contains("\"diagnostics\":[]"),
        "the program must load cleanly: {resp}"
    );
    (sess, ctx)
}

fn line(cmd: &str, field: &str, value: &str) -> String {
    format!(
        "{{\"cmd\":\"{cmd}\",\"{field}\":\"{}\"}}",
        ur::query::json::escape(value)
    )
}

/// The table script: the table, then 100 rows inserted by one fold.
fn table_script() -> String {
    let mut src =
        "val t = createTable \"accounts\" {K = sqlInt, Owner = sqlInt, V = sqlInt}".to_string();
    let mut list = String::new();
    for k in 0..100 {
        let _ = write!(list, "cons {{K = {k}, O = {}, V = {}}} (", k % 2, k * 7);
    }
    list.push_str("nil");
    list.push_str(&")".repeat(100));
    let _ = write!(
        src,
        "\nval fill = foldList \
         (fn r u => insert t {{K = const r.K, Owner = const r.O, V = const r.V}}) () ({list})"
    );
    src
}

/// Request `i` of the write/read stream: an insert of a fresh key, the
/// delete of that key, an update of a live key and a point select, each
/// with fresh literals.
fn table_request(i: i64) -> String {
    let live = i % 100;
    match i % 4 {
        0 => format!(
            "insert t {{K = const {}, Owner = const {}, V = const {}}}",
            1_000 + i,
            i % 2,
            i * 13
        ),
        1 => format!(
            "deleteRows t (sqlEq (column [#K]) (const {}))",
            1_000 + i - 1
        ),
        2 => format!(
            "updateRows t {{V = const {}}} (sqlEq (column [#K]) (const {live}))",
            50_000 + i
        ),
        _ => format!("selectAll t (sqlEq (column [#K]) (const {live}))"),
    }
}

#[test]
fn a_request_scope_is_flat() {
    let _g = serial();
    let (mut sess, mut ctx) = loaded_session(&table_script());
    let mut ask = |sess: &mut Session, i: i64| {
        let (resp, _) = handle_line(
            sess,
            &mut ctx,
            &line("eval", "expr", &table_request(i)),
            None,
        );
        assert!(resp.starts_with("{\"ok\":true"), "request {i}: {resp}");
    };
    for i in 0..200 {
        ask(&mut sess, i);
    }
    let metas = sess.elab.cx.metas.len();
    let memo = sess.elab.cx.memo.table_sizes();
    let before = arena::stats();
    const N: i64 = 2_000;
    for i in 200..200 + N {
        ask(&mut sess, i);
    }
    let after = arena::stats();
    assert_eq!(sess.elab.cx.metas.len(), metas, "metavariables grew");
    assert_eq!(sess.elab.cx.memo.table_sizes(), memo, "memo tables grew");
    assert_eq!(after.con_nodes, before.con_nodes, "constructor nodes grew");
    let exprs = after.expr_nodes - before.expr_nodes;
    assert!(
        exprs <= 16 * N as u64,
        "{exprs} expression nodes for {N} requests (over 16 per request)"
    );
    eprintln!(
        "over {N} requests: {} metavariables, {exprs} expression nodes",
        sess.elab.cx.metas.len() - metas
    );
}

/// The folders, `mkTable` and spreadsheet studies, a 20-row dataset, a
/// sheet over it and a 12-field table client.
fn program() -> String {
    let mut src = String::new();
    for id in ["folders", "mktable", "spreadsheet"] {
        src.push_str(study(id).implementation());
        src.push('\n');
    }
    src.push_str("val rows = ");
    for i in 0..20 {
        let b = if i % 3 == 0 { "True" } else { "False" };
        let _ = write!(src, "cons {{Id = {i}, A = {}, B = {b}}} (", i * 7 % 50);
    }
    src.push_str("nil");
    src.push_str(&")".repeat(20));
    src.push_str(
        "\nval s = sheet \"s\" \
         {Id = {Label = \"Id\", Show = showInt}, A = {Label = \"A\", Show = showInt}, \
          B = {Label = \"B\", Show = showBool}} \
         {DA = {Label = \"2A\", Fn = fn x => 2 * x.A, Show = showInt}} \
         {Sum = {Label = \"Sum\", Init = 0, Step = fn x n => x.A + n, Show = showInt}}",
    );
    let meta: Vec<String> = (0..12)
        .map(|i| format!("F{i} = {{Label = \"f{i}\", Show = showInt}}"))
        .collect();
    let _ = write!(src, "\nval client = mkTable {{{}}}", meta.join(", "));
    src
}

/// Read-only request `i`, with fresh literals.
fn read_request(i: i64) -> String {
    let u = 7_000 + 31 * i;
    match i % 4 {
        0 => format!(
            "s.Totals (cons {{Id = {u}, A = {}, B = True}} rows)",
            i % 50
        ),
        1 => format!(
            "foldList (fn x acc => (if x.B then {} * x.A else x.A) + acc) {u} rows",
            i + 2
        ),
        2 => {
            let fields: Vec<String> = (0..12).map(|f| format!("F{f} = {}", u + f)).collect();
            format!("client {{{}}}", fields.join(", "))
        }
        _ => format!("{{A = {u}, B = \"b{i}\"}}.A * 3"),
    }
}

#[test]
fn a_request_scope_is_transparent() {
    let _g = serial();
    let src = program();
    let (mut sess, mut ctx) = loaded_session(&src);
    // What a fresh session loaded with the same program answers.
    let fresh = |req: &str, budget: Option<u64>| {
        let (mut s, mut c) = loaded_session(&src);
        let (resp, _) = handle_line(&mut s, &mut c, req, budget);
        resp
    };
    let fields = |prefix: &str| {
        (0..150)
            .map(|i| format!("{prefix}{i} = {i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let wide = format!("({{{}}} ++ {{{}}}).A0", fields("A"), fields("B"));
    let failures = [
        ("1 + \"a\"", None, "type mismatch"),
        ("nosuch + 1", None, "unbound"),
        (wide.as_str(), Some(1), "resource limit exhausted"),
    ];
    let mut answered = 0;
    for round in 0..6i64 {
        let (bad, budget, code) = failures[round as usize % failures.len()];
        let bad = line("eval", "expr", bad);
        let (resp, _) = handle_line(&mut sess, &mut ctx, &bad, budget);
        assert!(
            resp.starts_with("{\"ok\":false") && resp.contains(code),
            "round {round}: {resp}"
        );
        for i in 0..4 {
            let req = line("eval", "expr", &read_request(round * 4 + i));
            let (resp, _) = handle_line(&mut sess, &mut ctx, &req, None);
            assert!(resp.starts_with("{\"ok\":true"), "{req}: {resp}");
            assert_eq!(resp, fresh(&req, None), "after `{bad}`: {req}");
            answered += 1;
        }
    }
    assert_eq!(answered, 24);
}

#[test]
fn a_declared_type_with_an_undetermined_part_is_rejected() {
    let _g = serial();
    let mut sess = Session::new().expect("session");
    // A request must never be able to solve one of the session's
    // metavariables: `genv` may only hold meta-free types.
    let (_, diags) = sess.reelaborate("val x : _\nval y : list _");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(
        diags.iter().all(|d| d.message.contains("undetermined")),
        "{diags:?}"
    );
    assert!(sess.eval("x + 1").is_err());
}
