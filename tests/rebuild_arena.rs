//! Rebuild arena growth: a live session's incremental rebuilds must not
//! re-intern what the session already holds.
//!
//! The intern arena is process-global and can only reset when no session
//! is alive, so a long-lived server's memory is bounded only if each
//! `Session::reelaborate` interns little beyond the declarations it
//! actually re-elaborates. Green declarations are seeded from live
//! outcomes (arena ids), so a no-op rebuild and a one-declaration edit
//! of a ~230-declaration application must each intern under 1% of the
//! nodes the initial load interned.
//!
//! This lives in its own test binary on purpose: arena statistics are
//! process-global, and a concurrent test in a shared binary would intern
//! into the window being measured.

use std::fmt::Write as _;
use ur::core::arena;
use ur::studies::{studies, study, Study};
use ur::Session;

/// The Figure-5 batch (every study's dependencies and implementation,
/// then every usage demo), a 100-row dataset, two spreadsheets, eight
/// wide `mkTable` clients, and 24 independent knobs, the first set to
/// `knob0`: the shape of an application a serving session keeps loaded.
fn application(knob0: i64) -> String {
    fn push_impl(parts: &mut Vec<&'static str>, s: &Study) {
        for dep in s.deps {
            push_impl(parts, &study(dep));
        }
        let src = s.implementation();
        if !parts.contains(&src) {
            parts.push(src);
        }
    }
    let mut parts = Vec::new();
    let mut usages = Vec::new();
    for s in studies() {
        push_impl(&mut parts, &s);
        usages.push(s.usage);
    }
    parts.extend(usages);
    let mut src = parts.join("\n");
    src.push_str("\nval rows = ");
    for i in 0..100 {
        let b = if i % 3 == 0 { "True" } else { "False" };
        let _ = write!(src, "cons {{Id = {i}, A = {}, B = {b}}} (", i * 7 % 50);
    }
    src.push_str("nil");
    src.push_str(&")".repeat(100));
    for (name, extra) in [
        ("s", ""),
        (
            "s3",
            ", Hi = {Label = \"Hi\", Init = 0, Step = fn x n => if x.A > n then x.A else n, \
             Show = showInt}",
        ),
    ] {
        let _ = write!(
            src,
            "\nval {name} = sheet \"{name}\" \
             {{Id = {{Label = \"Id\", Show = showInt}}, A = {{Label = \"A\", Show = showInt}}, \
               B = {{Label = \"B\", Show = showBool}}}} \
             {{DA = {{Label = \"2A\", Fn = fn x => 2 * x.A, Show = showInt}}}} \
             {{Sum = {{Label = \"Sum\", Init = 0, Step = fn x n => x.A + n, \
                      Show = showInt}}{extra}}}"
        );
    }
    for (c, width) in [6, 8, 10, 12, 14, 16, 18, 20].into_iter().enumerate() {
        let meta: Vec<String> = (0..width)
            .map(|i| format!("F{c}x{i} = {{Label = \"f{i}\", Show = showInt}}"))
            .collect();
        let row: Vec<String> = (0..width).map(|i| format!("F{c}x{i} = {i}")).collect();
        let _ = write!(
            src,
            "\nval client{c} = mkTable {{{}}}\nval render{c} = client{c} {{{}}}",
            meta.join(", "),
            row.join(", ")
        );
    }
    for i in 0..24 {
        let v = if i == 0 { knob0 } else { i };
        let _ = write!(src, "\nval knob{i} = {v}");
    }
    src
}

fn interned_nodes() -> u64 {
    let s = arena::stats();
    s.con_nodes + s.expr_nodes
}

#[test]
fn rebuilds_of_a_live_session_intern_under_one_percent_of_the_load() {
    let dir = std::env::temp_dir().join(format!("ur-rebuild-arena-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sess = Session::new().expect("session");
    sess.cache_dir = Some(dir.clone());

    let src = application(0);
    let before = interned_nodes();
    let (_, diags) = sess.reelaborate(&src);
    assert!(
        diags.is_empty(),
        "the application must load cleanly: {diags:?}"
    );
    let load = interned_nodes() - before;
    let report = sess.last_incr_report().cloned().expect("report");
    assert!(report.decls_total >= 200, "{report:?}");
    assert_eq!(report.red, report.decls_total, "{report:?}");

    let before = interned_nodes();
    let (_, diags) = sess.reelaborate(&src);
    assert!(diags.is_empty(), "{diags:?}");
    let noop = interned_nodes() - before;
    let report = sess.last_incr_report().cloned().expect("report");
    assert_eq!(report.red, 0, "{report:?}");
    assert!(
        noop * 100 < load,
        "a no-op rebuild interned {noop} nodes; the load interned {load}"
    );

    let before = interned_nodes();
    let (vals, diags) = sess.reelaborate(&application(987_654_321));
    assert!(diags.is_empty(), "{diags:?}");
    let edit = interned_nodes() - before;
    let report = sess.last_incr_report().cloned().expect("report");
    assert_eq!(
        report.red, 1,
        "only the edited knob re-elaborates: {report:?}"
    );
    assert!(
        vals.iter()
            .any(|(n, v)| n == "knob0" && v.to_string() == "987654321"),
        "the edit must take effect"
    );
    assert!(
        edit * 100 < load,
        "a one-declaration edit interned {edit} nodes; the load interned {load}"
    );
    eprintln!("interned nodes: load {load}, no-op rebuild {noop}, one-declaration edit {edit}");
    let _ = std::fs::remove_dir_all(&dir);
}
