//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public API.
//!
//! After the ordinary (untraced) run, the same seeded streams are
//! replayed on local sessions. Each request is one op: a root span,
//! the `serve` handler span around `protocol::handle_line` (called with
//! the TCP server's per-request budget), and sibling spans around the
//! public calls the handler makes internally, made again by the
//! benchmark on twin sessions fed the same stream (`Session::reelaborate`,
//! `Engine::run`, `parse_program`, `DepGraph::build`, `Session::eval`,
//! `elab_expr_source`, `ur_eval::compile`, and `Db` calls on a direct
//! handle). Counters come from the layers' own statistics deltas.

use crate::inputs::{
    compile_sources, initial_rows, Class, CompileStream, DbOp, EditEvalStream, RwStream, TABLE,
};
use crate::metrics::{median, Metrics};
use crate::run::{budget_ms, local_durable, local_session, Ctx, Outcome, Workload};
use crate::trace::Tracer;
use std::time::Instant;
use ur_core::stats::Stats;
use ur_db::{ColTy, Db, DbVal, Schema, SqlExpr};
use ur_infer::{ElabDecl, Elaborator};
use ur_query::json::{diags_to_json, escape, parse_flat_object};
use ur_query::{Engine, EngineConfig};
use ur_serve::{protocol, ReqCtx};
use ur_web::{Session, PRELUDE};

/// Replay sizes: the workload's own class gets the larger replay.
const COMPILES: [usize; 2] = [4, 12];
const APP_REQUESTS: [usize; 2] = [210, 420];
const RW_REQUESTS: [usize; 2] = [600, 1_200];
/// Explicit checkpoints timed for `db.checkpoint_ms`.
const CHECKPOINTS: usize = 3;
/// Requests the direct store replay runs past the handler replay.
const DIRECT_TAIL: usize = 3_000;

fn size(sizes: [usize; 2], native: bool) -> usize {
    sizes[usize::from(native)]
}

fn handler_span(c: Class) -> &'static str {
    match c {
        Class::Edit => "serve.handler.edit",
        Class::Eval => "serve.handler.eval",
        Class::Read => "serve.handler.read",
        Class::Write | Class::Compile => "serve.handler.write",
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs every traced replay and returns the per-layer metrics.
pub fn measure(w: Workload, cx: &Ctx, run: &Outcome, fsync_us: f64) -> Result<Metrics, String> {
    let mut tr = Tracer::new();
    let mut m = Metrics::new();
    compiles(cx, w == Workload::ColdCompile, &mut tr, &mut m)?;
    let app = app(cx, w == Workload::EditEval, &mut tr, &mut m)?;
    let store = durable(cx, w == Workload::DurableRw, &mut tr, &mut m)?;
    m.insert("db.fsync_us", fsync_us);

    // Evals and reads are the durable replay's on `durable_rw` (point
    // selects, snapshot reads), the application replay's elsewhere.
    let (eval, read) = if w == Workload::DurableRw {
        (store.eval, store.read)
    } else {
        (app.eval, app.read)
    };
    for (c, handler, name, front) in [
        (
            Class::Edit,
            app.edit,
            "serve.handler_ms.edit",
            "serve.frontdoor_ms.edit",
        ),
        (
            Class::Eval,
            eval,
            "serve.handler_ms.eval",
            "serve.frontdoor_ms.eval",
        ),
        (
            Class::Read,
            read,
            "serve.handler_ms.read",
            "serve.frontdoor_ms.read",
        ),
        (
            Class::Write,
            store.write,
            "serve.handler_ms.write",
            "serve.frontdoor_ms.write",
        ),
    ] {
        m.insert(name, handler);
        m.insert(front, run.lat.q(c, 0.5) - handler);
    }
    m.insert("e2e.ops_per_s", run.ops_per_s);
    m.insert("e2e.compile_p50_ms", run.lat.q(Class::Compile, 0.50));
    m.insert("e2e.edit_p50_ms", run.lat.q(Class::Edit, 0.50));
    m.insert("e2e.eval_p50_ms", run.lat.q(Class::Eval, 0.50));
    m.insert("e2e.write_p50_ms", run.lat.q(Class::Write, 0.50));
    m.insert("e2e.read_p50_ms", run.lat.q(Class::Read, 0.50));
    m.insert("e2e.compile_p95_ms", run.lat.q(Class::Compile, 0.95));
    m.insert("e2e.edit_p95_ms", run.lat.q(Class::Edit, 0.95));
    m.insert("e2e.eval_p99_ms", run.lat.q(Class::Eval, 0.99));
    m.insert("e2e.write_p99_ms", run.lat.q(Class::Write, 0.99));
    let s = run.summary.clone().unwrap_or_default();
    m.insert("serve.shed", s.shed as f64);
    m.insert("serve.deadline_expired", s.deadline_expired as f64);
    m.insert("serve.worker_restarts", s.worker_restarts as f64);
    if let Some(b) = run.arena_bytes_per_op {
        m.insert("core.arena_bytes_per_op", b);
    }
    if run.summary.is_some() {
        m.insert("query.disk_store_errs", run.disk_store_errs as f64);
    }

    let ops = tr.ops().max(1) as f64;
    let selfs = tr.self_ms_by_layer();
    for (layer, name) in [
        ("syntax", "self_ms.syntax"),
        ("infer", "self_ms.infer"),
        ("query", "self_ms.query"),
        ("eval", "self_ms.eval"),
        ("web", "self_ms.web"),
        ("db", "self_ms.db"),
        ("serve", "self_ms.serve"),
        ("bench", "self_ms.bench"),
    ] {
        m.insert(name, selfs.get(layer).copied().unwrap_or(0.0) / ops);
    }
    m.insert("trace.overhead_frac", app.overhead_frac);

    // The span file outlives the run's scratch directory, next to it.
    let run = cx
        .dir
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let dir = cx.dir.with_file_name("traces");
    let path = dir.join(format!("{run}.jsonl"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| tr.write_jsonl(&path, &format!("{{\"trace\":\"spans\",\"run\":\"{run}\"}}")))
        .map_err(|e| format!("write trace: {e}"))?;
    eprintln!(
        "trace: {} spans in {} ops written to {}",
        tr.spans().len(),
        tr.ops(),
        path.display()
    );
    Ok(m)
}

/// Compile replay: each op is decomposed into `Session::new`,
/// `parse_program`, `DepGraph::build`, elaboration as `run_all`
/// performs it (`elab_program_all_with_graph` at the session's thread
/// count), and chunk compilation of every value, each in its own span.
fn compiles(cx: &Ctx, native: bool, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let sources = compile_sources(cx.seed);
    let mut stream = CompileStream::new(cx.seed);
    let n = size(COMPILES, native);
    let mut delta = Stats::new();
    let (mut steps, mut arena_bytes, mut intern) = (0u64, 0u64, (0u64, 0u64));
    for _ in 0..n {
        let src = &sources[stream.next_variant()];
        ur_core::arena::try_reset();
        let a0 = ur_core::arena::stats();
        tr.op("bench.compile", |tr| -> Result<(), String> {
            let mut sess = tr
                .span("web.session_new", |_| Session::new())
                .map_err(|e| e.to_string())?;
            let prog = tr
                .span("syntax.parse", |_| ur_syntax::parse_program(src))
                .map_err(|e| format!("parse: {e:?}"))?;
            let graph = tr.span("infer.depgraph", |_| ur_infer::DepGraph::build(&prog.decls));
            let before = sess.elab.cx.stats.clone();
            let steps0 = sess.elab.cx.fuel.lifetime_norm_steps();
            let threads = sess.threads;
            let (decls, _) = tr.span("infer.elab", |_| {
                ur_infer::batch::elab_program_all_with_graph(&mut sess.elab, &prog, threads, &graph)
            });
            delta.absorb(&sess.elab.cx.stats.since(&before));
            steps += sess
                .elab
                .cx
                .fuel
                .lifetime_norm_steps()
                .saturating_sub(steps0);
            tr.span("eval.compile", |_| compile_values(&sess.elab, &decls));
            Ok(())
        })?;
        let a1 = ur_core::arena::stats();
        arena_bytes += a1.bytes;
        intern.0 += a1.hits.saturating_sub(a0.hits);
        intern.1 += a1.misses.saturating_sub(a0.misses);
    }
    let n = n as f64;
    let per = |v: u64| v as f64 / n;
    m.insert("syntax.parse_ms", median(&tr.durations_ms("syntax.parse")));
    m.insert(
        "infer.depgraph_ms",
        median(&tr.durations_ms("infer.depgraph")),
    );
    m.insert("infer.elab_ms", median(&tr.durations_ms("infer.elab")));
    m.insert(
        "web.session_new_ms",
        median(&tr.durations_ms("web.session_new")),
    );
    m.insert("infer.unify_calls", per(delta.unify_calls));
    m.insert(
        "infer.constraints_postponed",
        per(delta.constraints_postponed),
    );
    m.insert("infer.par_workers", per(delta.par_workers));
    m.insert("infer.par_decls", per(delta.par_decls));
    m.insert("core.norm_steps", per(steps));
    m.insert("core.row_normalizations", per(delta.row_normalizations));
    m.insert(
        "core.disjoint_prover_calls",
        per(delta.disjoint_prover_calls),
    );
    m.insert("core.law_map_identity", per(delta.law_map_identity));
    m.insert("core.law_map_distrib", per(delta.law_map_distrib));
    m.insert("core.law_map_fusion", per(delta.law_map_fusion));
    let memo_hits = delta.hnf_memo_hits
        + delta.defeq_memo_hits
        + delta.row_memo_hits
        + delta.disjoint_memo_hits;
    let memo_misses = delta.hnf_memo_misses
        + delta.defeq_memo_misses
        + delta.row_memo_misses
        + delta.disjoint_memo_misses;
    m.insert("core.memo_hit_ratio", ratio(memo_hits, memo_misses));
    m.insert(
        "core.gmemo_hit_ratio",
        ratio(delta.gmemo_hits, delta.gmemo_misses),
    );
    m.insert("core.intern_hit_ratio", ratio(intern.0, intern.1));
    // Without a serving window, a compile's arena footprint is its cost.
    m.insert("core.arena_bytes_per_op", arena_bytes as f64 / n);
    Ok(())
}

/// Lowers every elaborated value body to a VM chunk against a scratch
/// context, as the session's chunk cache does on a miss.
fn compile_values(elab: &Elaborator, decls: &[ElabDecl]) -> usize {
    let mut n = 0;
    for d in decls {
        if let ElabDecl::Val {
            name,
            body: Some(body),
            ..
        } = d
        {
            let mut scratch = ur_core::Cx::new();
            std::hint::black_box(ur_eval::compile(&elab.genv, &mut scratch, body, name));
            n += 1;
        }
    }
    n
}

/// Edit/eval/read replay over one `edit_eval` stream. Session `a`
/// serves through `handle_line`; twin `b` takes the same requests
/// through `Session::reelaborate` / `Session::eval` directly; an
/// elaborator restored to the prelude base runs `Engine::run` for
/// every rebuild. The same requests are also served once untraced, the
/// base of `trace.overhead_frac`. Incremental counters skip the initial
/// load, which is red throughout.
fn app(cx: &Ctx, native: bool, tr: &mut Tracer, m: &mut Metrics) -> Result<AppHandlers, String> {
    let n = size(APP_REQUESTS, native);
    let from = tr.spans().len();
    let requests: Vec<(Class, String)> = {
        let mut s = EditEvalStream::new(cx.seed, 0);
        let mut v = vec![(Class::Edit, s.load().line)];
        v.extend((1..n).map(|_| {
            let r = s.next_req();
            (r.class, r.line)
        }));
        v
    };

    // Untraced: the same requests, handler path only, plain timing.
    let untraced_ms: Vec<f64> = {
        let mut a = local_session(&cx.subdir("trace-untraced-cache"), None)?;
        let mut ctx = ReqCtx::new(None);
        requests
            .iter()
            .map(|(_, line)| {
                let t = Instant::now();
                std::hint::black_box(protocol::handle_line(
                    &mut a,
                    &mut ctx,
                    line,
                    Some(budget_ms()),
                ));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };

    // Each session and the engine get their own disk cache, so none of
    // them finds the others' stores: each sees what a lone server
    // session sees.
    let mut a = local_session(&cx.subdir("trace-app-cache-a"), None)?;
    let mut b = local_session(&cx.subdir("trace-app-cache-b"), None)?;
    let base = Session::new().map_err(|e| e.to_string())?;
    let base_snap = base.elab.snapshot();
    let mut c: Elaborator = base.elab;
    let mut engine = Engine::new(EngineConfig {
        cache_dir: Some(cx.subdir("trace-app-cache-c")),
        base_tag: ur_core::fingerprint::hash_str(PRELUDE),
    });
    let threads = a.threads;
    let mut ctx = ReqCtx::new(None);
    let stats0 = a.stats().clone();
    let (mut green, mut total, mut red, mut edits, mut evals, mut store_errs) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut encode_us = Vec::new();
    for (i, (class, line)) in requests.iter().enumerate() {
        let req = parse_flat_object(line).unwrap_or_default();
        tr.op("bench.request", |tr| {
            tr.span(handler_span(*class), |_| {
                protocol::handle_line(&mut a, &mut ctx, line, Some(budget_ms()))
            });
            match class {
                Class::Edit => {
                    let src = req.get("source").map(String::as_str).unwrap_or_default();
                    let (_, diags) = tr.span("web.reelaborate", |_| b.reelaborate(src));
                    c.restore(base_snap.clone());
                    let (_, _, report) =
                        tr.span("query.engine", |_| engine.run(&mut c, src, threads));
                    store_errs += report.disk_store_errs;
                    if i > 0 {
                        green += report.green as u64;
                        total += report.decls_total as u64;
                        red += report.red as u64;
                        edits += 1;
                    }
                    if let Ok(prog) = tr.span("syntax.parse", |_| ur_syntax::parse_program(src)) {
                        tr.span("infer.depgraph", |_| ur_infer::DepGraph::build(&prog.decls));
                    }
                    let t = Instant::now();
                    tr.span("serve.encode", |_| {
                        std::hint::black_box(diags_to_json(&diags))
                    });
                    encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                Class::Eval => {
                    let expr = req.get("expr").map(String::as_str).unwrap_or_default();
                    evals += 1;
                    let value = tr.span("web.eval", |_| b.eval(expr));
                    if let Ok((ee, _)) = tr.span("web.elab_expr", |_| b.elab.elab_expr_source(expr))
                    {
                        tr.span("eval.compile", |_| {
                            let mut scratch = ur_core::Cx::new();
                            std::hint::black_box(ur_eval::compile(
                                &b.elab.genv,
                                &mut scratch,
                                &ee,
                                "<expr>",
                            ))
                        });
                    }
                    if let Ok(v) = value {
                        let t = Instant::now();
                        tr.span("serve.encode", |_| {
                            std::hint::black_box(escape(&v.to_string()))
                        });
                        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
                _ => {}
            }
        });
    }
    let d = a.stats().since(&stats0);
    let ops = requests.len() as f64;
    let med = |name: &str| median(&tr.durations_ms_from(name, from));
    m.insert("query.engine_ms", med("query.engine"));
    m.insert("query.green_ratio", ratio(green, total - green));
    m.insert("query.red_per_edit", red as f64 / edits.max(1) as f64);
    m.insert("query.disk_store_errs", store_errs as f64);
    m.insert("web.reelaborate_ms", med("web.reelaborate"));
    m.insert("web.eval_ms", med("web.eval"));
    m.insert("web.elab_expr_ms", med("web.elab_expr"));
    m.insert("eval.compile_ms", med("eval.compile"));
    m.insert("eval.chunks_per_op", d.eval_chunks_compiled as f64 / ops);
    m.insert(
        "eval.chunk_hit_ratio",
        ratio(d.eval_chunk_hits, d.eval_chunks_compiled),
    );
    m.insert("eval.vm_ops_per_op", d.eval_vm_ops as f64 / ops);
    m.insert(
        "eval.dispatch_ms",
        d.eval_dispatch_ns as f64 / 1e6 / evals.max(1) as f64,
    );
    m.insert("serve.encode_us", mean(&encode_us));
    // Handler spans are one per request, in request order.
    let traced: Vec<f64> = tr.spans()[from..]
        .iter()
        .filter(|s| s.name.starts_with("serve.handler."))
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    let ratios: Vec<f64> = traced
        .iter()
        .zip(&untraced_ms)
        .map(|(t, u)| t / u)
        .collect();
    Ok(AppHandlers {
        edit: med(handler_span(Class::Edit)),
        eval: med(handler_span(Class::Eval)),
        read: med(handler_span(Class::Read)),
        overhead_frac: median(&ratios) - 1.0,
    })
}

/// Handler medians (ms) of the application replay, and the median
/// per-request ratio of its traced to its untraced handler time, less 1.
struct AppHandlers {
    edit: f64,
    eval: f64,
    read: f64,
    overhead_frac: f64,
}

/// Handler medians (ms) of the durable replay.
struct StoreHandlers {
    write: f64,
    eval: f64,
    read: f64,
}

/// Durable replay over one `durable_rw` stream: a local durable session
/// serves it through `handle_line`, and a direct `Db` handle over a
/// table of the same size replays each request's storage call, then
/// publishes a snapshot as the serving writer does after every request.
fn durable(
    cx: &Ctx,
    native: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<StoreHandlers, String> {
    let n = size(RW_REQUESTS, native);
    let from = tr.spans().len();
    let (mut sess, mut ctx) =
        local_durable(cx, &cx.subdir("trace-db-cache"), &cx.subdir("trace-db"))?;
    let mut db = Db::open(cx.subdir("trace-direct-db")).map_err(|e| e.to_string())?;
    let schema = Schema::new(vec![
        ("K".to_string(), ColTy::Int),
        ("Owner".to_string(), ColTy::Int),
        ("V".to_string(), ColTy::Int),
    ])
    .map_err(|e| e.to_string())?;
    db.create_table(TABLE, schema).map_err(|e| e.to_string())?;
    let row = |k: i64, o: usize, v: i64| {
        vec![
            ("K".to_string(), SqlExpr::lit(DbVal::Int(k))),
            ("Owner".to_string(), SqlExpr::lit(DbVal::Int(o as i64))),
            ("V".to_string(), SqlExpr::lit(DbVal::Int(v))),
        ]
    };
    for (k, (o, v)) in initial_rows(cx.seed, crate::run::CONNS) {
        db.insert(TABLE, &row(k, o, v)).map_err(|e| e.to_string())?;
    }
    let key = |k: i64| {
        SqlExpr::Eq(
            Box::new(SqlExpr::col("K")),
            Box::new(SqlExpr::lit(DbVal::Int(k))),
        )
    };
    let mut stream = RwStream::new(cx.seed, 0, crate::run::CONNS);
    let s0 = db.stats().clone();
    let mut writes = 0u64;
    let mut failures = Vec::new();
    // The first `n` requests go through both the handler and the direct
    // handle; the stream then continues on the direct handle alone, long
    // enough for the store to pass its automatic checkpoint interval.
    for i in 0..n + DIRECT_TAIL {
        let (req, op) = stream.next_op();
        tr.op("bench.request", |tr| {
            if i < n {
                tr.span(handler_span(req.class), |_| {
                    protocol::handle_line(&mut sess, &mut ctx, &req.line, Some(budget_ms()))
                });
            }
            let r = match op {
                DbOp::Insert { k, owner, v } => {
                    tr.span("db.insert", |_| db.insert(TABLE, &row(k, owner, v)))
                }
                DbOp::Update { k, v } => tr.span("db.update", |_| {
                    db.update(
                        TABLE,
                        &[("V".to_string(), SqlExpr::lit(DbVal::Int(v)))],
                        &key(k),
                    )
                    .map(|_| ())
                }),
                DbOp::Delete { k } => {
                    tr.span("db.delete", |_| db.delete(TABLE, &key(k)).map(|_| ()))
                }
                DbOp::Select { k } => {
                    tr.span("db.select", |_| db.select(TABLE, &key(k)).map(|_| ()))
                }
                DbOp::Snapshot => Ok(()),
            };
            if let Err(e) = r {
                failures.push(e.to_string());
            }
            if req.class == Class::Write {
                writes += 1;
                tr.span("db.publish", |_| db.publish_snapshot());
            }
        });
        // A local handler admits every request, and the direct handle
        // applied it too.
        stream.settle(true);
    }
    if let Some(e) = failures.first() {
        return Err(format!("direct store replay failed: {e}"));
    }
    let d1 = db.stats().clone();
    let w = writes.max(1) as f64;
    let med = |name: &str| median(&tr.durations_ms_from(name, from));
    let us = |name: &str| med(name) * 1e3;
    m.insert("db.insert_us", us("db.insert"));
    m.insert("db.update_us", us("db.update"));
    m.insert("db.delete_us", us("db.delete"));
    m.insert("db.select_us", us("db.select"));
    m.insert("db.publish_us", us("db.publish"));
    m.insert(
        "db.fsyncs_per_write",
        (d1.wal_fsyncs - s0.wal_fsyncs) as f64 / w,
    );
    m.insert(
        "db.wal_bytes_per_write",
        (d1.wal_bytes - s0.wal_bytes) as f64 / w,
    );
    m.insert(
        "db.wal_records_per_write",
        (d1.wal_records - s0.wal_records) as f64 / w,
    );
    m.insert(
        "db.full_scans_per_op",
        (d1.full_scans - s0.full_scans) as f64 / (n + DIRECT_TAIL) as f64,
    );
    m.insert(
        "db.checkpoints",
        (d1.snapshots_written - s0.snapshots_written) as f64,
    );
    let mut ck = Vec::new();
    for _ in 0..CHECKPOINTS {
        let t = Instant::now();
        db.checkpoint().map_err(|e| e.to_string())?;
        ck.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("db.checkpoint_ms", median(&ck));
    Ok(StoreHandlers {
        write: med(handler_span(Class::Write)),
        eval: med(handler_span(Class::Eval)),
        read: med(handler_span(Class::Read)),
    })
}
