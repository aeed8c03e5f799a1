//! The three workloads, their correctness checks, and the probes that
//! give every workload a measurement for every operation class.
//!
//! Each workload measures its own traffic end to end. Op classes it
//! does not carry itself (`cold_compile` sends no edits; `edit_eval`
//! writes nothing) are measured by *probes* between the window's
//! segments (or, for compiles in the serving workloads, before set-up
//! and after drain): the same requests, served by
//! `protocol::handle_line` on a local session (the stdio `--serve`
//! path), or the `cold_compile` op itself. So every metric exists on
//! every workload, while a window only ever carries the traffic its
//! workload names.

use crate::inputs::{
    compile_sources, initial_rows, is_refusal, load_line, table_script, Class, CompileStream,
    EditEvalStream, Expect, RwStream, TABLE,
};
use crate::metrics::{median, peak_rss_mb, percentile, reset_peak_rss, Metrics};
use crate::net::{start_server, stop_server, Answer, Client, Finished, Fleet};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use ur_db::{Db, DbVal, SqlExpr};
use ur_eval::EvalEngine;
use ur_serve::{protocol, ReqCtx, ServeConfig, Server, Summary};
use ur_web::Session;

/// Client connections (one thread each) of the serving workloads.
pub const CONNS: usize = 2;
/// Times each workload sets up, all before the window; `setup_s` is
/// their median.
const SETUP_REPS: usize = 5;
/// Window ops after which `peak_rss_mb` is read (or the end of the
/// first segment, if sooner, before any probe ran), so a faster build
/// that completes more ops in a run does not report more memory.
const RSS_AT_COMPILES: u64 = 40;
const RSS_AT_REQUESTS: u64 = 1_000;
/// Segments a window is split into. The probes run one slice after
/// each segment, so they sample the whole run rather than one moment.
const ROUNDS: usize = 5;
/// Probe sizes (totals over the run) for classes a workload does not
/// carry itself.
const PROBE_COMPILES: usize = 60;
/// Requests of the window's edit/eval/type mix (`cold_compile`).
const PROBE_REQUESTS: usize = 2_500;
/// Edits alone (`durable_rw`, which carries its own evals and reads).
const PROBE_EDITS: usize = 150;
const PROBE_WRITES: usize = 2_500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdCompile,
    EditEval,
    DurableRw,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold_compile" => Some(Workload::ColdCompile),
            "edit_eval" => Some(Workload::EditEval),
            "durable_rw" => Some(Workload::DurableRw),
            _ => None,
        }
    }
}

/// What one run is asked to do, and where it may write.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
}

impl Ctx {
    /// A fresh subdirectory of the run's work directory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

/// The per-request wall-clock budget the TCP server hands
/// `handle_line`; every local replay passes the same.
pub fn budget_ms() -> u64 {
    ServeConfig::default().deadline_ms
}

/// Latency samples (ms) per op class.
#[derive(Default)]
pub struct Lat {
    samples: BTreeMap<Class, Vec<f64>>,
}

impl Lat {
    pub fn push(&mut self, c: Class, ms: f64) {
        self.samples.entry(c).or_default().push(ms);
    }

    pub fn count(&self, c: Class) -> usize {
        self.samples.get(&c).map_or(0, Vec::len)
    }

    /// The `q`-quantile of class `c`; NaN (refused by the result
    /// renderer) when never measured.
    pub fn q(&self, c: Class, q: f64) -> f64 {
        match self.samples.get(&c) {
            Some(v) if !v.is_empty() => percentile(v, q),
            _ => f64::NAN,
        }
    }
}

/// Attempted, failed (refused, errored, or wrong), and wrong answers.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn refused(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    pub fn wrong(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        self.note(why);
    }

    /// Judges one answer against an expectation the stream determined.
    pub fn judge(&mut self, resp: &str, expect: &Expect) {
        if is_refusal(resp) {
            return self.refused(format!("refused: {resp}"));
        }
        let good = match expect {
            Expect::Replay => return,
            Expect::CleanLoad => {
                resp.starts_with("{\"ok\":true") && resp.ends_with("\"diagnostics\":[]}")
            }
            Expect::Value(v) => field(resp, "value").as_deref() == Some(v.as_str()),
            Expect::Type(t) => field(resp, "type").as_deref() == Some(t.as_str()),
            Expect::DbReport => {
                field(resp, "db").is_some_and(|d| d.contains(&format!("{TABLE}: ")))
            }
        };
        if good {
            self.ok();
        } else {
            self.wrong(format!("expected {expect:?}, got {resp}"));
        }
    }
}

/// One string field of a flat JSON answer, when `ok` is true.
fn field(resp: &str, key: &str) -> Option<String> {
    let mut obj = ur_query::json::parse_flat_object(resp)?;
    (obj.get("ok").map(String::as_str) == Some("true")).then_some(())?;
    obj.remove(key)
}

/// The part of an answer the served run and the oracle must agree on.
/// Rebuild answers also carry cache counters, which legitimately
/// differ between a warm server and a fresh oracle: only the
/// declaration count and the diagnostics are compared.
fn answer_key(class: Class, resp: &str) -> String {
    if class != Class::Edit {
        return resp.to_string();
    }
    let decls = resp
        .split("\"decls\":")
        .nth(1)
        .and_then(|r| r.split(',').next())
        .unwrap_or("?");
    let diags = resp.split("\"diagnostics\":").nth(1).unwrap_or("?");
    format!("decls={decls} diagnostics={diags}")
}

/// What a run hands back to be reported.
pub struct Outcome {
    pub tally: Tally,
    pub lat: Lat,
    pub setups_s: Vec<f64>,
    pub ops: u64,
    pub ops_per_s: f64,
    pub peak_rss_mb: f64,
    /// Whether the peak-RSS mark was cleared just before the window.
    pub peak_rss_reset: bool,
    /// Whether every compile op (window or probe) began on a reset arena.
    pub compiles_from_reset: bool,
    /// The serving window's drain summary, when there was a server.
    pub summary: Option<Summary>,
    /// `disk_store_err` totals the window's sessions reported.
    pub disk_store_errs: u64,
    /// Intern-arena growth per request across the serving window.
    pub arena_bytes_per_op: Option<f64>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            tally: Tally::default(),
            lat: Lat::default(),
            setups_s: Vec::new(),
            ops: 0,
            ops_per_s: 0.0,
            peak_rss_mb: 0.0,
            peak_rss_reset: false,
            compiles_from_reset: true,
            summary: None,
            disk_store_errs: 0,
            arena_bytes_per_op: None,
        }
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Metrics {
        let attempted = self.tally.attempted.max(1) as f64;
        Metrics::from([
            ("setup_s", median(&self.setups_s)),
            (
                "ok_frac",
                (attempted - self.tally.failed as f64) / attempted,
            ),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }
}

pub fn run(w: Workload, cx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let t = Instant::now();
    let phase = |name: &str| {
        eprintln!(
            "ur-benchmark: {name} done at {:.1}s",
            t.elapsed().as_secs_f64()
        )
    };
    let segment = cx.seconds / ROUNDS as f64;
    let mut compiler = Compiler::new(cx.seed);
    match w {
        Workload::ColdCompile => {
            for _ in 0..SETUP_REPS {
                // Set-up is the cold start to a first answer.
                let first = compile_op(&compiler.sources[0])?;
                out.compiles_from_reset &= first.reset;
                out.setups_s.push(first.ms / 1e3);
            }
            let mut writes = DurableProbe::new(cx);
            out.peak_rss_reset = reset_peak_rss();
            let mut busy_s = 0.0;
            for round in 0..ROUNDS {
                busy_s += compiler.run_for(&mut out, segment)?;
                if out.peak_rss_mb == 0.0 {
                    out.peak_rss_mb = peak_rss_mb();
                }
                probe_app(cx, &mut out, Mix::Window, PROBE_REQUESTS / ROUNDS, round)?;
                writes.slice(cx, &mut out, PROBE_WRITES / ROUNDS)?;
            }
            phase("window and probes");
            out.ops = out.lat.count(Class::Compile) as u64;
            // One closed-loop client: its rate is ops over the time spent
            // in ops (the checks between ops are the benchmark's).
            out.ops_per_s = out.ops as f64 / busy_s;
            writes.verify(&mut out)?;
        }
        Workload::EditEval => {
            // Compiles need a quiescent arena: half before the first
            // set-up, half after the server drained.
            compiler.run_n(&mut out, PROBE_COMPILES / 2)?;
            let (server, mut fleet, loads) = set_up(
                &mut out,
                |out, rep| edit_eval_setup(cx, out, rep),
                |(server, fleet, _)| {
                    fleet.close();
                    stop_server(server);
                },
            )?;
            phase("compile probe and set-ups");
            let mut writes = DurableProbe::new(cx);
            out.peak_rss_reset = reset_peak_rss();
            for _ in 0..ROUNDS {
                fleet.run_for(segment);
                writes.slice(cx, &mut out, PROBE_WRITES / ROUNDS)?;
            }
            phase("window and write probe");
            let window = fleet.finish(STATS_LINE);
            let summary = stop_server(server);
            finish_window(&mut out, &window, summary)?;
            let logs: Vec<(usize, Mix, Vec<Answer>)> = window
                .answers
                .into_iter()
                .zip(loads)
                .enumerate()
                .map(|(c, (answers, load))| {
                    let mut all = vec![load];
                    all.extend(answers);
                    (c, Mix::Window, all)
                })
                .collect();
            verify_edit_eval(cx, &logs, &mut out.tally)?;
            writes.verify(&mut out)?;
            compiler.run_n(&mut out, PROBE_COMPILES - PROBE_COMPILES / 2)?;
            phase("replay check and compile probe");
        }
        Workload::DurableRw => {
            compiler.run_n(&mut out, PROBE_COMPILES / 2)?;
            let (server, mut fleet, db_dir) = set_up(
                &mut out,
                |out, rep| durable_rw_setup(cx, out, rep),
                |(server, fleet, _)| {
                    fleet.close();
                    stop_server(server);
                },
            )?;
            phase("compile probe and set-ups");
            out.peak_rss_reset = reset_peak_rss();
            for round in 0..ROUNDS {
                fleet.run_for(segment);
                probe_app(cx, &mut out, Mix::Edits, PROBE_EDITS / ROUNDS, round)?;
            }
            phase("window and edit probe");
            let window = fleet.finish(STATS_LINE);
            let summary = stop_server(server);
            finish_window(&mut out, &window, summary)?;
            if window.streams.iter().any(RwStream::outcome_unknown) {
                return Err(
                    "a write was lost to a worker restart with its outcome unknown, \
                     so the key model cannot judge the store"
                        .to_string(),
                );
            }
            for a in window.answers.iter().flatten() {
                out.tally.judge(&a.resp, &a.expect);
            }
            let refs: Vec<&RwStream> = window.streams.iter().collect();
            verify_store(&db_dir, &refs, BTreeMap::new(), &mut out.tally)?;
            compiler.run_n(&mut out, PROBE_COMPILES - PROBE_COMPILES / 2)?;
            phase("store check and compile probe");
        }
    }
    Ok(out)
}

/// Sets up [`SETUP_REPS`] times, each on a freshly reset intern arena as
/// a newly started server process would, and shuts all but the last
/// down again at once; the last serves the window. Every set-up thus
/// runs before the window, and none inherits what another interned.
fn set_up<S>(
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome, usize) -> Result<S, String>,
    teardown: impl Fn(S),
) -> Result<S, String> {
    let fresh_arena = || {
        ur_core::arena::try_reset().then_some(()).ok_or_else(|| {
            "a session outlived its set-up: the intern arena cannot reset".to_string()
        })
    };
    for rep in 0..SETUP_REPS - 1 {
        fresh_arena()?;
        teardown(setup(out, rep)?);
    }
    fresh_arena()?;
    setup(out, SETUP_REPS - 1)
}

/// The request each serving client sends after the window, untimed:
/// its session's statistics carry the disk-cache store failures.
const STATS_LINE: &str = "{\"cmd\":\"stats\"}";

// ------------------------------------------------------------- compiles

/// Values the tree-walking interpreter gives each program, rendered —
/// the reference the compiled runs must reproduce. Computed once per
/// program, outside any timed region.
fn reference_values(src: &str) -> Result<Vec<(String, String)>, String> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    sess.engine = EvalEngine::Interp;
    let (defs, diags) = sess.run_all(src);
    if !diags.is_empty() {
        return Err(format!(
            "reference run reported {} diagnostic(s): {}",
            diags.len(),
            diags[0]
        ));
    }
    Ok(defs.into_iter().map(|(n, v)| (n, v.to_string())).collect())
}

/// The outcome of one compile op.
struct Compiled {
    sess: Session,
    ms: f64,
    /// Whether the arena reset ran (no session was alive).
    reset: bool,
    defs: Vec<(String, ur_eval::Value)>,
    diags: ur_syntax::Diagnostics,
}

/// One `cold_compile` op — what a fresh `urc file.ur` pays: reset the
/// intern arena (a no-op while any session lives), create a session,
/// elaborate and evaluate the program.
fn compile_op(src: &str) -> Result<Compiled, String> {
    let reset = ur_core::arena::try_reset();
    let t = Instant::now();
    let mut sess = Session::new().map_err(|e| format!("session: {e}"))?;
    let (defs, diags) = sess.run_all(src);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Compiled {
        sess,
        ms,
        reset,
        defs,
        diags,
    })
}

/// Checks one compile's answers: no diagnostics, every value equal to
/// the interpreter's, and (once per program) every case study's
/// hand-written interface.
fn check_compile(
    sess: &mut Session,
    defs: &[(String, ur_eval::Value)],
    diags: &ur_syntax::Diagnostics,
    reference: &[(String, String)],
    check_interfaces: bool,
    tally: &mut Tally,
) {
    if let Some(d) = diags.first() {
        return tally.wrong(format!(
            "compile reported {} diagnostic(s): {d}",
            diags.len()
        ));
    }
    let got: Vec<(String, String)> = defs
        .iter()
        .map(|(n, v)| (n.clone(), v.to_string()))
        .collect();
    if got != reference {
        let first = got.iter().zip(reference).find(|(a, b)| a != b);
        return tally.wrong(format!(
            "compiled values differ from the interpreter's ({} vs {} values; first {first:?})",
            got.len(),
            reference.len()
        ));
    }
    if check_interfaces {
        for s in ur_studies::studies() {
            if let Err(e) = ur_studies::check_interface(sess, s.interface()) {
                return tally.wrong(format!("interface of {}: {e}", s.id));
            }
        }
    }
    tally.ok();
}

/// The seed's compile programs, their interpreter references (filled on
/// first use), and the stream choosing which program each op compiles.
struct Compiler {
    sources: Vec<String>,
    refs: Vec<Option<Vec<(String, String)>>>,
    stream: CompileStream,
}

impl Compiler {
    fn new(seed: u64) -> Compiler {
        let sources = compile_sources(seed);
        Compiler {
            refs: vec![None; sources.len()],
            sources,
            stream: CompileStream::new(seed),
        }
    }

    /// One checked compile op; returns its wall time in seconds.
    fn op(&mut self, out: &mut Outcome) -> Result<f64, String> {
        let v = self.stream.next_variant();
        let first = self.refs[v].is_none();
        if first {
            self.refs[v] = Some(reference_values(&self.sources[v])?);
        }
        let Compiled {
            mut sess,
            ms,
            reset,
            defs,
            diags,
        } = compile_op(&self.sources[v])?;
        out.compiles_from_reset &= reset;
        out.lat.push(Class::Compile, ms);
        if out.lat.count(Class::Compile) as u64 == RSS_AT_COMPILES && out.peak_rss_mb == 0.0 {
            out.peak_rss_mb = peak_rss_mb();
        }
        let reference = self.refs[v].as_deref().unwrap_or_default();
        check_compile(&mut sess, &defs, &diags, reference, first, &mut out.tally);
        Ok(ms / 1e3)
    }

    /// Compiles back to back until `seconds` were spent in ops; returns
    /// the time spent in ops.
    fn run_for(&mut self, out: &mut Outcome, seconds: f64) -> Result<f64, String> {
        let mut busy_s = 0.0;
        while busy_s < seconds {
            busy_s += self.op(out)?;
        }
        Ok(busy_s)
    }

    fn run_n(&mut self, out: &mut Outcome, n: usize) -> Result<(), String> {
        for _ in 0..n {
            self.op(out)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------- local sessions

/// A session set up as a server worker sets one up: shared disk cache,
/// pristine base pinned before anything is loaded.
pub fn local_session(cache: &Path, engine: Option<EvalEngine>) -> Result<Session, String> {
    let mut sess = Session::new().map_err(|e| format!("session: {e}"))?;
    if let Some(e) = engine {
        sess.engine = e;
    }
    sess.cache_dir = Some(cache.to_path_buf());
    let _ = sess.reelaborate("");
    Ok(sess)
}

/// A local session that loaded the `durable_rw` table's script, with
/// its request context. The load must be clean.
fn local_script_session(cx: &Ctx, cache: &Path) -> Result<(Session, ReqCtx), String> {
    let mut sess = local_session(cache, None)?;
    let mut ctx = ReqCtx::new(None);
    let script = load_line(&table_script(&initial_rows(cx.seed, CONNS)));
    let (resp, _) = protocol::handle_line(&mut sess, &mut ctx, &script, Some(budget_ms()));
    let mut t = Tally::default();
    t.judge(&resp, &Expect::CleanLoad);
    if t.failed > 0 {
        return Err(format!("durable set-up failed: {:?}", t.notes));
    }
    Ok((sess, ctx))
}

/// A local session holding the durable `durable_rw` table, built the
/// way the durable writer builds its session: load the script into the
/// in-memory world, then let the store adopt it.
pub fn local_durable(cx: &Ctx, cache: &Path, db_dir: &Path) -> Result<(Session, ReqCtx), String> {
    let (mut sess, ctx) = local_script_session(cx, cache)?;
    let mut db = Db::open(db_dir).map_err(|e| format!("open store: {e}"))?;
    db.adopt_state(&sess.db().clone());
    *sess.db() = db;
    Ok((sess, ctx))
}

/// Which requests of an `edit_eval` stream a connection sent after its
/// load, so the oracle replay can regenerate them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// The window's edit/eval/type mix.
    Window,
    /// Edits only (the edit probe).
    Edits,
}

fn next_of(stream: &mut EditEvalStream, mix: Mix) -> crate::inputs::Req {
    match mix {
        Mix::Window => stream.next_req(),
        Mix::Edits => stream.next_edit(),
    }
}

/// One slice of an application probe: a fresh local session loads
/// the application, serves `n` requests of `mix` through `handle_line`,
/// and is dropped (so a following compile finds the arena quiescent);
/// the answers are then checked against the interpreter replay. Every
/// slice draws its own literals.
fn probe_app(cx: &Ctx, out: &mut Outcome, mix: Mix, n: usize, round: usize) -> Result<(), String> {
    let cache = cx.subdir("probe-app-cache");
    let mut sess = local_session(&cache, None)?;
    let mut ctx = ReqCtx::new(None);
    let conn = CONNS + round;
    let mut stream = EditEvalStream::new(cx.seed, conn);
    let mut answers = Vec::with_capacity(n + 1);
    let mut req = stream.load();
    for i in 0..=n {
        let t = Instant::now();
        let (resp, _) = protocol::handle_line(&mut sess, &mut ctx, &req.line, Some(budget_ms()));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if i > 0 {
            out.lat.push(req.class, ms);
        }
        answers.push(Answer {
            class: req.class,
            ms,
            resp,
            expect: req.expect,
        });
        req = next_of(&mut stream, mix);
    }
    drop(sess);
    verify_edit_eval(cx, &[(conn, mix, answers)], &mut out.tally)
}

/// The write probe: one `durable_rw` connection's stream over a local
/// durable store, served in slices by `handle_line`. The first slice
/// populates the store; later slices reopen it as a restarted writer
/// does (load the script, install the recovered store without adopting).
/// Each slice drops its session, releasing the store and the arena.
struct DurableProbe {
    seed: u64,
    stream: RwStream,
    cache: PathBuf,
    db_dir: PathBuf,
    populated: bool,
}

impl DurableProbe {
    fn new(cx: &Ctx) -> DurableProbe {
        DurableProbe {
            seed: cx.seed,
            stream: RwStream::new(cx.seed, 0, CONNS),
            cache: cx.subdir("probe-db-cache"),
            db_dir: cx.subdir("probe-db"),
            populated: false,
        }
    }

    fn slice(&mut self, cx: &Ctx, out: &mut Outcome, writes: usize) -> Result<(), String> {
        let (mut sess, mut ctx) = if self.populated {
            let (mut sess, ctx) = local_script_session(cx, &self.cache)?;
            *sess.db() = Db::open(&self.db_dir).map_err(|e| format!("reopen store: {e}"))?;
            (sess, ctx)
        } else {
            self.populated = true;
            local_durable(cx, &self.cache, &self.db_dir)?
        };
        let mut done = 0;
        while done < writes {
            let req = self.stream.next_req();
            let t = Instant::now();
            let (resp, _) =
                protocol::handle_line(&mut sess, &mut ctx, &req.line, Some(budget_ms()));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.stream.ack(&resp);
            if req.class == Class::Write {
                out.lat.push(Class::Write, ms);
                done += 1;
            }
            out.tally.judge(&resp, &req.expect);
        }
        Ok(())
    }

    /// The reopened store must hold the probe's acknowledged rows and
    /// the other partition's rows untouched.
    fn verify(&self, out: &mut Outcome) -> Result<(), String> {
        let mut others = initial_rows(self.seed, CONNS);
        others.retain(|_, (o, _)| *o != 0);
        verify_store(&self.db_dir, &[&self.stream], others, &mut out.tally)
    }
}

// -------------------------------------------------------------- windows

/// Records a serving window's latencies, rate, memory, and server
/// counters.
fn finish_window<T>(
    out: &mut Outcome,
    window: &Finished<T>,
    summary: Summary,
) -> Result<(), String> {
    if let Some(e) = window.errors.first() {
        return Err(format!("a client connection failed: {e}"));
    }
    for a in window.answers.iter().flatten() {
        out.lat.push(a.class, a.ms);
    }
    out.ops = window.answers.iter().map(|a| a.len() as u64).sum();
    out.ops_per_s = out.ops as f64 / window.seconds;
    out.peak_rss_mb = window.peak_rss_mb;
    out.arena_bytes_per_op = Some(window.arena_grown as f64 / out.ops.max(1) as f64);
    out.disk_store_errs = window
        .finals
        .iter()
        .filter_map(|r| {
            let stats = field(r, "stats")?;
            let n = stats
                .split("disk_store_err=")
                .nth(1)?
                .split(|c: char| !c.is_ascii_digit())
                .next()?;
            n.parse::<u64>().ok()
        })
        .sum();
    out.summary = Some(summary);
    Ok(())
}

/// `edit_eval` set-up number `rep`: an in-memory server with the disk
/// cache on, and two connections that have loaded the application.
fn edit_eval_setup(
    cx: &Ctx,
    out: &mut Outcome,
    rep: usize,
) -> Result<(Server, Fleet<EditEvalStream>, Vec<Answer>), String> {
    let cache = cx.subdir(&format!("cache-{rep}"));
    let t = Instant::now();
    let server = start_server(&cache, None)?;
    // One load after the other: the first fills the shared disk cache
    // and the second reads it, the same way on every run.
    let mut conns = Vec::with_capacity(CONNS);
    let mut loads = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let mut client = Client::connect(server.addr())?;
        let stream = EditEvalStream::new(cx.seed, c);
        let resp = client.roundtrip(&stream.load().line)?;
        loads.push(Answer {
            class: Class::Edit,
            ms: 0.0,
            resp,
            expect: Expect::Replay,
        });
        conns.push((client, stream));
    }
    out.setups_s.push(t.elapsed().as_secs_f64());
    Ok((server, Fleet::new(conns, RSS_AT_REQUESTS), loads))
}

/// One replayed answer's verdict.
enum Verdict {
    Ok,
    Refused(String),
    Wrong(String),
}

/// Replays each connection's requests through `handle_line` on a fresh
/// session running the tree-walking interpreter (an engine independent
/// of the VM that served them), with its own cache, and compares every
/// answer: declaration counts and diagnostics for rebuilds, values and
/// types verbatim. The first request is the application load, which
/// must also be clean. Connections replay in parallel.
fn verify_edit_eval(
    cx: &Ctx,
    logs: &[(usize, Mix, Vec<Answer>)],
    tally: &mut Tally,
) -> Result<(), String> {
    let results: Vec<Result<Vec<Verdict>, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = logs
            .iter()
            .map(|(conn, mix, answers)| {
                let cache = cx.subdir(&format!("oracle-cache-{conn}"));
                s.spawn(move || {
                    let mut sess = local_session(&cache, Some(EvalEngine::Interp))?;
                    let mut ctx = ReqCtx::new(None);
                    let mut stream = EditEvalStream::new(cx.seed, *conn);
                    let mut verdicts = Vec::with_capacity(answers.len());
                    for (i, a) in answers.iter().enumerate() {
                        let req = if i == 0 {
                            stream.load()
                        } else {
                            next_of(&mut stream, *mix)
                        };
                        if req.class != a.class {
                            return Err(format!(
                                "conn {conn} request {i}: stream regenerated out of step"
                            ));
                        }
                        if is_refusal(&a.resp) {
                            verdicts.push(Verdict::Refused(truncate(&a.resp)));
                            continue;
                        }
                        let (want, _) = protocol::handle_line(
                            &mut sess,
                            &mut ctx,
                            &req.line,
                            Some(budget_ms()),
                        );
                        verdicts.push(
                            if answer_key(a.class, &a.resp) != answer_key(a.class, &want) {
                                Verdict::Wrong(format!(
                                "conn {conn} request {i} ({}): served {} but the oracle says {}",
                                a.class.name(),
                                truncate(&a.resp),
                                truncate(&want)
                            ))
                            } else if i == 0 && !a.resp.ends_with("\"diagnostics\":[]}") {
                                Verdict::Wrong(format!(
                                    "conn {conn}: the application load was not clean: {}",
                                    truncate(&a.resp)
                                ))
                            } else {
                                Verdict::Ok
                            },
                        );
                    }
                    Ok(verdicts)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for r in results {
        for v in r? {
            match v {
                Verdict::Ok => tally.ok(),
                Verdict::Refused(why) => tally.refused(why),
                Verdict::Wrong(why) => tally.wrong(why),
            }
        }
    }
    Ok(())
}

fn truncate(s: &str) -> String {
    s.chars().take(160).collect()
}

/// `durable_rw` set-up number `rep`: a durable server on a fresh store
/// whose table one connection created and populated by loading the
/// table's script, plus the second connection.
fn durable_rw_setup(
    cx: &Ctx,
    out: &mut Outcome,
    rep: usize,
) -> Result<(Server, Fleet<RwStream>, PathBuf), String> {
    let cache = cx.subdir(&format!("cache-{rep}"));
    let db_dir = cx.subdir(&format!("db-{rep}"));
    let script = load_line(&table_script(&initial_rows(cx.seed, CONNS)));
    let t = Instant::now();
    let server = start_server(&cache, Some(&db_dir))?;
    let mut first = Client::connect(server.addr())?;
    let mut setup = Tally::default();
    setup.judge(&first.roundtrip(&script)?, &Expect::CleanLoad);
    let mut clients = vec![first];
    for _ in 1..CONNS {
        clients.push(Client::connect(server.addr())?);
    }
    out.setups_s.push(t.elapsed().as_secs_f64());
    if setup.failed > 0 {
        return Err(format!("durable set-up failed: {:?}", setup.notes));
    }
    let conns = clients
        .into_iter()
        .enumerate()
        .map(|(c, client)| (client, RwStream::new(cx.seed, c, CONNS)))
        .collect();
    Ok((server, Fleet::new(conns, RSS_AT_REQUESTS), db_dir))
}

/// Reopens a store after its writer is gone and checks that it holds
/// exactly the rows the connections' key models say (plus `others`,
/// rows no connection touched): every acknowledged write is present.
fn verify_store(
    db_dir: &Path,
    streams: &[&RwStream],
    others: BTreeMap<i64, (usize, i64)>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut db = Db::open(db_dir).map_err(|e| format!("reopen store: {e}"))?;
    let rows = db
        .select(TABLE, &SqlExpr::lit(DbVal::Bool(true)))
        .map_err(|e| format!("read back store: {e}"))?;
    let mut on_disk = BTreeMap::new();
    for r in rows {
        match r.as_slice() {
            [DbVal::Int(k), DbVal::Int(o), DbVal::Int(v)] => {
                on_disk.insert(*k, (*o as usize, *v));
            }
            other => return Err(format!("unexpected row shape {other:?}")),
        }
    }
    let mut expected = others;
    for s in streams {
        for (k, v) in s.model() {
            expected.insert(*k, (s.conn(), *v));
        }
    }
    if on_disk == expected {
        tally.ok();
    } else {
        let missing = expected
            .iter()
            .filter(|(k, v)| on_disk.get(k) != Some(v))
            .count();
        let extra = on_disk.keys().filter(|k| !expected.contains_key(k)).count();
        tally.wrong(format!(
            "reopened store disagrees with the acknowledged writes: {missing} missing or stale, {extra} extra"
        ));
    }
    Ok(())
}
