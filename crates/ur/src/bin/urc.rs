//! `urc` — the Ur compiler/interpreter driver.
//!
//! ```text
//! usage: urc [OPTIONS] FILE...
//!
//!   Elaborates and runs the given .ur files in order, against the Ur/Web
//!   standard library.
//!
//! options:
//!   --print            print every top-level value as it is defined
//!   --stats            print inference statistics (the Figure 5 counters)
//!   --core NAME        dump the elaborated core term of value NAME
//!   --type NAME        print the inferred type of value NAME
//!   --eval EXPR        evaluate EXPR after loading the files
//!   --eval=vm|interp   execution engine: the bytecode VM (default) or
//!                      the tree-walking interpreter (the differential
//!                      oracle; also: UR_EVAL env var)
//!   --sql-log          print the newest SQL statements the program issued
//!   --no-identity      disable the map-identity law   (ablation)
//!   --no-distrib       disable map-distributivity     (ablation)
//!   --no-fusion        disable map-fusion             (ablation)
//!   --emit-json        print diagnostics as one JSON array on stdout
//!                      (code, line, col, message, notes)
//!   --cache-dir DIR    persistent incremental cache directory (also:
//!                      UR_CACHE_DIR env var; default .ur-cache; a
//!                      single-file run, --watch, and --serve reuse
//!                      cached elaborations from it)
//!   --db-dir DIR       durable database directory: program effects go
//!                      through a crash-safe WAL + snapshot store that
//!                      recovers exactly the committed prefix on reopen
//!                      (empty string or absent = in-memory, the default)
//!   --watch            watch FILE and incrementally re-elaborate on
//!                      every change (single file; Ctrl-C to stop)
//!   --serve            line-delimited JSON protocol on stdin/stdout:
//!                      {"cmd":"load"|"edit","source":…} rebuild
//!                      {"cmd":"type","name":…}          query a type
//!                      {"cmd":"eval","expr":…}          evaluate
//!                      {"cmd":"diagnostics"}            last diagnostics
//!                      {"cmd":"stats"}                  counters
//!                      {"cmd":"db"}                     database report
//!                      {"cmd":"quit"}                   exit
//!                      Requests carry an optional "deadline_ms" budget
//!                      (over-budget work degrades to E0900) and are
//!                      capped at 8 MiB per line; over-long or
//!                      internally-failing requests get a JSON error
//!                      without tearing down the session. On quit or end
//!                      of input a final {"event":"final","stats":…}
//!                      line is flushed and the process exits 0.
//!   --listen ADDR      serve the same JSON protocol to concurrent TCP
//!                      clients (e.g. 127.0.0.1:7788; port 0 picks a
//!                      free port, reported on the first stdout line as
//!                      {"listening":"HOST:PORT"}). Backed by a
//!                      supervised session pool with bounded queues:
//!                      excess load is shed with a structured
//!                      "overloaded" answer, wedged workers are replaced
//!                      and their sessions rebuilt, SIGTERM or a
//!                      "shutdown" request drains gracefully and prints
//!                      a final summary line.
//!   --pool N           worker sessions for --listen (default 4; forced
//!                      to 1 with --db-dir: the store is single-writer)
//!   --queue-depth N    per-worker bounded queue for --listen (default 16)
//!   --max-conns N      live-connection cap for --listen (default 64)
//!   --deadline-ms N    default per-request budget for --listen
//!                      (default 2000; requests can only tighten it)
//!   --help             this message
//!
//! A malformed UR_FAILPOINTS value (fault injection) is rejected with
//! exit code 2, naming the bad entry.
//! ```

use std::process::ExitCode;
use ur::infer::ElabDecl;
use ur::Session;

struct Options {
    files: Vec<String>,
    print: bool,
    stats: bool,
    core: Vec<String>,
    types: Vec<String>,
    evals: Vec<String>,
    sql_log: bool,
    no_identity: bool,
    no_distrib: bool,
    no_fusion: bool,
    emit_json: bool,
    cache_dir: Option<String>,
    db_dir: Option<String>,
    watch: bool,
    serve: bool,
    listen: Option<String>,
    pool: Option<usize>,
    queue_depth: Option<usize>,
    max_conns: Option<usize>,
    deadline_ms: Option<u64>,
    engine: Option<ur::eval::EvalEngine>,
    /// Fault-injection schedule from `UR_FAILPOINTS` (for `--listen`;
    /// sessions read the variable themselves).
    fp: Option<ur::core::failpoint::FpConfig>,
}

fn usage() -> &'static str {
    "usage: urc [--print] [--stats] [--core NAME] [--type NAME] [--eval EXPR]\n\
     \x20          [--eval=vm|interp] [--sql-log] [--no-identity] [--no-distrib]\n\
     \x20          [--no-fusion] [--emit-json] [--cache-dir DIR] [--db-dir DIR] [--watch]\n\
     \x20          [--serve] [--listen ADDR] [--pool N] [--queue-depth N] [--max-conns N]\n\
     \x20          [--deadline-ms N] FILE...\n\
     Elaborates and runs Ur source files against the Ur/Web standard library.\n\
     --db-dir backs database effects with a crash-safe WAL + snapshot store\n\
     (empty = in-memory). --watch re-elaborates FILE incrementally on every\n\
     change; --serve speaks line-delimited JSON (load/edit/type/eval/\n\
     diagnostics/stats/db/quit) on stdin/stdout, one request per line, 8 MiB\n\
     cap; --listen ADDR serves the same protocol to concurrent TCP clients\n\
     through a supervised session pool (bounded queues shed overload, wedged\n\
     workers are replaced, SIGTERM or \"shutdown\" drains gracefully)."
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        print: false,
        stats: false,
        core: Vec::new(),
        types: Vec::new(),
        evals: Vec::new(),
        sql_log: false,
        no_identity: false,
        no_distrib: false,
        no_fusion: false,
        emit_json: false,
        cache_dir: None,
        db_dir: None,
        watch: false,
        serve: false,
        listen: None,
        pool: None,
        queue_depth: None,
        max_conns: None,
        deadline_ms: None,
        engine: None,
        fp: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(usage().to_string()),
            "--print" => opts.print = true,
            "--stats" => opts.stats = true,
            "--sql-log" => opts.sql_log = true,
            "--no-identity" => opts.no_identity = true,
            "--no-distrib" => opts.no_distrib = true,
            "--no-fusion" => opts.no_fusion = true,
            "--emit-json" => opts.emit_json = true,
            "--watch" => opts.watch = true,
            "--serve" => opts.serve = true,
            "--listen" => {
                opts.listen = Some(args.next().ok_or("--listen needs an address (host:port)")?)
            }
            "--pool" => {
                let v = args.next().ok_or("--pool needs a worker count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--pool: not a worker count: {v}"))?;
                opts.pool = Some(n.max(1));
            }
            "--queue-depth" => {
                let v = args.next().ok_or("--queue-depth needs a depth")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--queue-depth: not a depth: {v}"))?;
                opts.queue_depth = Some(n.max(1));
            }
            "--max-conns" => {
                let v = args.next().ok_or("--max-conns needs a connection count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-conns: not a connection count: {v}"))?;
                opts.max_conns = Some(n.max(1));
            }
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a duration")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--deadline-ms: not a duration: {v}"))?;
                opts.deadline_ms = Some(n.max(1));
            }
            "--cache-dir" => {
                opts.cache_dir = Some(args.next().ok_or("--cache-dir needs a directory")?)
            }
            "--db-dir" => {
                opts.db_dir = Some(args.next().ok_or("--db-dir needs a directory")?)
            }
            "--core" => opts
                .core
                .push(args.next().ok_or("--core needs a value name")?),
            "--type" => opts
                .types
                .push(args.next().ok_or("--type needs a value name")?),
            "--eval" => opts
                .evals
                .push(args.next().ok_or("--eval needs an expression")?),
            other if other.starts_with("--eval=") => {
                let name = &other["--eval=".len()..];
                opts.engine = Some(
                    ur::eval::EvalEngine::parse(name)
                        .ok_or_else(|| format!("--eval=: unknown engine {name} (vm|interp)"))?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n{}", usage()))
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.watch && opts.files.len() != 1 {
        return Err(format!("--watch needs exactly one input file\n{}", usage()));
    }
    if opts.files.is_empty() && opts.evals.is_empty() && !opts.serve && opts.listen.is_none() {
        return Err(format!("no input files\n{}", usage()));
    }
    opts.fp = ur::core::failpoint::FpConfig::from_env()?;
    Ok(opts)
}

/// The inferred type of the most recent value named `name`, if any
/// (shared with the serve-mode `type` command).
fn type_of(sess: &Session, name: &str) -> Option<String> {
    ur::serve::protocol::type_of(sess, name)
}

fn run(opts: &Options) -> Result<(), String> {
    // `--listen` builds its sessions inside the pool workers; nothing
    // session-like is needed (or wanted) on this thread.
    if let Some(addr) = &opts.listen {
        return listen(opts, addr);
    }
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    sess.elab.cx.laws.identity = !opts.no_identity;
    sess.elab.cx.laws.distrib = !opts.no_distrib;
    sess.elab.cx.laws.fusion = !opts.no_fusion;
    if let Some(dir) = &opts.cache_dir {
        sess.cache_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(engine) = opts.engine {
        sess.engine = engine;
    }
    // An empty --db-dir means "today's in-memory mode", so scripts can
    // pass a variable unconditionally. Lock contention (a previous
    // invocation still checkpointing on exit) is retried with bounded
    // backoff; UR_DB_LOCK_WAIT_MS tunes the total budget.
    if let Some(dir) = opts.db_dir.as_deref().filter(|d| !d.is_empty()) {
        *sess.db() = ur::db::Db::open_with_retry(dir, ur::db::RetryConfig::from_env())
            .map_err(|e| format!("--db-dir {dir}: {e}"))?;
    }

    if opts.serve {
        return serve(&mut sess);
    }
    if opts.watch {
        return watch(&mut sess, opts);
    }

    // Multi-error mode: report every diagnostic in every file in one
    // pass, keep going (later files may still be useful), and fail at
    // the end if anything was wrong. A single-file run with --cache-dir
    // goes through the incremental engine so repeated invocations reuse
    // the on-disk cache; multi-file runs accumulate declarations across
    // files and stay on the sequential path.
    let incremental = opts.cache_dir.is_some() && opts.files.len() == 1;
    let mut all_diags: ur::syntax::Diagnostics = Vec::new();
    for file in &opts.files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("{file}: {e}"))?;
        let (defs, diags) = if incremental {
            sess.reelaborate(&src)
        } else {
            sess.run_all(&src)
        };
        if !opts.emit_json {
            for d in &diags {
                eprintln!("{file}: {d}");
            }
        }
        all_diags.extend(diags);
        if opts.print {
            for (name, v) in defs {
                println!("{name} = {v}");
            }
        }
    }
    if opts.emit_json {
        println!("{}", ur::query::json::diags_to_json(&all_diags));
    }
    let n_errors = all_diags.len();
    if n_errors > 0 {
        return Err(format!(
            "{n_errors} error{} found",
            if n_errors == 1 { "" } else { "s" }
        ));
    }

    for name in &opts.types {
        let ty = type_of(&sess, name).ok_or_else(|| format!("--type: no value named {name}"))?;
        println!("{name} : {ty}");
    }

    for name in &opts.core {
        let body = sess
            .elab
            .decls
            .iter()
            .rev()
            .find_map(|d| match d {
                ElabDecl::Val {
                    name: n,
                    body: Some(b),
                    ..
                } if n == name => Some(*b),
                _ => None,
            })
            .ok_or_else(|| format!("--core: no value named {name} with a body"))?;
        println!("(* core of {name} *)\n{body}");
    }

    for expr in &opts.evals {
        let v = sess.eval(expr).map_err(|e| e.to_string())?;
        println!("{v}");
    }

    if opts.sql_log {
        let dropped = sess.db().log_dropped();
        if dropped > 0 {
            println!("-- {dropped} earlier statements dropped");
        }
        for stmt in sess.db().log() {
            println!("{stmt}");
        }
    }

    if opts.stats {
        eprintln!("stats: {}", sess.stats_snapshot());
        eprintln!("eval engine: {}", sess.engine.name());
    }
    Ok(())
}

/// `--watch`: poll one file's mtime and incrementally re-elaborate on
/// every change. Runs until the process is interrupted.
fn watch(sess: &mut Session, opts: &Options) -> Result<(), String> {
    let file = &opts.files[0];
    let mut last_stamp = None;
    loop {
        // Editors replace files non-atomically; a transiently missing
        // file or unreadable metadata just means "try again shortly".
        let stamp = std::fs::metadata(file)
            .ok()
            .map(|m| (m.modified().ok(), m.len()));
        if stamp.is_some() && stamp != last_stamp {
            last_stamp = stamp;
            match std::fs::read_to_string(file) {
                Ok(src) => {
                    let t0 = std::time::Instant::now();
                    let (defs, diags) = sess.reelaborate(&src);
                    let ms = t0.elapsed().as_millis();
                    if opts.emit_json {
                        println!("{}", ur::query::json::diags_to_json(&diags));
                    } else {
                        for d in &diags {
                            eprintln!("{file}: {d}");
                        }
                    }
                    if opts.print {
                        for (name, v) in defs {
                            println!("{name} = {v}");
                        }
                    }
                    let r = sess.last_incr_report().cloned().unwrap_or_default();
                    eprintln!(
                        "[watch] {file}: {} decls ({} green, {} red, {} disk hits), \
                         {} error{} in {ms} ms",
                        r.decls_total,
                        r.green,
                        r.red,
                        r.disk_hits,
                        diags.len(),
                        if diags.len() == 1 { "" } else { "s" },
                    );
                }
                Err(e) => eprintln!("[watch] {file}: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// `--serve`: one JSON request per stdin line, one JSON response per
/// stdout line, driven by the shared [`ur::serve::protocol`] (the same
/// spec the `--listen` TCP front door speaks). Hardened: request lines
/// are capped at [`ur::serve::MAX_REQUEST`] bytes, and a panic while
/// handling one request answers that request with a JSON error instead
/// of tearing down the whole session. On `{"cmd":"quit"}`, a client
/// `shutdown`, or end of input, a final stats line
/// (`{"ok":true,"event":"final","stats":…}`) is flushed and the
/// process exits 0 — scripted drivers get the session's counters even
/// when they just close the pipe.
fn serve(sess: &mut Session) -> Result<(), String> {
    use std::io::Write;
    use ur::serve::protocol::{handle_line, internal_error_response, oversize_response, Control};
    use ur::serve::reader::read_capped_line;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut inp = stdin.lock();
    let mut out = stdout.lock();
    let mut ctx = ur::serve::ReqCtx::new(None);
    let never = || false;
    while let Some((line, truncated)) =
        read_capped_line(&mut inp, ur::serve::MAX_REQUEST, &never).map_err(|e| e.to_string())?
    {
        let (resp, control) = if truncated {
            (oversize_response(), Control::Continue)
        } else {
            if line.trim().is_empty() {
                continue;
            }
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_line(sess, &mut ctx, &line, None)
            })) {
                Ok(r) => r,
                Err(_) => (internal_error_response(), Control::Continue),
            }
        };
        writeln!(out, "{resp}").and_then(|()| out.flush()).map_err(|e| e.to_string())?;
        if !matches!(control, Control::Continue) {
            break;
        }
    }
    let stats = sess.stats_snapshot().to_string();
    writeln!(
        out,
        "{{\"ok\":true,\"event\":\"final\",\"stats\":\"{}\"}}",
        ur::query::json::escape(&stats)
    )
    .and_then(|()| out.flush())
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `--listen ADDR`: the same JSON protocol as `--serve`, served to
/// concurrent TCP clients through the supervised session pool. Prints
/// `{"listening":"HOST:PORT"}` once bound (drivers parse the resolved
/// port), drains gracefully on SIGTERM or a client `shutdown`, and
/// prints the final summary line before exiting 0.
fn listen(opts: &Options, addr: &str) -> Result<(), String> {
    use std::io::Write;
    let mut cfg = ur::serve::ServeConfig {
        addr: addr.to_string(),
        engine: opts.engine,
        cache_dir: opts.cache_dir.as_ref().map(std::path::PathBuf::from),
        db_dir: opts
            .db_dir
            .as_deref()
            .filter(|d| !d.is_empty())
            .map(std::path::PathBuf::from),
        fp: opts.fp,
        ..ur::serve::ServeConfig::default()
    };
    if let Some(n) = opts.pool {
        cfg.workers = n;
    }
    if let Some(n) = opts.queue_depth {
        cfg.queue_depth = n;
    }
    if let Some(n) = opts.max_conns {
        cfg.max_conns = n;
    }
    if let Some(n) = opts.deadline_ms {
        cfg.deadline_ms = n;
    }
    let server = ur::serve::Server::start(cfg).map_err(|e| format!("--listen {addr}: {e}"))?;
    ur::serve::install_sigterm_handler();
    {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        writeln!(out, "{{\"listening\":\"{}\"}}", server.addr())
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    loop {
        if ur::serve::sigterm_received() {
            server.start_drain();
        }
        if server.draining() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let summary = server.wait();
    println!("{}", summary.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
