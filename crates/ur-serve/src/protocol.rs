//! The serve request protocol: one flat JSON object per line in, one
//! JSON object per line out.
//!
//! This is the *small, testable spec* both front doors share: `urc
//! --serve` (stdin/stdout, one session) and the `--listen` TCP pool
//! drive the same [`handle_line`], so a request means the same thing —
//! and degrades the same way — on both. Requests:
//!
//! ```text
//! {"cmd":"load"|"edit","source":S[,"deadline_ms":N]}  rebuild
//! {"cmd":"type","name":X}                             query a type
//! {"cmd":"eval","expr":E[,"deadline_ms":N]}           evaluate E
//! {"cmd":"diagnostics"}                               last diagnostics
//! {"cmd":"stats"}                                     counters
//! {"cmd":"db"}                                        database report
//! {"cmd":"quit"}                                      close this stream
//! {"cmd":"shutdown"}                                  drain the server
//! ```
//!
//! `deadline_ms` caps the request's wall-clock budget; the remaining
//! budget is converted to a fuel ceiling
//! ([`ur_core::limits::Limits::for_deadline_ms`]) so an over-budget
//! elaboration degrades to a structured E0900 diagnostic instead of
//! wedging its worker. Overload and failure answers are structured too
//! (`overloaded` + `retry_after_ms`, `deadline_expired`, lost in-flight
//! requests) — see the response builders below.
//!
//! The TCP front door decodes each line once, at admission, and hands
//! the decoded [`Request`] to [`handle_request`], which [`handle_line`]
//! also calls after decoding. A durable server's snapshot readers hold
//! no session: they answer `type`, `diagnostics` and `db` through
//! [`handle_snapshot_read`], from the writer's published [`Answers`] and
//! a read-only database handle, formatted by the same response builders
//! as [`handle_request`].

use crate::counters::ServeCounters;
use std::collections::HashMap;
use std::sync::Arc;
use ur_core::limits::Limits;
use ur_db::Db;
use ur_query::json::{diags_to_json, escape, parse_flat_object};
use ur_web::Session;

/// A decoded request line: the fields of one flat JSON object
/// ([`parse_flat_object`]).
pub type Request = HashMap<String, String>;

/// Per-request size cap, shared by both front doors. A line longer
/// than this gets a structured JSON error; the excess is drained
/// without ever being buffered.
pub const MAX_REQUEST: usize = 8 * 1024 * 1024;

/// What the caller should do after a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep serving this stream.
    Continue,
    /// Close this stream (TCP: just this connection; stdin: the process).
    Quit,
    /// Drain the whole server.
    Shutdown,
}

/// Per-stream protocol state.
pub struct ReqCtx {
    /// Diagnostics from the most recent load/edit (the `diagnostics`
    /// command replays them).
    pub last_diags: ur_syntax::Diagnostics,
    /// The fuel ceiling the most recent load/edit ran under (`None` when
    /// it had no budget), so a replay of it can run under the same one.
    pub last_limits: Option<Limits>,
    /// The source the most recent load/edit rebuilt. The TCP pool takes
    /// it after each request to record the acknowledged script.
    pub last_source: Option<String>,
    /// Serve gauges folded into `stats` responses, when serving.
    pub counters: Option<Arc<ServeCounters>>,
}

impl ReqCtx {
    pub fn new(counters: Option<Arc<ServeCounters>>) -> ReqCtx {
        ReqCtx {
            last_diags: Vec::new(),
            last_limits: None,
            last_source: None,
            counters,
        }
    }
}

/// Response for a line that does not parse as a flat JSON object.
/// Shared by the admission layer (which answers without spending a
/// queue slot) and [`handle_line`], so the text cannot drift.
pub fn malformed_response() -> String {
    "{\"ok\":false,\"error\":\"malformed request: expected a flat JSON object\"}".to_string()
}

/// Response for a request line that exceeded [`MAX_REQUEST`].
pub fn oversize_response() -> String {
    format!(
        "{{\"ok\":false,\"error\":\"request exceeds the {MAX_REQUEST}-byte \
         limit and was dropped\"}}"
    )
}

/// Load-shed response: the admission layer refused the request (bounded
/// queue full, connection caps, or draining). `retry_after_ms` is the
/// client's backoff hint.
pub fn overloaded_response(retry_after_ms: u64, draining: bool) -> String {
    if draining {
        format!(
            "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{retry_after_ms},\
             \"draining\":true}}"
        )
    } else {
        format!("{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{retry_after_ms}}}")
    }
}

/// Deadline-expiry response: the request's wall-clock budget ran out
/// before a worker could start it.
pub fn deadline_expired_response(deadline_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"deadline_expired\",\"deadline_ms\":{deadline_ms},\
         \"code\":\"E0900\"}}"
    )
}

/// Response for a request whose worker was killed mid-flight and whose
/// effects cannot be safely replayed: the outcome is unknown.
pub fn lost_request_response() -> String {
    "{\"ok\":false,\"error\":\"in-flight request lost to a worker restart; \
     outcome unknown\"}"
        .to_string()
}

/// Response when request handling panicked (the panic was contained;
/// the session survives).
pub fn internal_error_response() -> String {
    "{\"ok\":false,\"error\":\"internal error handling request; session continues\"}"
        .to_string()
}

/// A failed request's answer.
fn error_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

/// The answer to `type`: the type `lookup` finds for the request's
/// `name`, or why there is none.
fn type_response(req: &Request, lookup: impl FnOnce(&str) -> Option<String>) -> String {
    let Some(name) = req.get("name") else {
        return error_response("type needs a \"name\" field");
    };
    match lookup(name) {
        Some(ty) => format!(
            "{{\"ok\":true,\"name\":\"{}\",\"type\":\"{}\"}}",
            escape(name),
            escape(&ty)
        ),
        None => error_response(&format!("no value named {name}")),
    }
}

/// The answer to `diagnostics`.
fn diagnostics_response(diags: &[ur_syntax::Diagnostic]) -> String {
    format!("{{\"ok\":true,\"diagnostics\":{}}}", diags_to_json(diags))
}

/// The answer to `db`.
fn db_response(db: &Db) -> String {
    format!(
        "{{\"ok\":true,\"db\":\"{}\"}}",
        escape(&ur_web::db_report(db))
    )
}

/// The inferred type of the most recent value named `name`, if any.
pub fn type_of(sess: &Session, name: &str) -> Option<String> {
    use ur_infer::ElabDecl;
    sess.elab.decls.iter().rev().find_map(|d| match d {
        ElabDecl::Val { name: n, ty, .. } if n == name => Some(ty.to_string()),
        _ => None,
    })
}

/// What an acknowledged program answers without a session: the type of
/// every top-level value, rendered as text, and the diagnostics its
/// rebuild reported. Immutable once built; a durable server's writer
/// publishes one per acknowledged rebuild and its snapshot readers
/// answer from it.
pub struct Answers {
    types: HashMap<String, String>,
    diags: ur_syntax::Diagnostics,
}

impl Answers {
    /// Renders every value type of `sess`, prelude included. A name
    /// bound twice keeps its last binding, as [`type_of`] does.
    pub fn of(sess: &Session, diags: ur_syntax::Diagnostics) -> Answers {
        use ur_infer::ElabDecl;
        let types = sess
            .elab
            .decls
            .iter()
            .filter_map(|d| match d {
                ElabDecl::Val { name, ty, .. } => Some((name.clone(), ty.to_string())),
                _ => None,
            })
            .collect();
        Answers { types, diags }
    }
}

/// Whether a durable server's snapshot readers answer `cmd` (through
/// [`handle_snapshot_read`]); every other command goes to the writer.
pub fn is_snapshot_read(cmd: Option<&str>) -> bool {
    matches!(cmd, Some("type" | "diagnostics" | "db"))
}

/// Answers a snapshot read from the writer's published `answers` and a
/// read-only handle `db` over its latest snapshot.
pub fn handle_snapshot_read(answers: &Answers, db: &Db, req: &Request) -> String {
    match req.get("cmd").map(String::as_str) {
        Some("type") => type_response(req, |name| answers.types.get(name).cloned()),
        Some("diagnostics") => diagnostics_response(&answers.diags),
        Some("db") => db_response(db),
        Some(other) => error_response(&format!("{other} is not a snapshot read")),
        None => error_response("request needs a \"cmd\" field"),
    }
}

/// Runs `f` with the session's fuel ceilings scaled to `budget_ms` of
/// wall clock (when given), restoring the previous limits after. Only
/// correct for operations that do *not* restore the session base
/// (evaluation); rebuilds must go through
/// [`Session::reelaborate_limited`], which installs the ceiling after
/// the base restore.
fn with_deadline_fuel<T>(
    sess: &mut Session,
    budget_ms: Option<u64>,
    f: impl FnOnce(&mut Session) -> T,
) -> T {
    let Some(ms) = budget_ms else { return f(sess) };
    let saved = sess.elab.cx.fuel.limits;
    sess.elab.cx.fuel.limits = Limits::for_deadline_ms(ms);
    sess.elab.cx.fuel.reset();
    let out = f(sess);
    sess.elab.cx.fuel.limits = saved;
    sess.elab.cx.fuel.reset();
    out
}

/// Handles one request line; returns `(response, control)`. The stdio
/// front door's entry point: decodes the line, then [`handle_request`].
pub fn handle_line(
    sess: &mut Session,
    ctx: &mut ReqCtx,
    line: &str,
    budget_ms: Option<u64>,
) -> (String, Control) {
    match parse_flat_object(line) {
        Some(req) => handle_request(sess, ctx, req, budget_ms),
        None => (malformed_response(), Control::Continue),
    }
}

/// Handles one decoded request; returns `(response, control)`.
///
/// `budget_ms` is the wall-clock budget remaining for this request
/// (admission deadline minus queue time); the request's own
/// `deadline_ms` field tightens it further. `None` means unlimited.
pub fn handle_request(
    sess: &mut Session,
    ctx: &mut ReqCtx,
    mut req: Request,
    budget_ms: Option<u64>,
) -> (String, Control) {
    let err = |msg: &str| (error_response(msg), Control::Continue);
    let budget_ms = [
        budget_ms,
        req.get("deadline_ms").and_then(|v| v.trim().parse().ok()),
    ]
    .into_iter()
    .flatten()
    .min();
    let cmd = req.remove("cmd");
    match cmd.as_deref() {
        Some("load") | Some("edit") => {
            let Some(src) = req.remove("source") else {
                return err("load/edit needs a \"source\" field");
            };
            let limits = budget_ms.map(Limits::for_deadline_ms);
            let (_defs, diags) = match limits {
                Some(l) => sess.reelaborate_limited(&src, l),
                None => sess.reelaborate(&src),
            };
            let r = sess.last_incr_report().cloned().unwrap_or_default();
            let resp = format!(
                "{{\"ok\":true,\"decls\":{},\"green\":{},\"red\":{},\
                 \"diagnostics\":{}}}",
                r.decls_total,
                r.green,
                r.red,
                diags_to_json(&diags)
            );
            ctx.last_diags = diags;
            ctx.last_limits = limits;
            ctx.last_source = Some(src);
            (resp, Control::Continue)
        }
        Some("type") => (
            type_response(&req, |name| type_of(sess, name)),
            Control::Continue,
        ),
        Some("eval") => {
            let Some(expr) = req.get("expr") else {
                return err("eval needs an \"expr\" field");
            };
            match with_deadline_fuel(sess, budget_ms, |sess| sess.eval(expr)) {
                Ok(v) => (
                    format!("{{\"ok\":true,\"value\":\"{}\"}}", escape(&v.to_string())),
                    Control::Continue,
                ),
                Err(e) => err(&e.to_string()),
            }
        }
        Some("diagnostics") => (diagnostics_response(&ctx.last_diags), Control::Continue),
        Some("stats") => {
            let mut s = sess.stats_snapshot();
            if let Some(c) = &ctx.counters {
                c.fold_into(&mut s);
            }
            (
                format!("{{\"ok\":true,\"stats\":\"{}\"}}", escape(&s.to_string())),
                Control::Continue,
            )
        }
        Some("db") => (db_response(sess.db()), Control::Continue),
        Some("quit") => ("{\"ok\":true}".to_string(), Control::Quit),
        Some("shutdown") => (
            "{\"ok\":true,\"draining\":true}".to_string(),
            Control::Shutdown,
        ),
        Some(other) => err(&format!("unknown cmd {other}")),
        None => err("request needs a \"cmd\" field"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn sess() -> Session {
        Session::new().expect("session")
    }

    #[test]
    fn load_type_eval_round_trip() {
        let mut s = sess();
        let mut ctx = ReqCtx::new(None);
        let (resp, c) = handle_line(
            &mut s,
            &mut ctx,
            "{\"cmd\":\"load\",\"source\":\"val x = 41\"}",
            None,
        );
        assert_eq!(c, Control::Continue);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert_eq!(ctx.last_source.as_deref(), Some("val x = 41"));
        let (resp, _) = handle_line(&mut s, &mut ctx, "{\"cmd\":\"type\",\"name\":\"x\"}", None);
        assert!(resp.contains("\"type\":\"int\""), "{resp}");
        let (resp, _) = handle_line(&mut s, &mut ctx, "{\"cmd\":\"eval\",\"expr\":\"x + 1\"}", None);
        assert!(resp.contains("\"value\":\"42\""), "{resp}");
    }

    #[test]
    fn quit_and_shutdown_controls() {
        let mut s = sess();
        let mut ctx = ReqCtx::new(None);
        let (_, c) = handle_line(&mut s, &mut ctx, "{\"cmd\":\"quit\"}", None);
        assert_eq!(c, Control::Quit);
        let (resp, c) = handle_line(&mut s, &mut ctx, "{\"cmd\":\"shutdown\"}", None);
        assert_eq!(c, Control::Shutdown);
        assert!(resp.contains("draining"), "{resp}");
    }

    #[test]
    fn malformed_and_unknown_requests_error_without_quit() {
        let mut s = sess();
        let mut ctx = ReqCtx::new(None);
        for line in ["not json", "{\"cmd\":\"nope\"}", "{\"x\":1}"] {
            let (resp, c) = handle_line(&mut s, &mut ctx, line, None);
            assert_eq!(c, Control::Continue, "{line}");
            assert!(resp.contains("\"ok\":false"), "{line}: {resp}");
        }
    }

    #[test]
    fn tiny_deadline_degrades_to_e0900_not_a_hang() {
        let mut s = sess();
        let mut ctx = ReqCtx::new(None);
        // A wide record concatenation whose disjointness goal needs
        // 150×150 prover pairs — far beyond the ~2000 a 1ms budget
        // allows, while default limits elaborate it fine.
        let fields = |prefix: &str, n: usize| {
            (0..n)
                .map(|i| format!("{prefix}{i} = {i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let src = format!("val wide = {{{}}} ++ {{{}}}", fields("A", 150), fields("B", 150));
        let req = format!(
            "{{\"cmd\":\"load\",\"source\":\"{}\",\"deadline_ms\":\"1\"}}",
            escape(&src)
        );
        let (resp, c) = handle_line(&mut s, &mut ctx, &req, None);
        assert_eq!(c, Control::Continue);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("E0900"), "expected structured degradation: {resp}");
        // The session's default limits are restored afterwards: a sane
        // load succeeds cleanly.
        let (resp, _) = handle_line(
            &mut s,
            &mut ctx,
            "{\"cmd\":\"load\",\"source\":\"val y = 7\"}",
            None,
        );
        assert!(resp.contains("\"diagnostics\":[]"), "{resp}");
    }

    #[test]
    fn stats_response_includes_serve_schema() {
        let mut s = sess();
        let c = Arc::new(ServeCounters::new());
        c.accepted.fetch_add(1, Ordering::Relaxed);
        let mut ctx = ReqCtx::new(Some(c));
        let (resp, _) = handle_line(&mut s, &mut ctx, "{\"cmd\":\"stats\"}", None);
        assert!(resp.contains("serve[accepted=1"), "{resp}");
    }

    /// A snapshot reader answers exactly what the writer's session
    /// answers, through the same builders.
    #[test]
    fn snapshot_reads_answer_like_the_session() {
        let mut s = sess();
        let mut ctx = ReqCtx::new(None);
        let load = "{\"cmd\":\"load\",\"source\":\"val x = 41 val x = \\\"s\\\" \
                    val y = 1 + \\\"a\\\"\"}";
        let (resp, _) = handle_line(&mut s, &mut ctx, load, None);
        assert!(resp.contains("E0400"), "{resp}");
        let answers = Answers::of(&s, ctx.last_diags.clone());
        let db = s.db().clone();
        for line in [
            "{\"cmd\":\"type\",\"name\":\"x\"}",
            "{\"cmd\":\"type\",\"name\":\"insert\"}",
            "{\"cmd\":\"type\",\"name\":\"y\"}",
            "{\"cmd\":\"type\"}",
            "{\"cmd\":\"diagnostics\"}",
            "{\"cmd\":\"db\"}",
        ] {
            let (want, _) = handle_line(&mut s, &mut ctx, line, None);
            let req = parse_flat_object(line).expect("a flat object");
            assert_eq!(handle_snapshot_read(&answers, &db, &req), want, "{line}");
        }
        let x = parse_flat_object("{\"cmd\":\"type\",\"name\":\"x\"}").expect("a flat object");
        assert!(handle_snapshot_read(&answers, &db, &x).contains("\"type\":\"string\""));
    }

    #[test]
    fn structured_responses_are_wellformed() {
        assert!(oversize_response().contains("limit"));
        let o = overloaded_response(50, false);
        assert!(o.contains("\"error\":\"overloaded\"") && o.contains("\"retry_after_ms\":50"));
        assert!(overloaded_response(50, true).contains("\"draining\":true"));
        assert!(deadline_expired_response(5).contains("deadline_expired"));
        assert!(lost_request_response().contains("outcome unknown"));
    }
}
