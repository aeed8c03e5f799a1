//! The session pool.
//!
//! Each worker is a dedicated OS thread owning its [`Session`]s
//! (sessions are `Rc`-based and deliberately not `Send`; only `Send`
//! data — request lines, reply strings, atomics, the immutable answers
//! a durable writer publishes — crosses threads).
//! Connections are routed stickily (`conn % workers`) so a client's
//! requests land on the session holding its state.
//!
//! ## Containment and deterministic restore
//!
//! Fuel bounds every job: a request's deadline scales the ceiling of its
//! elaboration and of its evaluation alike, so an over-budget request
//! ends in a structured E0900 on its worker. Every job runs under
//! `catch_unwind` (the writer's snapshot publication and start-up
//! session build too), so a worker thread never exits while its queue
//! is open, and [`Pool::start`] fails rather than run with a worker it
//! could not spawn. A panic drops the session it hit, and the next
//! request rebuilds it from the *last acknowledged script* —
//! [`Session::reelaborate`] makes session state a function of (pristine
//! base, last source, its fuel ceiling), so replaying the script under
//! the ceiling it was acknowledged under reproduces exactly what was
//! acked.
//!
//! ## Durable grafting (shared `--db-dir` mode)
//!
//! With a shared durable database worker 0 is the **single writer**
//! owning the global session: durable handles are single-writer, and
//! funneling every mutation through one session is what makes rebuilds
//! safe to reason about. Workers 1..n are **snapshot readers** and hold
//! no session: they never open the store and never elaborate. The
//! writer publishes to the [`SnapshotHub`] an MVCC snapshot after every
//! request, and the acknowledged program's [`Answers`] (value types
//! rendered as text, and diagnostics) when it opens the store and after
//! every acknowledged rebuild. Readers answer `type` and `diagnostics`
//! from the answers and `db` from a [`Db::read_only`] handle over the
//! latest snapshot — concurrent with, and isolated from, in-flight
//! writes; `stats` and everything that needs a session go to the writer.
//! The writer pins a *pristine in-memory base* (a
//! `reelaborate("")` before the durable handle is ever installed) so a
//! rebuild replays declarations into a scratch in-memory world; the
//! durable store then *adopts* that world ([`Db::adopt_state`]) instead
//! of having the replay appended on top of history — the
//! double-apply-on-rebuild trap. The invariant threaded through
//! restore: **a scripts-map entry exists only after its effects are on
//! disk**, so a rebuilt session replays the script for elaborator state
//! only and installs the durable handle without re-adopting.

use crate::counters::ServeCounters;
use crate::protocol::{self, Answers, ReqCtx, Request};
use crate::{lock, ServeConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ur_core::failpoint::{self, FpCounters};
use ur_core::limits::Limits;
use ur_db::{Db, DbSnapshot};
use ur_web::Session;

/// Session key for the single shared session in durable mode.
const GLOBAL_KEY: u64 = u64::MAX;

/// The writer→readers handoff point of durable mode: the latest
/// published MVCC snapshot with a monotone sequence number, and the
/// acknowledged program's [`Answers`].
///
/// The writer publishes a snapshot after every request (cheap — `Db`
/// caches the snapshot per committed epoch, so an unchanged state
/// republishes the same `Arc` and the sequence does not move). Readers
/// compare `seq` — **not** the snapshot's own epoch, which adopt-state
/// rebuilds can rewind — and swap in a fresh read-only handle when it
/// moved.
///
/// The answers change only when a load or edit is acknowledged. The
/// writer publishes them once it has opened the store and after every
/// acknowledged rebuild; readers wait for the first publication
/// ([`SnapshotHub::answers_by`]).
pub struct SnapshotHub {
    snap: Mutex<Option<Arc<DbSnapshot>>>,
    seq: AtomicU64,
    answers: Mutex<Option<Arc<Answers>>>,
    answered: Condvar,
}

impl SnapshotHub {
    fn new() -> SnapshotHub {
        SnapshotHub {
            snap: Mutex::new(None),
            seq: AtomicU64::new(0),
            answers: Mutex::new(None),
            answered: Condvar::new(),
        }
    }

    /// Installs a snapshot; bumps `seq` only when the `Arc` actually
    /// changed (pointer identity — the writer's per-epoch cache makes
    /// republishing an unchanged state the common case).
    pub fn publish(&self, s: Arc<DbSnapshot>) {
        let mut g = lock(&self.snap);
        let changed = g.as_ref().is_none_or(|old| !Arc::ptr_eq(old, &s));
        if changed {
            *g = Some(s);
            self.seq.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The current sequence number and snapshot (if any published yet).
    pub fn current(&self) -> (u64, Option<Arc<DbSnapshot>>) {
        let g = lock(&self.snap);
        (self.seq.load(Ordering::SeqCst), g.clone())
    }

    /// Replaces the published answers and wakes waiting readers.
    pub fn publish_answers(&self, a: Answers) {
        *lock(&self.answers) = Some(Arc::new(a));
        self.answered.notify_all();
    }

    /// The published answers, waiting until `deadline` for the first
    /// publication; `None` if none came by then.
    pub fn answers_by(&self, deadline: Instant) -> Option<Arc<Answers>> {
        let mut g = lock(&self.answers);
        loop {
            if let Some(a) = g.as_ref() {
                return Some(Arc::clone(a));
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            g = match self.answered.wait_timeout(g, left) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// One unit of work for a worker.
pub enum Job {
    /// A request from connection `conn`, decoded at admission, to be
    /// answered through `reply` before `deadline`, which ends its budget
    /// of `deadline_ms` (`min(server default, request's deadline_ms)`).
    Request {
        conn: u64,
        req: Request,
        deadline: Instant,
        deadline_ms: u64,
        reply: SyncSender<String>,
    },
    /// Connection `conn` closed; its session can be dropped.
    Close { conn: u64 },
}

/// State shared between the pool, its workers, and the front door.
pub struct PoolShared {
    pub cfg: ServeConfig,
    pub counters: Arc<ServeCounters>,
    /// Fault-injection counters shipped home by worker threads (their
    /// thread-local counters die with them otherwise).
    pub faults: Mutex<FpCounters>,
    /// Last *acknowledged* load/edit per session key. Entries are written
    /// only after the rebuild's effects are fully applied (and, in
    /// durable mode, adopted on disk) — the restore invariant.
    pub scripts: Mutex<HashMap<u64, AckedScript>>,
    /// Set during graceful drain: workers count completions as drained.
    pub draining: AtomicBool,
    /// Durable mode's writer→readers snapshot handoff (unused, but
    /// present, in memory-only mode).
    pub hub: SnapshotHub,
}

/// A session's last acknowledged load/edit, as [`build_session`]
/// replays it.
#[derive(Clone)]
pub struct AckedScript {
    /// The source its rebuild elaborated.
    pub source: String,
    /// The diagnostics its rebuild reported.
    pub diags: ur_syntax::Diagnostics,
    /// The fuel ceiling its rebuild ran under (`None` when unbudgeted).
    pub limits: Option<Limits>,
}

struct WorkerSlot {
    tx: SyncSender<Job>,
    join: Option<JoinHandle<()>>,
}

/// The pool: sticky routing over bounded per-worker queues.
pub struct Pool {
    pub shared: Arc<PoolShared>,
    slots: Mutex<Vec<WorkerSlot>>,
}

impl Pool {
    /// Spawns the worker threads. In durable mode (`cfg.db_dir` set)
    /// worker 0 is the **single writer** (it alone opens the store and
    /// holds its flock); every other worker is a **snapshot reader**
    /// answering snapshot reads from what the writer published to the
    /// hub, concurrent with the writer.
    ///
    /// # Errors
    ///
    /// Fails when a worker thread cannot be spawned, after stopping the
    /// workers already started: a pool never runs with a dead slot.
    pub fn start(cfg: ServeConfig, counters: Arc<ServeCounters>) -> std::io::Result<Arc<Pool>> {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(PoolShared {
            cfg,
            counters,
            faults: Mutex::new(FpCounters::default()),
            scripts: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            hub: SnapshotHub::new(),
        });
        let pool = Pool {
            shared,
            slots: Mutex::new(Vec::with_capacity(workers)),
        };
        for wid in 0..workers {
            match spawn_worker(&pool.shared, wid) {
                Ok(slot) => lock(&pool.slots).push(slot),
                Err(e) => {
                    pool.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(Arc::new(pool))
    }

    pub fn workers(&self) -> usize {
        self.shared.cfg.workers.max(1)
    }

    /// The worker a connection's request routes to, with its queue
    /// handle. Memory mode is sticky (`conn % workers`, sessions are
    /// per-connection). Durable mode sends every other request to the
    /// writer (worker 0) and fans snapshot reads
    /// ([`protocol::is_snapshot_read`]) across the snapshot readers
    /// (workers 1..n), falling back to the writer when the pool has no
    /// readers.
    pub fn handle_for_routed(&self, conn: u64, read_only: bool) -> (usize, SyncSender<Job>) {
        let n = self.workers();
        let wid = if self.shared.cfg.db_dir.is_some() {
            if read_only && n > 1 {
                1 + (conn as usize) % (n - 1)
            } else {
                0
            }
        } else {
            (conn as usize) % n
        };
        (wid, lock(&self.slots)[wid].tx.clone())
    }

    /// Flags drain: workers count subsequent completions as drained.
    pub fn start_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Closes every queue and joins the workers. Bounded: each worker
    /// answers the jobs still queued, each within its fuel, then sees its
    /// queue closed and exits after its final checkpoint.
    pub fn shutdown(&self) {
        let joins: Vec<Option<JoinHandle<()>>> = {
            let mut slots = lock(&self.slots);
            slots
                .iter_mut()
                .map(|s| {
                    // Swap in a disconnected sender so the worker's
                    // queue closes once transient per-request clones
                    // (held briefly by connection threads) drop.
                    let (dead_tx, _dead_rx) = sync_channel(1);
                    drop(std::mem::replace(&mut s.tx, dead_tx));
                    s.join.take()
                })
                .collect()
        };
        // Wait for the workers' final checkpoints.
        for j in joins.into_iter().flatten() {
            let _ = j.join();
        }
    }
}

fn spawn_worker(shared: &Arc<PoolShared>, wid: usize) -> std::io::Result<WorkerSlot> {
    let (tx, rx) = sync_channel::<Job>(shared.cfg.queue_depth.max(1));
    let shared = Arc::clone(shared);
    let join = std::thread::Builder::new()
        .name(format!("ur-serve-worker-{wid}"))
        .spawn(move || worker_main(shared, wid, rx))?;
    Ok(WorkerSlot {
        tx,
        join: Some(join),
    })
}

/// Per-worker session table entry.
struct Slot {
    sess: Session,
    ctx: ReqCtx,
}

/// A snapshot reader's state — no session, only a read-only handle
/// over the last snapshot it installed and that snapshot's hub
/// sequence, compared before every request. `seq` starts at `u64::MAX`
/// so the first request installs the current snapshot; the writer
/// publishes its first snapshot before its first answers, so the
/// in-memory placeholder is never read.
struct ReaderState {
    seq: u64,
    db: Db,
}

fn worker_main(shared: Arc<PoolShared>, wid: usize, rx: Receiver<Job>) {
    if let Some(fp) = shared.cfg.fp {
        failpoint::install(Some(fp));
    }
    let durable_mode = shared.cfg.db_dir.is_some();
    let is_reader = durable_mode && wid > 0;
    // The durable handle is writer-owned: it is not Send, and a second
    // writer on the directory is a deployment bug, refused by the store's
    // lock. Readers never open the store; they serve the hub's published
    // snapshots.
    let mut durable: Option<Db> = None;
    if let (Some(dir), 0) = (&shared.cfg.db_dir, wid) {
        match Db::open(dir) {
            Ok(mut db) => {
                // Publish the recovered state before serving anything,
                // so readers never answer from pre-recovery emptiness.
                shared.hub.publish(db.publish_snapshot());
                durable = Some(db);
            }
            Err(e) => {
                // Without the store this worker cannot serve safely.
                refuse_all(&shared, &rx, &e.to_string());
                return;
            }
        }
    }
    let mut sessions: HashMap<u64, Slot> = HashMap::new();
    if durable.is_some() {
        // The writer builds its session before serving, so readers can
        // answer the prelude's types before the first load (a failed or
        // panicking build is retried, and reported, by the first request).
        let _ = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(slot) = build_session(&shared, durable.as_ref(), GLOBAL_KEY) {
                shared
                    .hub
                    .publish_answers(Answers::of(&slot.sess, slot.ctx.last_diags.clone()));
                sessions.insert(GLOBAL_KEY, slot);
            }
        }));
    }
    let mut reader = is_reader.then(|| ReaderState {
        seq: u64::MAX,
        db: Db::new(),
    });
    while let Ok(job) = rx.recv() {
        match job {
            Job::Close { conn } => {
                if !durable_mode {
                    sessions.remove(&conn);
                }
            }
            Job::Request {
                conn,
                req,
                deadline,
                deadline_ms,
                reply,
            } => {
                let now = Instant::now();
                if now >= deadline {
                    shared
                        .counters
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(protocol::deadline_expired_response(deadline_ms));
                    continue;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| match &mut reader {
                    Some(r) => serve_read(&shared, r, &req, deadline, deadline_ms),
                    None => {
                        let budget_ms = (deadline - now).as_millis() as u64;
                        let resp =
                            serve_one(&shared, &mut sessions, &mut durable, conn, req, budget_ms);
                        if durable_mode {
                            // Publish after every request: cheap when nothing
                            // changed (the per-epoch cache republishes the same
                            // `Arc` and the hub's sequence does not move).
                            if let Some(slot) = sessions.get_mut(&GLOBAL_KEY) {
                                shared.hub.publish(slot.sess.db().publish_snapshot());
                            }
                        }
                        resp
                    }
                }));
                let resp = outcome.unwrap_or_else(|_| {
                    // The panic was contained but the session's invariants
                    // are unknown: drop it. The next request rebuilds it
                    // from the last acknowledged script — deterministic,
                    // nothing half-applied.
                    sessions.remove(&session_key(&shared, conn));
                    protocol::internal_error_response()
                });
                if shared.draining.load(Ordering::SeqCst) {
                    shared.counters.drained.fetch_add(1, Ordering::Relaxed);
                }
                let _ = reply.send(resp);
            }
        }
    }
    // Queue closed: final checkpoint of every durable handle, then out.
    if let Some(d) = &mut durable {
        let _ = d.checkpoint();
    }
    for slot in sessions.values_mut() {
        let _ = slot.sess.db().checkpoint();
    }
    ship_faults(&shared);
}

/// The session a connection's requests run against: the one global
/// session in durable mode, the connection's own otherwise.
fn session_key(shared: &PoolShared, conn: u64) -> u64 {
    if shared.cfg.db_dir.is_some() {
        GLOBAL_KEY
    } else {
        conn
    }
}

/// Handles one request against the (lazily built) session for `conn`.
fn serve_one(
    shared: &Arc<PoolShared>,
    sessions: &mut HashMap<u64, Slot>,
    durable: &mut Option<Db>,
    conn: u64,
    req: Request,
    budget_ms: u64,
) -> String {
    let key = session_key(shared, conn);
    if let std::collections::hash_map::Entry::Vacant(vacant) = sessions.entry(key) {
        match build_session(shared, durable.as_ref(), key) {
            Ok(slot) => {
                vacant.insert(slot);
            }
            Err(e) => {
                return format!(
                    "{{\"ok\":false,\"error\":\"session construction failed: {}\"}}",
                    ur_query::json::escape(&e)
                )
            }
        }
    }
    let Some(slot) = sessions.get_mut(&key) else {
        return protocol::internal_error_response();
    };
    let (resp, _ctl) =
        protocol::handle_request(&mut slot.sess, &mut slot.ctx, req, Some(budget_ms));
    // A load or edit that ran leaves the source it rebuilt.
    let Some(src) = slot.ctx.last_source.take() else {
        return resp;
    };
    if let Some(d) = durable.as_mut() {
        // The rebuild replayed declarations into the scratch in-memory
        // world; the durable store adopts that world as the new truth (see
        // module docs). Poison from a failed adopt is healed by checkpoint
        // retry with bounded backoff.
        d.adopt_state(&slot.sess.db().clone());
        let mut delay = Duration::from_millis(5);
        for _ in 0..4 {
            if d.poison_reason().is_none() {
                break;
            }
            let _ = d.checkpoint();
            std::thread::sleep(delay);
            delay *= 2;
        }
        if d.poison_reason().is_some() {
            // The store never accepted the rebuild: refuse the ack (acked
            // state must be on disk) and drop the session so the next
            // request restores from the last state the store *did* accept.
            sessions.remove(&key);
            return "{\"ok\":false,\"error\":\"durable store rejected the \
                    rebuild; state rolled back to the last checkpoint\"}"
                .to_string();
        }
        *slot.sess.db() = d.clone();
    }
    // Effects are fully applied (and durable, when shared): only now may
    // the script become the restore point, and only now may snapshot
    // readers answer from it.
    lock(&shared.scripts).insert(
        key,
        AckedScript {
            source: src,
            diags: slot.ctx.last_diags.clone(),
            limits: slot.ctx.last_limits,
        },
    );
    if durable.is_some() {
        shared
            .hub
            .publish_answers(Answers::of(&slot.sess, slot.ctx.last_diags.clone()));
    }
    resp
}

/// Answers a snapshot read: wait (until the request's deadline, the end
/// of its `deadline_ms` budget) for the writer's first answers, install a
/// read-only handle over the latest snapshot when the hub's sequence
/// moved, and answer from both.
fn serve_read(
    shared: &Arc<PoolShared>,
    reader: &mut ReaderState,
    req: &Request,
    deadline: Instant,
    deadline_ms: u64,
) -> String {
    let Some(answers) = shared.hub.answers_by(deadline) else {
        shared
            .counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        return protocol::deadline_expired_response(deadline_ms);
    };
    let (seq, snap) = shared.hub.current();
    if seq != reader.seq {
        if let Some(snap) = snap {
            reader.db = Db::read_only(&snap);
            reader.seq = seq;
        }
    }
    protocol::handle_snapshot_read(&answers, &reader.db, req)
}

/// Builds a session for `key`: pin a pristine in-memory base, replay the
/// last acknowledged script (elaborator state) under the fuel ceiling it
/// was acknowledged under and take over the diagnostics it was
/// acknowledged with, then install the durable handle *without*
/// re-adopting — the script's effects are already on disk by the
/// scripts-map invariant. Fuel resets per declaration and the limits are
/// part of the engine's environment fingerprint, so the replay binds
/// exactly what the acknowledged rebuild bound, and it seeds from the
/// process-wide live-outcome layer what the dropped session elaborated.
fn build_session(
    shared: &Arc<PoolShared>,
    durable: Option<&Db>,
    key: u64,
) -> Result<Slot, String> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    if let Some(e) = shared.cfg.engine {
        sess.engine = e;
    }
    // Pin the pristine base before any durable handle exists, so every
    // later rebuild replays into scratch in-memory state.
    let _ = sess.reelaborate("");
    let mut ctx = ReqCtx::new(Some(Arc::clone(&shared.counters)));
    let script = lock(&shared.scripts).get(&key).cloned();
    if let Some(acked) = script {
        let _ = match acked.limits {
            Some(l) => sess.reelaborate_limited(&acked.source, l),
            None => sess.reelaborate(&acked.source),
        };
        // `diagnostics` answers what the acknowledged rebuild reported.
        ctx.last_diags = acked.diags;
        ctx.last_limits = acked.limits;
    }
    if let Some(d) = durable {
        *sess.db() = d.clone();
    }
    Ok(Slot { sess, ctx })
}

/// Fallback loop for a writer that could not open the shared store:
/// answer every request with a structured refusal until shut down.
/// Keeping the thread alive keeps the failure observable: clients get
/// errors, not hangs.
fn refuse_all(shared: &Arc<PoolShared>, rx: &Receiver<Job>, why: &str) {
    let resp = format!(
        "{{\"ok\":false,\"error\":\"shared database unavailable: {}\"}}",
        ur_query::json::escape(why)
    );
    while let Ok(job) = rx.recv() {
        if let Job::Request { reply, .. } = job {
            let _ = reply.send(resp.clone());
        }
    }
    ship_faults(shared);
}

/// Ships this thread's fault-injection counters to the pool-wide sink
/// (no-op totals without the `failpoints` feature).
fn ship_faults(shared: &Arc<PoolShared>) {
    let c = failpoint::take_counters();
    lock(&shared.faults).absorb(&c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_seq_moves_only_when_the_snapshot_arc_changes() {
        let hub = SnapshotHub::new();
        assert_eq!(hub.current().0, 0);
        let mut d = Db::new();
        let s1 = d.publish_snapshot();
        hub.publish(Arc::clone(&s1));
        assert_eq!(hub.current().0, 1);
        // Republishing the identical Arc (the writer's per-epoch cache
        // hit) must not move the sequence.
        hub.publish(Arc::clone(&s1));
        assert_eq!(hub.current().0, 1);
        let mut d2 = Db::new();
        hub.publish(d2.publish_snapshot());
        assert_eq!(hub.current().0, 2);
    }

    #[test]
    fn readers_wait_for_the_first_answers_until_their_deadline() {
        let hub = Arc::new(SnapshotHub::new());
        let soon = Instant::now() + Duration::from_millis(20);
        assert!(hub.answers_by(soon).is_none(), "nothing published yet");
        let waiting = Arc::clone(&hub);
        let waiter = std::thread::spawn(move || {
            waiting
                .answers_by(Instant::now() + Duration::from_secs(30))
                .is_some()
        });
        std::thread::sleep(Duration::from_millis(20));
        hub.publish_answers(Answers::of(&Session::new().unwrap(), Vec::new()));
        assert!(waiter.join().unwrap(), "publishing wakes a waiting reader");
        assert!(hub.answers_by(Instant::now()).is_some());
    }

    #[test]
    fn a_restored_session_replays_under_the_acknowledged_fuel_ceiling() {
        let fields = |prefix: &str| {
            (0..150)
                .map(|i| format!("{prefix}{i} = {i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let src = format!("val wide = {{{}}} ++ {{{}}}", fields("A"), fields("B"));
        let load = format!(
            "{{\"cmd\":\"load\",\"source\":\"{}\"}}",
            ur_query::json::escape(&src)
        );
        let mut sess = Session::new().expect("session");
        let mut ctx = ReqCtx::new(None);
        let (resp, _) = protocol::handle_line(&mut sess, &mut ctx, &load, Some(1));
        assert!(resp.contains("E0900"), "{resp}");
        assert_eq!(ctx.last_limits, Some(Limits::for_deadline_ms(1)));

        let shared = Arc::new(PoolShared {
            cfg: ServeConfig::default(),
            counters: Arc::new(ServeCounters::new()),
            faults: Mutex::new(FpCounters::default()),
            scripts: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            hub: SnapshotHub::new(),
        });
        let acked = AckedScript {
            source: src,
            diags: ctx.last_diags.clone(),
            limits: ctx.last_limits,
        };
        lock(&shared.scripts).insert(7, acked);
        let mut slot = build_session(&shared, None, 7).expect("restored session");
        let ask = |slot: &mut Slot, line: &str| {
            protocol::handle_line(&mut slot.sess, &mut slot.ctx, line, None).0
        };
        let ty = ask(&mut slot, "{\"cmd\":\"type\",\"name\":\"wide\"}");
        assert!(ty.contains("no value named wide"), "{ty}");
        let diags = ask(&mut slot, "{\"cmd\":\"diagnostics\"}");
        assert!(diags.contains("E0900"), "{diags}");
    }

    #[test]
    fn memory_mode_routes_stickily_across_all_workers() {
        let cfg = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        let pool = Pool::start(cfg, Arc::new(ServeCounters::new())).expect("pool");
        for conn in 0..9_u64 {
            let (wid, _) = pool.handle_for_routed(conn, false);
            assert_eq!(wid, (conn as usize) % 3);
            let (wid_ro, _) = pool.handle_for_routed(conn, true);
            assert_eq!(wid_ro, wid, "memory mode ignores read_only");
        }
        pool.shutdown();
    }

    #[test]
    fn durable_mode_routes_writes_to_0_and_reads_to_readers() {
        let dir = std::env::temp_dir().join(format!(
            "ur-serve-pool-route-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            workers: 4,
            db_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let pool = Pool::start(cfg, Arc::new(ServeCounters::new())).expect("pool");
        let mut reader_wids = std::collections::HashSet::new();
        for conn in 0..12_u64 {
            let (wid, _) = pool.handle_for_routed(conn, false);
            assert_eq!(wid, 0, "mutations go to the writer");
            let (wid_ro, _) = pool.handle_for_routed(conn, true);
            assert!(wid_ro >= 1, "reads never queue behind the writer");
            reader_wids.insert(wid_ro);
        }
        assert_eq!(reader_wids.len(), 3, "reads fan across every reader");
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_single_worker_pool_falls_back_to_the_writer() {
        let dir = std::env::temp_dir().join(format!(
            "ur-serve-pool-single-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            workers: 1,
            db_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let pool = Pool::start(cfg, Arc::new(ServeCounters::new())).expect("pool");
        let (wid, _) = pool.handle_for_routed(7, true);
        assert_eq!(wid, 0);
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
