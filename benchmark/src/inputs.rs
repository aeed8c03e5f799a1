//! Seeded inputs: program sources and per-connection request streams.
//!
//! Everything here is a pure function of the seed, so a run's traffic
//! can be regenerated after the fact (the oracle replays regenerate
//! rather than store the request lines). Every request that carries a
//! value carries a literal never sent before in the run, as real
//! traffic does: that keeps the intern arena's per-request growth
//! visible instead of letting repeated requests hit its hash-consing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use ur_query::json::escape;
use ur_studies::{studies, study, Study};
use ur_testutil::{gen, Rng};

/// Operation classes; every latency metric is one class's distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A cold compile: arena reset, `Session::new`, `Session::run_all`.
    Compile,
    /// A `load`/`edit` rebuild request.
    Edit,
    /// An `eval` request that only reads state.
    Eval,
    /// A read-only request (`type`, `db`).
    Read,
    /// An `eval` request that writes the database.
    Write,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Compile => "compile",
            Class::Edit => "edit",
            Class::Eval => "eval",
            Class::Read => "read",
            Class::Write => "write",
        }
    }
}

/// One request line plus what a correct answer must say, when the
/// stream itself determines it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    pub class: Class,
    pub line: String,
    pub expect: Expect,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Checked after the run against an independent replay.
    Replay,
    /// `{"ok":true,"value":V}` with exactly this `V`.
    Value(String),
    /// `{"ok":true,...,"type":T}` with exactly this `T`.
    Type(String),
    /// A `db` report naming the workload's table.
    DbReport,
    /// A clean rebuild (`"diagnostics":[]`).
    CleanLoad,
}

pub fn load_line(src: &str) -> String {
    format!("{{\"cmd\":\"load\",\"source\":\"{}\"}}", escape(src))
}

fn edit_line(src: &str) -> String {
    format!("{{\"cmd\":\"edit\",\"source\":\"{}\"}}", escape(src))
}

fn eval_line(expr: &str) -> String {
    format!("{{\"cmd\":\"eval\",\"expr\":\"{}\"}}", escape(expr))
}

fn type_line(name: &str) -> String {
    format!("{{\"cmd\":\"type\",\"name\":\"{}\"}}", escape(name))
}

/// The combined Figure-5 batch: every study's transitive dependencies
/// (depth-first, deduplicated) and implementation, then every usage
/// demo — the paper's own type-level record computation.
pub fn figure5_batch() -> String {
    fn push_impl(parts: &mut Vec<&'static str>, s: &Study) {
        for dep in s.deps {
            push_impl(parts, &study(dep));
        }
        let src = s.implementation();
        if !parts.contains(&src) {
            parts.push(src);
        }
    }
    let mut parts: Vec<&'static str> = Vec::new();
    let mut usages: Vec<&'static str> = Vec::new();
    for s in studies() {
        push_impl(&mut parts, &s);
        usages.push(s.usage);
    }
    parts.extend(usages);
    parts.join("\n")
}

/// Appends one wide `mkTable` client per entry of `widths`, in a seeded
/// order (which client gets which width), and returns the widths as
/// placed. Record width drives the quadratic row-unification term; the
/// seed permutes a fixed set of widths rather than drawing new ones, so
/// every seed asks for the same amount of work.
fn push_mktable_clients(rng: &mut Rng, widths: &[usize], src: &mut String) -> Vec<usize> {
    let mut widths = widths.to_vec();
    for i in (1..widths.len()).rev() {
        widths.swap(i, rng.below(i + 1));
    }
    for (c, &width) in widths.iter().enumerate() {
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
    widths
}

// ------------------------------------------------------------ cold_compile

/// Distinct programs one `cold_compile` run cycles through.
pub const COMPILE_VARIANTS: usize = 4;

/// The `cold_compile` programs for `seed`: the Figure-5 batch plus
/// seeded wide `mkTable` clients and one generated eval-heavy program.
pub fn compile_sources(seed: u64) -> Vec<String> {
    let batch = figure5_batch();
    let mut rng = Rng::new(seed ^ 0xC0_1D_C0_4B);
    (0..COMPILE_VARIANTS)
        .map(|_| {
            let mut src = batch.clone();
            push_mktable_clients(&mut rng, &[8, 12, 16, 20], &mut src);
            src.push('\n');
            src.push_str(&gen::eval_program(&mut rng, 12, 3).source);
            src
        })
        .collect()
}

/// Which variant each successive compile op uses.
pub struct CompileStream {
    rng: Rng,
}

impl CompileStream {
    pub fn new(seed: u64) -> CompileStream {
        CompileStream {
            rng: Rng::new(seed ^ 0x0B5E_55ED),
        }
    }

    pub fn next_variant(&mut self) -> usize {
        self.rng.below(COMPILE_VARIANTS)
    }
}

// --------------------------------------------------------------- edit_eval

/// Independent editable declarations in the application.
const KNOBS: usize = 24;
/// The window's mix is dealt in blocks of this many requests: 1 edit,
/// 16 evals and 4 type queries in a seeded order. Every stretch of a
/// run thus carries the same share of the costly edits, so throughput,
/// and memory at a fixed op count, do not move with the seed's luck.
const MIX_BLOCK: usize = 21;
/// Rows in the application's dataset.
const DATA_ROWS: usize = 100;
/// Widths of the application's mkTable clients.
const APP_WIDTHS: [usize; 8] = [6, 8, 10, 12, 14, 16, 18, 20];
const APP_CLIENTS: usize = APP_WIDTHS.len();

/// The application an `edit_eval` connection loads: the Figure-5 batch,
/// a 100-row dataset, two spreadsheets, seeded `mkTable` clients, and
/// the knob declarations edits rewrite. Shared by every connection
/// (the disk cache sees one program); the knobs evolve per connection.
#[derive(Clone)]
pub struct App {
    base: String,
    widths: Vec<usize>,
    knobs: Vec<i64>,
}

impl App {
    pub fn new(seed: u64) -> App {
        let mut rng = Rng::new(seed ^ 0xA5_5A_A5_5A);
        let mut base = figure5_batch();
        base.push_str("\nval rows = ");
        for i in 0..DATA_ROWS {
            let _ = write!(
                base,
                "cons {{Id = {i}, A = {}, B = {}}} (",
                rng.below(50),
                if rng.bool_() { "True" } else { "False" }
            );
        }
        base.push_str("nil");
        base.push_str(&")".repeat(DATA_ROWS));
        base.push_str(
            "\nval s = sheet \"Bench\" \
             {Id = {Label = \"Id\", Show = showInt}, \
              A = {Label = \"A\", Show = showInt}, \
              B = {Label = \"B\", Show = showBool}} \
             {DA = {Label = \"2A\", Fn = fn x => 2 * x.A, Show = showInt}} \
             {Sum = {Label = \"Sum\", Init = 0, Step = fn x n => x.A + n, Show = showInt}}\n\
             val s3 = sheet \"Bench3\" \
             {Id = {Label = \"Id\", Show = showInt}, \
              A = {Label = \"A\", Show = showInt}, \
              B = {Label = \"B\", Show = showBool}} \
             {DA = {Label = \"2A\", Fn = fn x => 2 * x.A, Show = showInt}} \
             {Sum = {Label = \"Sum\", Init = 0, Step = fn x n => x.A + n, Show = showInt}, \
              Hi = {Label = \"Hi\", Init = 0, Step = fn x n => if x.A > n then x.A else n, \
                    Show = showInt}, \
              N = {Label = \"N\", Init = 0, Step = fn x n => n + 1, Show = showInt}}",
        );
        let widths = push_mktable_clients(&mut rng, &APP_WIDTHS, &mut base);
        let knobs = (0..KNOBS as i64).collect();
        App {
            base,
            widths,
            knobs,
        }
    }

    pub fn source(&self) -> String {
        let mut src = self.base.clone();
        for (i, v) in self.knobs.iter().enumerate() {
            let _ = write!(src, "\nval knob{i} = {v}");
        }
        src
    }
}

/// One `edit_eval` connection's traffic: after the initial load, a
/// seeded mix of 1 edit : 16 evals : 4 type queries. Every edit
/// sets one knob to a value never sent before; every eval carries
/// fresh parameters.
pub struct EditEvalStream {
    rng: Rng,
    app: App,
    /// Unique per (seed, connection, request): the fresh literal.
    fresh: i64,
    /// What is left of the current block of the mix.
    deck: Vec<usize>,
}

impl EditEvalStream {
    pub fn new(seed: u64, conn: usize) -> EditEvalStream {
        EditEvalStream {
            rng: Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1)),
            app: App::new(seed),
            fresh: (conn as i64 + 1) * 1_000_000_000 + (seed % 1_000_000) as i64 * 1_000,
            deck: Vec::with_capacity(MIX_BLOCK),
        }
    }

    /// The connection's first request: load the application.
    pub fn load(&self) -> Req {
        Req {
            class: Class::Edit,
            line: load_line(&self.app.source()),
            expect: Expect::Replay,
        }
    }

    fn fresh(&mut self) -> i64 {
        self.fresh += 1;
        self.fresh
    }

    /// The window's mix: 1 edit : 16 evals : 4 type queries.
    pub fn next_req(&mut self) -> Req {
        if self.deck.is_empty() {
            self.deck.extend(0..MIX_BLOCK);
            for i in (1..MIX_BLOCK).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        match self.deck.pop() {
            Some(0) => self.next_edit(),
            Some(1..=16) => self.next_eval(),
            _ => self.next_read(),
        }
    }

    /// Sets one knob to a value never sent before.
    pub fn next_edit(&mut self) -> Req {
        let k = self.rng.below(KNOBS);
        self.app.knobs[k] = self.fresh();
        Req {
            class: Class::Edit,
            line: edit_line(&self.app.source()),
            expect: Expect::Replay,
        }
    }

    fn next_eval(&mut self) -> Req {
        let u = self.fresh();
        let expr = match self.rng.below(4) {
            0 => format!(
                "{}.Totals (cons {{Id = {u}, A = {}, B = {}}} rows)",
                if self.rng.bool_() { "s" } else { "s3" },
                self.rng.below(1000),
                if self.rng.bool_() { "True" } else { "False" }
            ),
            1 => format!(
                "foldList (fn x acc => (if x.B then {} * x.A else x.A) + acc) {u} rows",
                1 + self.rng.below(999)
            ),
            2 => {
                let c = self.rng.below(APP_CLIENTS);
                let fields: Vec<String> = (0..self.app.widths[c])
                    .map(|i| format!("F{c}x{i} = {}", u + i as i64))
                    .collect();
                format!("client{c} {{{}}}", fields.join(", "))
            }
            _ => format!("knob{} * 3 + {u}", self.rng.below(KNOBS)),
        };
        Req {
            class: Class::Eval,
            line: eval_line(&expr),
            expect: Expect::Replay,
        }
    }

    fn next_read(&mut self) -> Req {
        let name = match self.rng.below(4) {
            0 => format!("render{}", self.rng.below(APP_CLIENTS)),
            1 => format!("client{}", self.rng.below(APP_CLIENTS)),
            2 => format!("knob{}", self.rng.below(KNOBS)),
            _ => (*self.rng.pick(&["rows", "s", "s3"])).to_string(),
        };
        Req {
            class: Class::Read,
            line: type_line(&name),
            expect: Expect::Replay,
        }
    }
}

// -------------------------------------------------------------- durable_rw

/// Rows the `durable_rw` table holds throughout a run.
pub const TABLE_ROWS: usize = 2_000;
/// Rows per population declaration.
const POPULATE_BATCH: usize = 100;
/// Table name, used in requests and in the `db` report check.
pub const TABLE: &str = "accounts";
/// The table's declaration, the head of every durable session's script.
const TABLE_DECL: &str =
    "val t = createTable \"accounts\" {K = sqlInt, Owner = sqlInt, V = sqlInt}";
/// The type `t` must report (hand-written, not computed by the code
/// under test).
pub const TABLE_TYPE: &str = "sql_table ([#K = int] ++ [#Owner = int] ++ [#V = int])";

/// The initial table contents for `seed`: key → (owner connection, V).
/// Keys are partitioned by connection (`key % conns`).
pub fn initial_rows(seed: u64, conns: usize) -> BTreeMap<i64, (usize, i64)> {
    let mut rng = Rng::new(seed ^ 0x7AB1_E5EE);
    (0..TABLE_ROWS as i64)
        .map(|k| (k, (k as usize % conns, rng.range_i64(0, 1_000_000))))
        .collect()
}

/// The script every durable session loads: the table, then top-level
/// folds that insert `rows`, `POPULATE_BATCH` rows each. Loading it
/// populates the table the way an application's seed data arrives: the
/// load builds the world, and the durable store adopts it in one step.
pub fn table_script(rows: &BTreeMap<i64, (usize, i64)>) -> String {
    let mut src = TABLE_DECL.to_string();
    let all: Vec<_> = rows.iter().collect();
    for (i, chunk) in all.chunks(POPULATE_BATCH).enumerate() {
        let mut list = String::new();
        for (k, (o, v)) in chunk {
            let _ = write!(list, "cons {{K = {k}, O = {o}, V = {v}}} (");
        }
        list.push_str("nil");
        list.push_str(&")".repeat(chunk.len()));
        let _ = write!(
            src,
            "\nval fill{i} = foldList \
             (fn r u => insert t {{K = const r.K, Owner = const r.O, V = const r.V}}) () ({list})"
        );
    }
    src
}

/// Renders the row a point select must return.
fn row_value(k: i64, owner: usize, v: i64) -> String {
    format!("[{{K = {k}, Owner = {owner}, V = {v}}}]")
}

/// One `durable_rw` connection's traffic over its own key partition:
/// ~60% writes (insert, update, or delete by key, every insert followed
/// by a delete so the table keeps its size), ~20% point selects, ~20%
/// snapshot reads. The stream keeps the connection's key model, so
/// every answer is known in advance.
pub struct RwStream {
    rng: Rng,
    conn: usize,
    conns: usize,
    /// key → V for the keys this connection owns.
    model: BTreeMap<i64, i64>,
    live: Vec<i64>,
    next_key: i64,
    delete_due: bool,
    fresh: i64,
    /// The write sent last, applied to the model once acknowledged.
    pending: Option<DbOp>,
    /// A write was lost with its outcome unknown.
    unknown: bool,
}

impl RwStream {
    pub fn new(seed: u64, conn: usize, conns: usize) -> RwStream {
        let model: BTreeMap<i64, i64> = initial_rows(seed, conns)
            .into_iter()
            .filter(|(_, (o, _))| *o == conn)
            .map(|(k, (_, v))| (k, v))
            .collect();
        RwStream {
            rng: Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (conn as u64 + 1)),
            conn,
            conns,
            live: model.keys().copied().collect(),
            model,
            next_key: TABLE_ROWS as i64 + conn as i64,
            delete_due: false,
            fresh: 2_000_000 + (conn as i64) * 1_000_000_000,
            pending: None,
            unknown: false,
        }
    }

    /// The connection's rows as the store must hold them.
    pub fn model(&self) -> &BTreeMap<i64, i64> {
        &self.model
    }

    /// The connection whose key partition this stream works.
    pub fn conn(&self) -> usize {
        self.conn
    }

    /// Whether a write was lost with its outcome unknown, so the key
    /// model can no longer say what the store holds.
    pub fn outcome_unknown(&self) -> bool {
        self.unknown
    }

    /// Records the answer to the request sent last. A write changes the
    /// key model only once acknowledged: a refused write (shed, or
    /// expired before it ran) leaves the store as it was, and a lost one
    /// leaves it unknown.
    pub fn ack(&mut self, resp: &str) {
        if resp.contains("outcome unknown") && self.pending.take().is_some() {
            self.unknown = true;
        }
        self.settle(!is_refusal(resp));
    }

    /// Settles the write sent last: into the key model if `applied`,
    /// otherwise dropped.
    pub fn settle(&mut self, applied: bool) {
        let Some(op) = self.pending.take() else {
            return;
        };
        if !applied {
            return;
        }
        match op {
            DbOp::Insert { k, v, .. } => {
                self.live.push(k);
                self.model.insert(k, v);
                self.delete_due = true;
            }
            DbOp::Update { k, v } => {
                self.model.insert(k, v);
            }
            DbOp::Delete { k } => {
                if let Some(i) = self.live.iter().position(|&x| x == k) {
                    self.live.swap_remove(i);
                }
                self.model.remove(&k);
                self.delete_due = false;
            }
            DbOp::Select { .. } | DbOp::Snapshot => {}
        }
    }

    fn pick_live(&mut self) -> (usize, i64) {
        let i = self.rng.below(self.live.len());
        (i, self.live[i])
    }

    pub fn next_req(&mut self) -> Req {
        self.next_op().0
    }

    /// The next request together with the storage operation it asks for.
    /// The caller must [`RwStream::ack`] its answer before asking for
    /// the next one.
    pub fn next_op(&mut self) -> (Req, DbOp) {
        let roll = self.rng.below(100);
        let (class, op, line, expect) = if roll < 50 || self.delete_due {
            self.fresh += 1;
            let v = self.fresh;
            if self.delete_due {
                let (_, k) = self.pick_live();
                (
                    Class::Write,
                    DbOp::Delete { k },
                    eval_line(&format!("deleteRows t (sqlEq (column [#K]) (const {k}))")),
                    Expect::Value("1".to_string()),
                )
            } else if self.rng.bool_() {
                let k = self.next_key;
                self.next_key += self.conns as i64;
                (
                    Class::Write,
                    DbOp::Insert {
                        k,
                        owner: self.conn,
                        v,
                    },
                    eval_line(&format!(
                        "insert t {{K = const {k}, Owner = const {}, V = const {v}}}",
                        self.conn
                    )),
                    Expect::Value("()".to_string()),
                )
            } else {
                let (_, k) = self.pick_live();
                (
                    Class::Write,
                    DbOp::Update { k, v },
                    eval_line(&format!(
                        "updateRows t {{V = const {v}}} (sqlEq (column [#K]) (const {k}))"
                    )),
                    Expect::Value("1".to_string()),
                )
            }
        } else if roll < 75 {
            let (_, k) = self.pick_live();
            let v = self.model[&k];
            (
                Class::Eval,
                DbOp::Select { k },
                eval_line(&format!("selectAll t (sqlEq (column [#K]) (const {k}))")),
                Expect::Value(row_value(k, self.conn, v)),
            )
        } else if self.rng.bool_() {
            (
                Class::Read,
                DbOp::Snapshot,
                "{\"cmd\":\"db\"}".to_string(),
                Expect::DbReport,
            )
        } else {
            (
                Class::Read,
                DbOp::Snapshot,
                type_line("t"),
                Expect::Type(TABLE_TYPE.to_string()),
            )
        };
        if class == Class::Write {
            self.pending = Some(op);
        }
        (
            Req {
                class,
                line,
                expect,
            },
            op,
        )
    }
}

/// Admission-level refusals: shed, expired before it ran, or lost to a
/// worker restart.
pub fn is_refusal(resp: &str) -> bool {
    resp.contains("\"error\":\"overloaded\"")
        || resp.contains("\"error\":\"deadline_expired\"")
        || resp.contains("outcome unknown")
}

/// The storage operation behind a `durable_rw` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbOp {
    Insert {
        k: i64,
        owner: usize,
        v: i64,
    },
    Update {
        k: i64,
        v: i64,
    },
    Delete {
        k: i64,
    },
    Select {
        k: i64,
    },
    /// A read served from a snapshot (no storage call of its own).
    Snapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit_eval_prefix(seed: u64, conn: usize, n: usize) -> Vec<Req> {
        let mut s = EditEvalStream::new(seed, conn);
        let mut out = vec![s.load()];
        out.extend((0..n).map(|_| s.next_req()));
        out
    }

    /// A stream whose every request is acknowledged.
    fn rw_prefix(seed: u64, conn: usize, n: usize) -> Vec<Req> {
        let mut s = RwStream::new(seed, conn, 2);
        (0..n)
            .map(|_| {
                let r = s.next_req();
                s.ack(ACK);
                r
            })
            .collect()
    }

    const ACK: &str = "{\"ok\":true,\"value\":\"()\"}";

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(edit_eval_prefix(7, 0, 200), edit_eval_prefix(7, 0, 200));
        assert_ne!(edit_eval_prefix(7, 0, 200), edit_eval_prefix(8, 0, 200));
        assert_ne!(edit_eval_prefix(7, 0, 200), edit_eval_prefix(7, 1, 200));
        assert_eq!(rw_prefix(7, 1, 500), rw_prefix(7, 1, 500));
        assert_ne!(rw_prefix(7, 1, 500), rw_prefix(8, 1, 500));
        assert_eq!(compile_sources(3), compile_sources(3));
        assert_ne!(compile_sources(3), compile_sources(4));
        let picks = |seed| {
            let mut s = CompileStream::new(seed);
            (0..64).map(|_| s.next_variant()).collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
    }

    #[test]
    fn requests_carry_fresh_literals() {
        let reqs = edit_eval_prefix(11, 0, 2_000);
        let evals: Vec<&Req> = reqs.iter().filter(|r| r.class == Class::Eval).collect();
        let distinct: std::collections::HashSet<&str> =
            evals.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(
            distinct.len(),
            evals.len(),
            "every eval is a distinct request"
        );
        for block in reqs[1..].chunks_exact(MIX_BLOCK) {
            let count = |c| block.iter().filter(|r| r.class == c).count();
            assert_eq!(
                [count(Class::Edit), count(Class::Eval), count(Class::Read)],
                [1, 16, 4]
            );
        }
        let writes = rw_prefix(11, 0, 2_000);
        let w: Vec<&Req> = writes.iter().filter(|r| r.class == Class::Write).collect();
        let distinct: std::collections::HashSet<&str> = w.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(distinct.len(), w.len(), "every write is a distinct request");
    }

    #[test]
    fn durable_stream_keeps_the_table_size_and_partition() {
        let mut s = RwStream::new(3, 1, 2);
        let start = s.model().len();
        let mut classes = BTreeMap::new();
        for _ in 0..5_000 {
            let r = s.next_req();
            s.ack(ACK);
            *classes.entry(r.class).or_insert(0usize) += 1;
            assert!(s.model().len() == start || s.model().len() == start + 1);
        }
        assert!(
            s.model().keys().all(|k| k % 2 == 1),
            "keys stay in the partition"
        );
        let share = |c| classes.get(&c).copied().unwrap_or(0) as f64 / 5_000.0;
        assert!((0.55..0.65).contains(&share(Class::Write)), "{classes:?}");
        assert!((0.15..0.25).contains(&share(Class::Eval)), "{classes:?}");
        assert!((0.15..0.25).contains(&share(Class::Read)), "{classes:?}");
    }

    #[test]
    fn only_acknowledged_writes_reach_the_key_model() {
        use ur_serve::protocol::{
            deadline_expired_response, lost_request_response, overloaded_response,
        };
        // Every write refused: the model never changes, and every select
        // still expects the initial value.
        let mut s = RwStream::new(5, 0, 2);
        let before = s.model().clone();
        let refusals = [overloaded_response(5, false), deadline_expired_response(5)];
        let mut writes = 0;
        for i in 0..400 {
            let r = s.next_req();
            if let (Class::Eval, Expect::Value(v)) = (r.class, &r.expect) {
                let k: i64 = v["[{K = ".len()..]
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                assert_eq!(v, &row_value(k, 0, before[&k]));
            }
            if r.class == Class::Write {
                writes += 1;
            }
            s.ack(&refusals[i % 2]);
        }
        assert!(writes > 100, "the stream sent writes: {writes}");
        assert_eq!(s.model(), &before);
        assert!(!s.outcome_unknown());
        // A write lost with its outcome unknown is flagged.
        loop {
            let r = s.next_req();
            let write = r.class == Class::Write;
            s.ack(&lost_request_response());
            if write {
                break;
            }
        }
        assert!(s.outcome_unknown());
    }
}
