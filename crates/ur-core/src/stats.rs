//! Inference-statistics counters, the instrumentation behind the paper's
//! Figure 5.
//!
//! The paper reports, per case-study component, "how many times the main
//! type inference procedure invoked the disjointness prover, along with how
//! many times inference applied the map-over-identity-function, map
//! distributivity, and map fusion laws". [`Stats`] counts exactly those
//! events (plus a few extra counters useful for the ablation benches).
//!
//! Each field is declared once, as one line of the [`telemetry!`] table
//! below; the macro writes the struct, `absorb`, `since` and `Display`
//! from that line.
//!
//! [`telemetry!`]: crate::telemetry

/// Declares a telemetry struct from one table, one line per field: its
/// doc, its kind and its `Display` text.
///
/// * The kind is `counter`, a running total, or `gauge`, a reading taken
///   at capture time.
/// * The `Display` text is a format string for the field's value. The
///   texts are written in table order, so they carry the separators and
///   brackets between fields. A field without one prints nothing.
///   `"..." with method` also passes `self.method()` to the format
///   string.
/// * `with arithmetic` after the struct's name adds `absorb` and `since`,
///   which treat each field by its kind.
///
/// Every field is a public `u64`; the invocation writes the derives.
///
/// ```
/// ur_core::telemetry! {
///     /// Requests served.
///     #[derive(Default)]
///     pub struct Served with arithmetic {
///         /// Requests answered.
///         answered: counter "served[answered={}",
///         /// Connections open when the sample was taken.
///         open: gauge " open={}]",
///     }
/// }
/// let mut total = Served { answered: 3, open: 2 };
/// total.absorb(&Served { answered: 4, open: 1 });
/// assert_eq!(total.to_string(), "served[answered=7 open=1]");
/// ```
#[macro_export]
macro_rules! telemetry {
    (@absorb counter $mine:expr, $other:expr) => { $mine.saturating_add($other) };
    (@absorb gauge $mine:expr, $other:expr) => { $other };
    (@since counter $now:expr, $earlier:expr) => { $now.saturating_sub($earlier) };
    (@since gauge $now:expr, $earlier:expr) => { $now };
    (
        @arithmetic $name:ident
        $( $(#[$doc:meta])* $field:ident: $kind:ident $($text:literal $(with $derived:ident)?)?, )*
    ) => {
        impl $name {
            /// Folds `other`, the newer sample, into `self`: counters add,
            /// saturating at `u64::MAX` so folding many deltas pins a
            /// whole-run metric instead of wrapping it; gauges take
            /// `other`'s reading.
            pub fn absorb(&mut self, other: &$name) {
                $( self.$field = $crate::telemetry!(@absorb $kind self.$field, other.$field); )*
            }

            /// The change from `earlier` to `self`: counters subtract,
            /// saturating at zero (a counter that ran backwards, e.g.
            /// across a context reset, reads 0); gauges keep `self`'s
            /// reading.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: $crate::telemetry!(@since $kind self.$field, earlier.$field), )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident with arithmetic { $($body:tt)* }
    ) => {
        $crate::telemetry! { $(#[$meta])* pub struct $name { $($body)* } }
        $crate::telemetry! { @arithmetic $name $($body)* }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident: $kind:ident $($text:literal $(with $derived:ident)?)?, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                $( $( ::std::write!(f, $text, self.$field $(, self.$derived())?)?; )? )*
                Ok(())
            }
        }
    };
}

telemetry! {
    /// Counters incremented by normalization, unification, and the
    /// disjointness prover, plus readings of the layers around them that
    /// snapshot surfaces capture.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Stats with arithmetic {
        /// Invocations of the disjointness prover on a goal (Fig. 5 "Disj.").
        disjoint_prover_calls: counter "disj={}",
        /// Applications of `map (fn a => a) c = c` (Fig. 5 "Id.").
        law_map_identity: counter " id={}",
        /// Applications of `map f (c1 ++ c2) = map f c1 ++ map f c2`
        /// (Fig. 5 "Dist.").
        law_map_distrib: counter " dist={}",
        /// Applications of `map f (map g c) = map (fn a => f (g a)) c`
        /// (Fig. 5 "Fuse").
        law_map_fusion: counter " fuse={}",
        /// Row normalizations performed.
        row_normalizations: counter " (rows={}",
        /// Unification subproblems attempted.
        unify_calls: counter " unify={}",
        /// Constraints postponed at least once.
        constraints_postponed: counter " postponed={}",
        /// Folder instances generated automatically (§4.4).
        folders_generated: counter " folders={}",
        /// Reverse-engineering unification successes (§4.2).
        reverse_engineered: counter " reveng={})",
        /// `hnf` memo-table hits (see `ur_core::memo`).
        hnf_memo_hits: counter " cache[hnf={}",
        /// `hnf` memo-table misses.
        hnf_memo_misses: counter "/{}",
        /// `defeq` memo-table hits.
        defeq_memo_hits: counter " defeq={}",
        /// `defeq` memo-table misses.
        defeq_memo_misses: counter "/{}",
        /// Row-normalization memo-table hits.
        row_memo_hits: counter " rows={}",
        /// Row-normalization memo-table misses.
        row_memo_misses: counter "/{}",
        /// Disjointness-prover verdict memo hits.
        disjoint_memo_hits: counter " disj={}",
        /// Disjointness-prover verdict memo misses.
        disjoint_memo_misses: counter "/{}]",
        /// Canonical term nodes (constructors and expressions) in the
        /// process-global intern arena, read by [`Stats::capture_intern`].
        intern_nodes: gauge " intern[nodes={}",
        /// Distinct strings in the arena (labels, symbol names, literals).
        intern_names: gauge " names={}",
        /// Arena intern requests answered by an existing node.
        intern_hits: counter " hits={}",
        /// Arena intern requests that allocated a new node.
        intern_misses: counter " misses={}]",
        /// Bytes the arena holds: slots of published terms, hash-cons
        /// table buckets, and strings (see [`crate::arena::ArenaStats::bytes`]).
        arena_bytes: gauge " arena[bytes={}",
        /// Constructor nodes in the most loaded arena shard.
        arena_shard_max: gauge " shard_max={}",
        /// Constructor nodes in the least loaded arena shard; the spread
        /// to `arena_shard_max` is the sharding balance.
        arena_shard_min: gauge " shard_min={}",
        /// Times an arena shard lock was contended (try-lock failed and
        /// the intern had to block); printed with the intern hit rate.
        arena_contention: counter " contention={} hit_rate={:.1}%]" with intern_hit_pct,
        /// Always 0 (memo tables are per session); kept only because the
        /// repository benchmark reads it.
        gmemo_hits: counter,
        /// Always 0 (memo tables are per session); kept only because the
        /// repository benchmark reads it.
        gmemo_misses: counter,
        /// Always 0 (elaboration is sequential); kept only because the
        /// repository benchmark reads it.
        par_decls: counter,
        /// Always 0 (elaboration is sequential); kept only because the
        /// repository benchmark reads it.
        par_workers: counter,
        /// Faults injected across all sites, read from this thread's
        /// failpoint counters by [`Stats::capture_failpoints`]. Always
        /// zero without the `failpoints` feature.
        fp_faults_injected: counter " faults[injected={}]",
        /// Incremental-engine queries issued (one per declaration per
        /// rebuild; see `ur-query`).
        queries_total: counter " incr[queries={}",
        /// Declarations verified green and reused without re-elaboration.
        green_reused: counter " green={}",
        /// Declarations recomputed because their inputs changed (red).
        red_recomputed: counter " red={}]",
        /// Top-level evaluations executed by the bytecode VM (`ur-eval::vm`).
        eval_vm_runs: counter " eval[vm_runs={}",
        /// Top-level evaluations executed by the tree-walking interpreter
        /// (the differential oracle).
        eval_interp_runs: counter " interp_runs={}",
        /// Applications charged against evaluation fuel (one per
        /// application of a value to an argument, a constructor or `!`),
        /// summed over top-level evaluations; both engines charge the
        /// same steps for the same program.
        eval_steps: counter " steps={}",
        /// Bytecode instructions dispatched by the VM (including closure
        /// bodies invoked from builtins during interpreter runs).
        eval_vm_ops: counter " ops={}",
        /// Declaration bodies lowered to bytecode chunks.
        eval_chunks_compiled: counter " chunks={}",
        /// VM runs served from the per-declaration chunk cache.
        eval_chunk_hits: counter " chunk_hits={}",
        /// Wall-clock nanoseconds spent inside top-level VM dispatch loops.
        eval_dispatch_ns: counter " dispatch_ns={}]",
        /// Connections accepted by the `ur-serve` front door (the serve
        /// layer folds its cross-thread counters into snapshots it hands
        /// out; zero outside `--listen`/`--serve`).
        srv_accepted: counter " serve[accepted={}",
        /// Requests admitted to a worker queue.
        srv_requests: counter " requests={}",
        /// Requests or connections shed by admission control (queue full,
        /// connection cap, draining) with an explicit `overloaded` response.
        srv_shed: counter " shed={}",
        /// Requests whose wall-clock deadline expired before or during
        /// execution (answered with a structured E0900-style degradation).
        srv_deadline_expired: counter " deadline_expired={}",
        /// In-flight requests completed during graceful drain.
        srv_drained: counter " drained={}]",
        /// Storage-engine statements executed through an index probe
        /// (copied from the session's `DbStats` by snapshot surfaces; zero
        /// when no database work ran).
        db_index_probes: counter " db[probes={}",
        /// Storage-engine statements executed as full table scans.
        db_full_scans: counter " scans={}",
        /// Planner fallbacks: scans chosen despite the table having indexes
        /// (float operands, no probeable conjunct).
        db_planner_fallbacks: counter " fallbacks={}",
        /// Reads served from read-only MVCC snapshot handles.
        db_snapshot_reads: counter " snap_reads={}",
        /// Superseded row versions reclaimed at checkpoints.
        db_versions_gcd: counter " gcd={}]",
    }
}

impl Stats {
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Copies the shared arena's size, hit/miss and shard counters into
    /// this snapshot. The arena is process-global, not per-`Cx`, so they
    /// are captured on demand rather than incremented by the judgments.
    pub fn capture_intern(&mut self) {
        let a = crate::arena::stats();
        self.intern_nodes = a.con_nodes + a.expr_nodes;
        self.intern_names = a.strings;
        self.intern_hits = a.hits;
        self.intern_misses = a.misses;
        self.arena_bytes = a.bytes;
        self.arena_shard_max = a.con_per_shard.iter().copied().max().unwrap_or(0);
        self.arena_shard_min = a.con_per_shard.iter().copied().min().unwrap_or(0);
        self.arena_contention = a.contention;
    }

    /// Copies the thread-local failpoint counters into this snapshot
    /// (like [`Stats::capture_intern`], they are captured on demand).
    /// No-op totals without the `failpoints` feature.
    pub fn capture_failpoints(&mut self) {
        let c = crate::failpoint::counters();
        self.fp_faults_injected = c.total_injected();
    }

    /// Copies the storage-engine planner/MVCC counters out of a
    /// database's [`DbStats`]-shaped numbers (passed as plain values so
    /// `ur-core` stays independent of `ur-db`). Snapshot surfaces call
    /// this with the session database's live counters.
    pub fn capture_db(&mut self, probes: u64, scans: u64, fallbacks: u64, snap_reads: u64, gcd: u64) {
        self.db_index_probes = probes;
        self.db_full_scans = scans;
        self.db_planner_fallbacks = fallbacks;
        self.db_snapshot_reads = snap_reads;
        self.db_versions_gcd = gcd;
    }

    /// Percentage of arena intern requests answered by an existing node.
    fn intern_hit_pct(&self) -> f64 {
        let total = self.intern_hits.saturating_add(self.intern_misses);
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 * 100.0 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Stats` whose field at 1-based position `i` of the original
    /// declaration order holds `v(i)`.
    fn filled(v: impl Fn(u64) -> u64) -> Stats {
        Stats {
            disjoint_prover_calls: v(1),
            law_map_identity: v(2),
            law_map_distrib: v(3),
            law_map_fusion: v(4),
            row_normalizations: v(5),
            unify_calls: v(6),
            constraints_postponed: v(7),
            folders_generated: v(8),
            reverse_engineered: v(9),
            hnf_memo_hits: v(10),
            hnf_memo_misses: v(11),
            defeq_memo_hits: v(12),
            defeq_memo_misses: v(13),
            row_memo_hits: v(14),
            row_memo_misses: v(15),
            disjoint_memo_hits: v(16),
            disjoint_memo_misses: v(17),
            intern_nodes: v(18),
            intern_hits: v(19),
            intern_misses: v(20),
            intern_names: v(21),
            arena_bytes: v(22),
            arena_shard_max: v(23),
            arena_shard_min: v(24),
            arena_contention: v(25),
            gmemo_hits: v(26),
            gmemo_misses: v(27),
            par_decls: v(28),
            par_workers: v(29),
            fp_faults_injected: v(30),
            queries_total: v(31),
            green_reused: v(32),
            red_recomputed: v(33),
            eval_vm_runs: v(34),
            eval_interp_runs: v(35),
            eval_steps: v(36),
            eval_vm_ops: v(37),
            eval_chunks_compiled: v(38),
            eval_chunk_hits: v(39),
            eval_dispatch_ns: v(40),
            srv_accepted: v(41),
            srv_requests: v(42),
            srv_shed: v(43),
            srv_deadline_expired: v(44),
            srv_drained: v(45),
            db_index_probes: v(46),
            db_full_scans: v(47),
            db_planner_fallbacks: v(48),
            db_snapshot_reads: v(49),
            db_versions_gcd: v(50),
        }
    }

    /// Positions (in [`filled`]) of the gauges: `intern_nodes`,
    /// `intern_names`, `arena_bytes`, `arena_shard_max`, `arena_shard_min`.
    const GAUGES: [u64; 5] = [18, 21, 22, 23, 24];

    #[test]
    fn display_matches_the_golden_line() {
        assert_eq!(
            filled(|i| i).to_string(),
            "disj=1 id=2 dist=3 fuse=4 (rows=5 unify=6 postponed=7 folders=8 reveng=9) \
             cache[hnf=10/11 defeq=12/13 rows=14/15 disj=16/17] \
             intern[nodes=18 names=21 hits=19 misses=20] \
             arena[bytes=22 shard_max=23 shard_min=24 contention=25 hit_rate=48.7%] \
             faults[injected=30] \
             incr[queries=31 green=32 red=33] \
             eval[vm_runs=34 interp_runs=35 steps=36 ops=37 chunks=38 chunk_hits=39 \
             dispatch_ns=40] \
             serve[accepted=41 requests=42 shed=43 deadline_expired=44 drained=45] \
             db[probes=46 scans=47 fallbacks=48 snap_reads=49 gcd=50]"
        );
    }

    #[test]
    fn absorb_and_since_treat_each_field_by_its_kind() {
        let gauge = |i: u64| GAUGES.contains(&i);
        let (a, b) = (filled(|i| 1000 + i), filled(|i| i));
        // absorb: counters add, saturating; gauges take `other`'s reading.
        let mut sum = a.clone();
        sum.absorb(&b);
        assert_eq!(sum, filled(|i| if gauge(i) { i } else { 1000 + 2 * i }));
        let mut pinned = filled(|_| u64::MAX);
        pinned.absorb(&b);
        assert_eq!(pinned, filled(|i| if gauge(i) { i } else { u64::MAX }));
        // since: counters subtract, saturating at zero; gauges keep
        // `self`'s reading.
        assert_eq!(
            a.since(&b),
            filled(|i| if gauge(i) { 1000 + i } else { 1000 })
        );
        assert_eq!(b.since(&a), filled(|i| if gauge(i) { i } else { 0 }));
    }

    #[test]
    fn absorb_adds() {
        let mut a = Stats::new();
        a.disjoint_prover_calls = 3;
        let mut b = Stats::new();
        b.disjoint_prover_calls = 4;
        b.law_map_fusion = 1;
        a.absorb(&b);
        assert_eq!(a.disjoint_prover_calls, 7);
        assert_eq!(a.law_map_fusion, 1);
    }

    #[test]
    fn since_subtracts() {
        let mut early = Stats::new();
        early.unify_calls = 10;
        let mut late = early.clone();
        late.unify_calls = 25;
        late.law_map_identity = 2;
        let d = late.since(&early);
        assert_eq!(d.unify_calls, 15);
        assert_eq!(d.law_map_identity, 2);
    }

    #[test]
    fn since_saturates_when_earlier_is_ahead() {
        // Regression: `since` used to panic when `earlier` was not in fact
        // an earlier snapshot (counters ran backwards, e.g. after a
        // context reset). It must clamp to zero instead.
        let mut early = Stats::new();
        early.unify_calls = 50;
        early.disjoint_prover_calls = 9;
        let mut late = Stats::new();
        late.unify_calls = 10;
        late.law_map_identity = 3;
        let d = late.since(&early);
        assert_eq!(d.unify_calls, 0);
        assert_eq!(d.disjoint_prover_calls, 0);
        assert_eq!(d.law_map_identity, 3);
    }

    #[test]
    fn absorb_saturates_at_ceiling() {
        let mut a = Stats::new();
        a.unify_calls = u64::MAX - 1;
        let mut b = Stats::new();
        b.unify_calls = 10;
        a.absorb(&b);
        assert_eq!(a.unify_calls, u64::MAX);
    }

    #[test]
    fn display_mentions_all_figure5_columns() {
        let s = Stats::new().to_string();
        for key in ["disj=", "id=", "dist=", "fuse="] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn display_mentions_cache_and_intern_counters() {
        let s = Stats::new().to_string();
        for key in ["cache[hnf=", "defeq=", "rows=", "intern[nodes=", "names="] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn display_mentions_fault_counters() {
        let mut s = Stats::new();
        s.fp_faults_injected = 4;
        assert!(s.to_string().contains(" faults[injected=4]"), "{s}");
    }

    #[test]
    fn absorb_and_since_cover_fault_counters() {
        let mut a = Stats::new();
        a.fp_faults_injected = u64::MAX - 1;
        let mut b = Stats::new();
        b.fp_faults_injected = 6;
        a.absorb(&b);
        assert_eq!(a.fp_faults_injected, u64::MAX, "saturating add");
        assert_eq!(a.since(&b).fp_faults_injected, u64::MAX - 6);
        assert_eq!(b.since(&a).fp_faults_injected, 0, "saturating sub");
    }

    #[test]
    fn display_mentions_incremental_counters() {
        let s = Stats::new().to_string();
        for key in ["incr[queries=", "green=", "red="] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn absorb_and_since_cover_incremental_counters() {
        let mut a = Stats::new();
        a.queries_total = 5;
        a.red_recomputed = u64::MAX - 1;
        let mut b = Stats::new();
        b.queries_total = 7;
        b.green_reused = 4;
        b.red_recomputed = 3;
        a.absorb(&b);
        assert_eq!(a.queries_total, 12);
        assert_eq!(a.green_reused, 4);
        assert_eq!(a.red_recomputed, u64::MAX, "saturating add");

        let d = a.since(&b);
        assert_eq!(d.queries_total, 5);
        assert_eq!(d.green_reused, 0);
        let d2 = b.since(&a);
        assert_eq!(d2.queries_total, 0, "saturating sub");
    }

    #[test]
    fn display_mentions_eval_counters() {
        let s = Stats::new().to_string();
        for key in [
            "eval[vm_runs=",
            "interp_runs=",
            "steps=",
            "ops=",
            "chunks=",
            "chunk_hits=",
            "dispatch_ns=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn absorb_and_since_cover_eval_counters() {
        let mut a = Stats::new();
        a.eval_vm_runs = 5;
        a.eval_vm_ops = u64::MAX - 1;
        let mut b = Stats::new();
        b.eval_vm_runs = 2;
        b.eval_interp_runs = 3;
        b.eval_vm_ops = 10;
        b.eval_chunks_compiled = 4;
        b.eval_chunk_hits = 6;
        b.eval_dispatch_ns = 123;
        a.absorb(&b);
        assert_eq!(a.eval_vm_runs, 7);
        assert_eq!(a.eval_interp_runs, 3);
        assert_eq!(a.eval_vm_ops, u64::MAX, "saturating add");
        assert_eq!(a.eval_chunks_compiled, 4);
        assert_eq!(a.eval_chunk_hits, 6);
        assert_eq!(a.eval_dispatch_ns, 123);

        let d = a.since(&b);
        assert_eq!(d.eval_vm_runs, 5);
        assert_eq!(d.eval_chunks_compiled, 0);
        let d2 = b.since(&a);
        assert_eq!(d2.eval_vm_runs, 0, "saturating sub");
    }

    #[test]
    fn display_mentions_serve_counters() {
        let s = Stats::new().to_string();
        for key in [
            "serve[accepted=",
            "requests=",
            "shed=",
            "deadline_expired=",
            "drained=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn absorb_and_since_cover_serve_counters() {
        let mut a = Stats::new();
        a.srv_accepted = 5;
        a.srv_shed = u64::MAX - 1;
        let mut b = Stats::new();
        b.srv_accepted = 2;
        b.srv_requests = 9;
        b.srv_shed = 10;
        b.srv_deadline_expired = 3;
        b.srv_drained = 6;
        a.absorb(&b);
        assert_eq!(a.srv_accepted, 7);
        assert_eq!(a.srv_requests, 9);
        assert_eq!(a.srv_shed, u64::MAX, "saturating add");
        assert_eq!(a.srv_deadline_expired, 3);
        assert_eq!(a.srv_drained, 6);

        let d = a.since(&b);
        assert_eq!(d.srv_accepted, 5);
        assert_eq!(d.srv_drained, 0);
        let d2 = b.since(&a);
        assert_eq!(d2.srv_accepted, 0, "saturating sub");
    }

    #[test]
    fn display_mentions_db_counters() {
        let s = Stats::new().to_string();
        for key in [
            "db[probes=",
            "scans=",
            "fallbacks=",
            "snap_reads=",
            "gcd=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn absorb_since_and_capture_cover_db_counters() {
        let mut a = Stats::new();
        a.db_index_probes = 5;
        a.db_full_scans = u64::MAX - 1;
        let mut b = Stats::new();
        b.db_index_probes = 2;
        b.db_full_scans = 10;
        b.db_planner_fallbacks = 3;
        b.db_snapshot_reads = 4;
        b.db_versions_gcd = 6;
        a.absorb(&b);
        assert_eq!(a.db_index_probes, 7);
        assert_eq!(a.db_full_scans, u64::MAX, "saturating add");
        assert_eq!(a.db_planner_fallbacks, 3);
        assert_eq!(a.db_snapshot_reads, 4);
        assert_eq!(a.db_versions_gcd, 6);

        let d = a.since(&b);
        assert_eq!(d.db_index_probes, 5);
        assert_eq!(d.db_planner_fallbacks, 0);
        let d2 = b.since(&a);
        assert_eq!(d2.db_index_probes, 0, "saturating sub");

        let mut c = Stats::new();
        c.capture_db(1, 2, 3, 4, 5);
        assert_eq!(
            (
                c.db_index_probes,
                c.db_full_scans,
                c.db_planner_fallbacks,
                c.db_snapshot_reads,
                c.db_versions_gcd
            ),
            (1, 2, 3, 4, 5)
        );
    }

    #[test]
    fn display_mentions_arena_and_global_memo_counters() {
        let s = Stats::new().to_string();
        for key in [
            "arena[bytes=",
            "shard_max=",
            "shard_min=",
            "contention=",
            "hit_rate=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn capture_failpoints_is_zero_without_faults() {
        let mut s = Stats::new();
        s.fp_faults_injected = 99;
        s.capture_failpoints();
        // No schedule installed on this thread: counters read zero (and
        // with the feature off they are always zero).
        assert_eq!(s.fp_faults_injected, crate::failpoint::counters().total_injected());
    }

    #[test]
    fn capture_intern_reads_live_table() {
        use crate::con::Con;
        // Force at least one arena node to exist.
        let _ = Con::arrow(Con::int(), Con::bool_());
        let mut s = Stats::new();
        s.capture_intern();
        assert!(s.intern_nodes > 0);
        assert!(s.arena_bytes > 0, "arena gauge must be captured");
        assert!(s.arena_shard_max >= s.arena_shard_min);
    }
}
