//! Inference-statistics counters, the instrumentation behind the paper's
//! Figure 5.
//!
//! The paper reports, per case-study component, "how many times the main
//! type inference procedure invoked the disjointness prover, along with how
//! many times inference applied the map-over-identity-function, map
//! distributivity, and map fusion laws". [`Stats`] counts exactly those
//! events (plus a few extra counters useful for the ablation benches).

use std::fmt;

/// Counters incremented by normalization, unification, and the disjointness
/// prover.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Invocations of the disjointness prover on a goal (Fig. 5 "Disj.").
    pub disjoint_prover_calls: u64,
    /// Applications of `map (fn a => a) c = c` (Fig. 5 "Id.").
    pub law_map_identity: u64,
    /// Applications of `map f (c1 ++ c2) = map f c1 ++ map f c2`
    /// (Fig. 5 "Dist.").
    pub law_map_distrib: u64,
    /// Applications of `map f (map g c) = map (fn a => f (g a)) c`
    /// (Fig. 5 "Fuse").
    pub law_map_fusion: u64,
    /// Row normalizations performed.
    pub row_normalizations: u64,
    /// Unification subproblems attempted.
    pub unify_calls: u64,
    /// Constraints postponed at least once.
    pub constraints_postponed: u64,
    /// Folder instances generated automatically (§4.4).
    pub folders_generated: u64,
    /// Reverse-engineering unification successes (§4.2).
    pub reverse_engineered: u64,
    /// `hnf` memo-table hits / misses (see `ur_core::memo`).
    pub hnf_memo_hits: u64,
    pub hnf_memo_misses: u64,
    /// `defeq` memo-table hits / misses.
    pub defeq_memo_hits: u64,
    pub defeq_memo_misses: u64,
    /// Row-normalization memo-table hits / misses.
    pub row_memo_hits: u64,
    pub row_memo_misses: u64,
    /// Disjointness-prover verdict memo hits / misses.
    pub disjoint_memo_hits: u64,
    pub disjoint_memo_misses: u64,
    /// Snapshot of the shared intern arena (filled by
    /// [`Stats::capture_intern`]): canonical nodes, intern hits/misses,
    /// and distinct name literals. Process-global since the arena refactor
    /// (they were per-worker tables before).
    pub intern_nodes: u64,
    pub intern_hits: u64,
    pub intern_misses: u64,
    pub intern_names: u64,
    /// Approximate resident bytes of the shared arena (terms + strings);
    /// a gauge, captured by [`Stats::capture_intern`].
    pub arena_bytes: u64,
    /// Constructor nodes in the most / least loaded arena shard — the
    /// spread is the sharding balance at capture time.
    pub arena_shard_max: u64,
    pub arena_shard_min: u64,
    /// Times an arena shard lock was contended (try-lock failed and the
    /// intern had to block).
    pub arena_contention: u64,
    /// Always 0 (memo tables are per session); kept only because the
    /// repository benchmark reads it.
    pub gmemo_hits: u64,
    /// Always 0 (memo tables are per session); kept only because the
    /// repository benchmark reads it.
    pub gmemo_misses: u64,
    /// Always 0 (elaboration is sequential); kept only because the
    /// repository benchmark reads it.
    pub par_decls: u64,
    /// Always 0 (elaboration is sequential); kept only because the
    /// repository benchmark reads it.
    pub par_workers: u64,
    /// Circuit-breaker activations in `Session` (memo off).
    pub breaker_trips: u64,
    /// Batches that ran degraded because the breaker was open.
    pub breaker_degraded_batches: u64,
    /// Whole-declaration retries after a suspect resource exhaustion.
    pub decl_retries: u64,
    /// Snapshot of the thread-local failpoint counters (filled by
    /// [`Stats::capture_failpoints`]): faults injected and memo entries
    /// rejected by the per-entry integrity check. Always zero without
    /// the `failpoints` feature.
    pub fp_faults_injected: u64,
    pub fp_memo_rejections: u64,
    /// Incremental-engine queries issued (one per declaration per
    /// rebuild; see `ur-query`).
    pub queries_total: u64,
    /// Declarations verified green and reused without re-elaboration.
    pub green_reused: u64,
    /// Declarations recomputed because their inputs changed (red).
    pub red_recomputed: u64,
    /// On-disk cache entries loaded and accepted.
    pub disk_hits: u64,
    /// On-disk cache entries rejected (bad magic/version/env, integrity
    /// mismatch, or undecodable payload) and recomputed instead.
    pub disk_rejections: u64,
    /// On-disk cache store attempts that failed (full disk, permissions,
    /// injected `CacheStore` I/O faults). The cache stays cold for those
    /// entries; this counter makes the failure visible in `:stats`.
    pub disk_store_errs: u64,
    /// Top-level evaluations executed by the bytecode VM (`ur-eval::vm`).
    pub eval_vm_runs: u64,
    /// Top-level evaluations executed by the tree-walking interpreter
    /// (the differential oracle).
    pub eval_interp_runs: u64,
    /// Bytecode instructions dispatched by the VM (including closure
    /// bodies invoked from builtins during interpreter runs).
    pub eval_vm_ops: u64,
    /// Declaration bodies lowered to bytecode chunks.
    pub eval_chunks_compiled: u64,
    /// VM runs served from the per-declaration chunk cache.
    pub eval_chunk_hits: u64,
    /// Wall-clock nanoseconds spent inside top-level VM dispatch loops.
    pub eval_dispatch_ns: u64,
    /// Connections accepted by the `ur-serve` front door (the serve
    /// layer folds its cross-thread gauges into snapshots it hands out;
    /// zero outside `--listen`/`--serve`).
    pub srv_accepted: u64,
    /// Requests admitted to a worker queue.
    pub srv_requests: u64,
    /// Requests or connections shed by admission control (queue full,
    /// connection cap, draining) with an explicit `overloaded` response.
    pub srv_shed: u64,
    /// Requests whose wall-clock deadline expired before or during
    /// execution (answered with a structured E0900-style degradation).
    pub srv_deadline_expired: u64,
    /// Pool workers killed and replaced by the supervisor (wedge or
    /// panic), each restored from snapshot + replay.
    pub srv_worker_restarts: u64,
    /// In-flight requests completed during graceful drain.
    pub srv_drained: u64,
    /// Storage-engine statements executed through an index probe
    /// (copied from the session's `DbStats` by snapshot surfaces; zero
    /// when no database work ran).
    pub db_index_probes: u64,
    /// Storage-engine statements executed as full table scans.
    pub db_full_scans: u64,
    /// Planner fallbacks: scans chosen despite the table having indexes
    /// (float operands, no probeable conjunct).
    pub db_planner_fallbacks: u64,
    /// Reads served from read-only MVCC snapshot handles.
    pub db_snapshot_reads: u64,
    /// Superseded row versions reclaimed at checkpoints.
    pub db_versions_gcd: u64,
}

impl Stats {
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Adds every counter of `other` into `self`, saturating at
    /// `u64::MAX`, so folding many deltas pins a whole-run metric instead
    /// of wrapping it, as [`crate::limits::Fuel`] does.
    pub fn absorb(&mut self, other: &Stats) {
        macro_rules! add {
            ($($field:ident),+ $(,)?) => {
                $(self.$field = self.$field.saturating_add(other.$field);)+
            };
        }
        add!(
            disjoint_prover_calls,
            law_map_identity,
            law_map_distrib,
            law_map_fusion,
            row_normalizations,
            unify_calls,
            constraints_postponed,
            folders_generated,
            reverse_engineered,
            hnf_memo_hits,
            hnf_memo_misses,
            defeq_memo_hits,
            defeq_memo_misses,
            row_memo_hits,
            row_memo_misses,
            disjoint_memo_hits,
            disjoint_memo_misses,
            intern_nodes,
            intern_hits,
            intern_misses,
            intern_names,
            arena_bytes,
            arena_shard_max,
            arena_shard_min,
            arena_contention,
            gmemo_hits,
            gmemo_misses,
            par_decls,
            par_workers,
            breaker_trips,
            breaker_degraded_batches,
            decl_retries,
            fp_faults_injected,
            fp_memo_rejections,
            queries_total,
            green_reused,
            red_recomputed,
            disk_hits,
            disk_rejections,
            disk_store_errs,
            eval_vm_runs,
            eval_interp_runs,
            eval_vm_ops,
            eval_chunks_compiled,
            eval_chunk_hits,
            eval_dispatch_ns,
            srv_accepted,
            srv_requests,
            srv_shed,
            srv_deadline_expired,
            srv_worker_restarts,
            srv_drained,
            db_index_probes,
            db_full_scans,
            db_planner_fallbacks,
            db_snapshot_reads,
            db_versions_gcd,
        );
    }

    /// Copies the shared arena's size and hit/miss counters into this
    /// snapshot (they are process-global, not per-`Cx`, so they are
    /// captured on demand rather than incremented by the judgments).
    /// Also captures the arena gauges (bytes, shard balance, lock
    /// contention).
    pub fn capture_intern(&mut self) {
        let t = crate::intern::table_stats();
        self.intern_nodes = t.nodes;
        self.intern_hits = t.hits;
        self.intern_misses = t.misses;
        self.intern_names = t.names;
        let a = crate::arena::stats();
        self.arena_bytes = a.bytes;
        self.arena_shard_max = a.con_per_shard.iter().copied().max().unwrap_or(0);
        self.arena_shard_min = a.con_per_shard.iter().copied().min().unwrap_or(0);
        self.arena_contention = a.contention;
    }

    /// Copies the thread-local failpoint counters into this snapshot
    /// (like [`Stats::capture_intern`], they are thread-global and
    /// captured on demand). No-op totals without the `failpoints`
    /// feature.
    pub fn capture_failpoints(&mut self) {
        let c = crate::failpoint::counters();
        self.fp_faults_injected = c.total_injected();
        self.fp_memo_rejections = c.integrity_rejections;
    }

    /// The difference `self - earlier`, counter-wise, saturating at zero.
    ///
    /// Counters that ran *backwards* (i.e. `earlier` is not actually an
    /// earlier snapshot of `self`, e.g. because the context was reset
    /// between the two samples) clamp to 0 instead of panicking.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            disjoint_prover_calls: self
                .disjoint_prover_calls
                .saturating_sub(earlier.disjoint_prover_calls),
            law_map_identity: self.law_map_identity.saturating_sub(earlier.law_map_identity),
            law_map_distrib: self.law_map_distrib.saturating_sub(earlier.law_map_distrib),
            law_map_fusion: self.law_map_fusion.saturating_sub(earlier.law_map_fusion),
            row_normalizations: self
                .row_normalizations
                .saturating_sub(earlier.row_normalizations),
            unify_calls: self.unify_calls.saturating_sub(earlier.unify_calls),
            constraints_postponed: self
                .constraints_postponed
                .saturating_sub(earlier.constraints_postponed),
            folders_generated: self.folders_generated.saturating_sub(earlier.folders_generated),
            reverse_engineered: self
                .reverse_engineered
                .saturating_sub(earlier.reverse_engineered),
            hnf_memo_hits: self.hnf_memo_hits.saturating_sub(earlier.hnf_memo_hits),
            hnf_memo_misses: self.hnf_memo_misses.saturating_sub(earlier.hnf_memo_misses),
            defeq_memo_hits: self.defeq_memo_hits.saturating_sub(earlier.defeq_memo_hits),
            defeq_memo_misses: self.defeq_memo_misses.saturating_sub(earlier.defeq_memo_misses),
            row_memo_hits: self.row_memo_hits.saturating_sub(earlier.row_memo_hits),
            row_memo_misses: self.row_memo_misses.saturating_sub(earlier.row_memo_misses),
            disjoint_memo_hits: self
                .disjoint_memo_hits
                .saturating_sub(earlier.disjoint_memo_hits),
            disjoint_memo_misses: self
                .disjoint_memo_misses
                .saturating_sub(earlier.disjoint_memo_misses),
            intern_nodes: self.intern_nodes.saturating_sub(earlier.intern_nodes),
            intern_hits: self.intern_hits.saturating_sub(earlier.intern_hits),
            intern_misses: self.intern_misses.saturating_sub(earlier.intern_misses),
            intern_names: self.intern_names.saturating_sub(earlier.intern_names),
            arena_bytes: self.arena_bytes.saturating_sub(earlier.arena_bytes),
            arena_shard_max: self.arena_shard_max.saturating_sub(earlier.arena_shard_max),
            arena_shard_min: self.arena_shard_min.saturating_sub(earlier.arena_shard_min),
            arena_contention: self.arena_contention.saturating_sub(earlier.arena_contention),
            gmemo_hits: self.gmemo_hits.saturating_sub(earlier.gmemo_hits),
            gmemo_misses: self.gmemo_misses.saturating_sub(earlier.gmemo_misses),
            par_decls: self.par_decls.saturating_sub(earlier.par_decls),
            par_workers: self.par_workers.saturating_sub(earlier.par_workers),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            breaker_degraded_batches: self
                .breaker_degraded_batches
                .saturating_sub(earlier.breaker_degraded_batches),
            decl_retries: self.decl_retries.saturating_sub(earlier.decl_retries),
            fp_faults_injected: self
                .fp_faults_injected
                .saturating_sub(earlier.fp_faults_injected),
            fp_memo_rejections: self
                .fp_memo_rejections
                .saturating_sub(earlier.fp_memo_rejections),
            queries_total: self.queries_total.saturating_sub(earlier.queries_total),
            green_reused: self.green_reused.saturating_sub(earlier.green_reused),
            red_recomputed: self.red_recomputed.saturating_sub(earlier.red_recomputed),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            disk_rejections: self.disk_rejections.saturating_sub(earlier.disk_rejections),
            disk_store_errs: self.disk_store_errs.saturating_sub(earlier.disk_store_errs),
            eval_vm_runs: self.eval_vm_runs.saturating_sub(earlier.eval_vm_runs),
            eval_interp_runs: self.eval_interp_runs.saturating_sub(earlier.eval_interp_runs),
            eval_vm_ops: self.eval_vm_ops.saturating_sub(earlier.eval_vm_ops),
            eval_chunks_compiled: self
                .eval_chunks_compiled
                .saturating_sub(earlier.eval_chunks_compiled),
            eval_chunk_hits: self.eval_chunk_hits.saturating_sub(earlier.eval_chunk_hits),
            eval_dispatch_ns: self.eval_dispatch_ns.saturating_sub(earlier.eval_dispatch_ns),
            srv_accepted: self.srv_accepted.saturating_sub(earlier.srv_accepted),
            srv_requests: self.srv_requests.saturating_sub(earlier.srv_requests),
            srv_shed: self.srv_shed.saturating_sub(earlier.srv_shed),
            srv_deadline_expired: self
                .srv_deadline_expired
                .saturating_sub(earlier.srv_deadline_expired),
            srv_worker_restarts: self
                .srv_worker_restarts
                .saturating_sub(earlier.srv_worker_restarts),
            srv_drained: self.srv_drained.saturating_sub(earlier.srv_drained),
            db_index_probes: self.db_index_probes.saturating_sub(earlier.db_index_probes),
            db_full_scans: self.db_full_scans.saturating_sub(earlier.db_full_scans),
            db_planner_fallbacks: self
                .db_planner_fallbacks
                .saturating_sub(earlier.db_planner_fallbacks),
            db_snapshot_reads: self
                .db_snapshot_reads
                .saturating_sub(earlier.db_snapshot_reads),
            db_versions_gcd: self.db_versions_gcd.saturating_sub(earlier.db_versions_gcd),
        }
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
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "disj={} id={} dist={} fuse={} (rows={} unify={} postponed={} folders={} reveng={})",
            self.disjoint_prover_calls,
            self.law_map_identity,
            self.law_map_distrib,
            self.law_map_fusion,
            self.row_normalizations,
            self.unify_calls,
            self.constraints_postponed,
            self.folders_generated,
            self.reverse_engineered,
        )?;
        write!(
            f,
            " cache[hnf={}/{} defeq={}/{} rows={}/{} disj={}/{}]",
            self.hnf_memo_hits,
            self.hnf_memo_misses,
            self.defeq_memo_hits,
            self.defeq_memo_misses,
            self.row_memo_hits,
            self.row_memo_misses,
            self.disjoint_memo_hits,
            self.disjoint_memo_misses,
        )?;
        write!(
            f,
            " intern[nodes={} names={} hits={} misses={}]",
            self.intern_nodes, self.intern_names, self.intern_hits, self.intern_misses,
        )?;
        let hit_rate = {
            let total = self.intern_hits + self.intern_misses;
            if total == 0 { 0.0 } else { self.intern_hits as f64 * 100.0 / total as f64 }
        };
        write!(
            f,
            " arena[bytes={} shard_max={} shard_min={} contention={} hit_rate={hit_rate:.1}%]",
            self.arena_bytes, self.arena_shard_max, self.arena_shard_min, self.arena_contention,
        )?;
        write!(
            f,
            " heal[decl_retries={} breaker={}/{}]",
            self.decl_retries, self.breaker_trips, self.breaker_degraded_batches,
        )?;
        write!(
            f,
            " faults[injected={} memo_rejected={}]",
            self.fp_faults_injected, self.fp_memo_rejections,
        )?;
        write!(
            f,
            " incr[queries={} green={} red={} disk={}/{} disk_store_err={}]",
            self.queries_total,
            self.green_reused,
            self.red_recomputed,
            self.disk_hits,
            self.disk_rejections,
            self.disk_store_errs,
        )?;
        write!(
            f,
            " eval[vm_runs={} interp_runs={} ops={} chunks={} chunk_hits={} dispatch_ns={}]",
            self.eval_vm_runs,
            self.eval_interp_runs,
            self.eval_vm_ops,
            self.eval_chunks_compiled,
            self.eval_chunk_hits,
            self.eval_dispatch_ns,
        )?;
        write!(
            f,
            " serve[accepted={} requests={} shed={} deadline_expired={} restarts={} drained={}]",
            self.srv_accepted,
            self.srv_requests,
            self.srv_shed,
            self.srv_deadline_expired,
            self.srv_worker_restarts,
            self.srv_drained,
        )?;
        write!(
            f,
            " db[probes={} scans={} fallbacks={} snap_reads={} gcd={}]",
            self.db_index_probes,
            self.db_full_scans,
            self.db_planner_fallbacks,
            self.db_snapshot_reads,
            self.db_versions_gcd,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn absorb_saturates_at_ceiling() {
        let mut a = Stats::new();
        a.unify_calls = u64::MAX - 1;
        let mut b = Stats::new();
        b.unify_calls = 10;
        a.absorb(&b);
        assert_eq!(a.unify_calls, u64::MAX);
    }

    #[test]
    fn display_mentions_healing_and_fault_counters() {
        let s = Stats::new().to_string();
        for key in [
            "heal[decl_retries=",
            "breaker=",
            "faults[injected=",
            "memo_rejected=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn absorb_and_since_cover_healing_counters() {
        let mut a = Stats::new();
        a.decl_retries = 2;
        a.breaker_degraded_batches = u64::MAX - 1;
        let mut b = Stats::new();
        b.decl_retries = 3;
        b.breaker_degraded_batches = 10;
        b.breaker_trips = 1;
        b.fp_faults_injected = 6;
        b.fp_memo_rejections = 7;
        a.absorb(&b);
        assert_eq!(a.decl_retries, 5);
        assert_eq!(a.breaker_degraded_batches, u64::MAX, "saturating add");
        assert_eq!(a.breaker_trips, 1);
        assert_eq!(a.fp_faults_injected, 6);
        assert_eq!(a.fp_memo_rejections, 7);

        let d = a.since(&b);
        assert_eq!(d.decl_retries, 2);
        assert_eq!(d.fp_faults_injected, 0);
        let d2 = b.since(&a);
        assert_eq!(d2.decl_retries, 0, "saturating sub");
    }

    #[test]
    fn display_mentions_incremental_counters() {
        let s = Stats::new().to_string();
        for key in ["incr[queries=", "green=", "red=", "disk=", "disk_store_err="] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn absorb_and_since_cover_disk_store_errs() {
        let mut a = Stats::new();
        a.disk_store_errs = 2;
        let mut b = Stats::new();
        b.disk_store_errs = 3;
        a.absorb(&b);
        assert_eq!(a.disk_store_errs, 5);
        assert_eq!(a.since(&b).disk_store_errs, 2);
        assert_eq!(b.since(&a).disk_store_errs, 0, "saturating sub");
    }

    #[test]
    fn absorb_and_since_cover_incremental_counters() {
        let mut a = Stats::new();
        a.queries_total = 5;
        a.disk_hits = u64::MAX - 1;
        let mut b = Stats::new();
        b.queries_total = 7;
        b.green_reused = 4;
        b.red_recomputed = 3;
        b.disk_hits = 10;
        b.disk_rejections = 2;
        a.absorb(&b);
        assert_eq!(a.queries_total, 12);
        assert_eq!(a.green_reused, 4);
        assert_eq!(a.red_recomputed, 3);
        assert_eq!(a.disk_hits, u64::MAX, "saturating add");
        assert_eq!(a.disk_rejections, 2);

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
            "restarts=",
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
        b.srv_worker_restarts = 4;
        b.srv_drained = 6;
        a.absorb(&b);
        assert_eq!(a.srv_accepted, 7);
        assert_eq!(a.srv_requests, 9);
        assert_eq!(a.srv_shed, u64::MAX, "saturating add");
        assert_eq!(a.srv_deadline_expired, 3);
        assert_eq!(a.srv_worker_restarts, 4);
        assert_eq!(a.srv_drained, 6);

        let d = a.since(&b);
        assert_eq!(d.srv_accepted, 5);
        assert_eq!(d.srv_worker_restarts, 0);
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
    fn capture_failpoints_is_zero_without_faults() {
        let mut s = Stats::new();
        s.fp_faults_injected = 99;
        s.capture_failpoints();
        // No schedule installed on this thread: counters read zero (and
        // with the feature off they are always zero).
        assert_eq!(s.fp_faults_injected, crate::failpoint::counters().total_injected());
        assert_eq!(s.fp_memo_rejections, crate::failpoint::counters().integrity_rejections);
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
}
