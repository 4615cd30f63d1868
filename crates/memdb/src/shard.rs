//! Sharded multi-core execution.
//!
//! The paper measures a single processor; its closing question is where
//! time would go as engines scale out. This module adds the first scaling
//! axis: hash-partition every table across `N` shards, give each shard its
//! own buffer pool and its own deterministic [`wdtg_sim::Cpu`], run each
//! query on every shard, and merge.
//!
//! # One router, two schedulers
//!
//! Every sharded statement goes through one router
//! (`ShardedDatabase::route`, over a [`BoundStatement`]), which hands a
//! per-shard closure to one of two schedulers: a loop on the caller's
//! thread ([`ShardedDatabase::run`] / [`ShardedDatabase::run_grouped`]) or
//! [`crate::parallel`]'s work-stealing OS-thread pool
//! ([`ShardedDatabase::run_parallel`] /
//! [`ShardedDatabase::run_grouped_parallel`]). The loop runs shards in
//! shard order, unmorselized, and stops at the first failed shard; the pool
//! morselizes each shard's scan and runs every shard. Merge rules, refusals,
//! retry policy and the surfaced error (first in shard order) are the
//! router's, so they are the same under both. Each per-shard attempt
//! crosses the engine's one entry gate (`Database::gated`).
//!
//! [`crate::Session`] always executes through this router on the caller's
//! thread: `Session::open` wraps its database as the only shard of a
//! [`ShardedDatabase`] (no re-partition, same simulated addresses), so a
//! one-shard session behaves the same however it was opened. In particular,
//! under an armed [`FaultPlan`] its statements draw [`FaultSite::ShardExec`]
//! and retry transient faults exactly as a many-shard session does. Knob
//! settings reach every shard as one [`PhysicalConfig`]
//! ([`ShardedDatabase::configure`]).
//!
//! # Shard routing
//!
//! ```text
//!              rows of table T (shard key column k)
//!                              │
//!              h = key × 0x9e3779b97f4a7c15  (radix-join hash)
//!              shard = high 32 bits of h  mod  N
//!        ┌─────────────┬───────┴──────┬─────────────┐
//!        ▼             ▼              ▼             ▼
//!   ┌─────────┐   ┌─────────┐   ┌─────────┐   ┌─────────┐
//!   │ shard 0 │   │ shard 1 │   │   ...   │   │ shard N │   one Database
//!   │ Cpu+bufp│   │ Cpu+bufp│   │         │   │ Cpu+bufp│   per shard
//!   └────┬────┘   └────┬────┘   └────┬────┘   └────┬────┘
//!        │ partial      │ partial     │             │
//!        └──────┬───────┴─────────────┴─────────────┘
//!               ▼
//!     AggState::merge (integer-exact) → final value, computed once
//! ```
//!
//! The router takes the *high* bits of the same multiplicative hash the
//! radix-partitioned join scatters with — so inside each shard
//! [`crate::exec::join_partitioned`]'s low-bit scatter still sees full
//! entropy, and the two layers of radix routing compose instead of
//! aliasing.
//!
//! # Merge rules
//!
//! * **Aggregates** (`SelectAgg`, `JoinAgg` and grouped statements): each
//!   shard produces an exact partial (`Database::agg_partial`) — one
//!   [`AggState`](crate::AggState), or one per group key — and the router
//!   merges them in one arm with integer arithmetic, key by key, and
//!   renders the final floats once: an N-shard answer is bit-identical to
//!   the 1-shard answer, groups in ascending key order.
//! * **Joins**: each shard joins locally, which is only correct when both
//!   sides are *co-partitioned* on their join keys; the router checks the
//!   declared shard keys ([`Database::set_shard_key`]) and refuses the plan
//!   otherwise.
//! * **Point reads** broadcast; a read whose key matches rows on more
//!   than one shard (possible only when the lookup column is not the
//!   shard key) is refused — its "first match" value would be
//!   shard-order-defined. **Updates** broadcast and apply exactly (the
//!   returned last-value scalar is shard-order-defined under cross-shard
//!   duplicates); **inserts** route by the shard key.
//! * **Time**: each shard is its own simulated core, so no host schedule —
//!   sequential loop or thread pool — can perturb a counter; the merged
//!   wall clock of a "parallel" phase is the *max* of per-core cycle deltas
//!   ([`wdtg_sim::merge_cores`]), while counters and stall ledgers *sum*.
//!   `tests/determinism.rs` stays honest: identical builds produce
//!   cycle-exact, bit-identical merged snapshots.

use wdtg_sim::{merge_cores, CoreMerge, Snapshot};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::partial::{groups, scalar, Partial};
use crate::exec::PhysicalConfig;
use crate::fault::{CancelToken, FaultPlan, FaultSite, ResourceBudget, RobustnessStats};
use crate::parallel::{run_jobs_parallel, ParallelConfig};
use crate::query::{AggSpec, BoundStatement, Query, QueryPredicate, QueryResult};

/// How many times the router attempts one shard's sub-query before giving
/// up (first try + two retries).
const MAX_SHARD_ATTEMPTS: u32 = 3;

/// Router-level robustness counters: what the shard retry loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Individual retry attempts issued after a transient shard failure.
    pub retries: u64,
    /// Shard sub-queries that ultimately succeeded after >= 1 retry.
    pub recovered: u64,
    /// Shard sub-queries that exhausted their attempts and failed the
    /// merged query ([`DbError::ShardFailed`]).
    pub failed: u64,
}

impl RouterStats {
    /// Folds another router's counters in (the parallel executor keeps one
    /// [`RouterStats`] per in-flight shard task and merges in shard order).
    pub fn absorb(&mut self, other: &RouterStats) {
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.failed += other.failed;
    }
}

/// Runs one read-only shard sub-query with bounded deterministic retry:
/// an injected [`FaultSite::ShardExec`] hit (drawn before each attempt)
/// or a transient error from the shard is retried up to
/// [`MAX_SHARD_ATTEMPTS`] times, charging an exponential backoff spin on
/// the shard's own simulated core between attempts. Non-transient errors
/// propagate unchanged; exhaustion surfaces as [`DbError::ShardFailed`]
/// wrapping the last cause.
fn run_with_retry<T>(
    shard: &mut Database,
    shard_no: usize,
    stats: &mut RouterStats,
    mut op: impl FnMut(&mut Database) -> DbResult<T>,
) -> DbResult<T> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = if shard.ctx.fault.should_fault(FaultSite::ShardExec) {
            Err(DbError::ShardFault { shard: shard_no })
        } else {
            op(shard)
        };
        match result {
            Ok(v) => {
                if attempt > 1 {
                    stats.recovered += 1;
                }
                return Ok(v);
            }
            Err(e) if e.is_transient() => {
                if attempt < MAX_SHARD_ATTEMPTS {
                    stats.retries += 1;
                    shard.charge_backoff(attempt);
                } else {
                    stats.failed += 1;
                    return Err(DbError::ShardFailed {
                        shard: shard_no,
                        attempts: attempt,
                        cause: Box::new(e),
                    });
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs one *mutating* shard sub-query under fault injection. Mutations
/// are never retried: a failed attempt may have partially applied, and a
/// blind re-run could double-apply its effect — the router surfaces
/// [`DbError::ShardFailed`] after a single attempt instead.
fn run_mutation<T>(
    shard: &mut Database,
    shard_no: usize,
    stats: &mut RouterStats,
    op: impl FnOnce(&mut Database) -> DbResult<T>,
) -> DbResult<T> {
    if shard.ctx.fault.should_fault(FaultSite::ShardExec) {
        stats.failed += 1;
        return Err(DbError::ShardFailed {
            shard: shard_no,
            attempts: 1,
            cause: Box::new(DbError::ShardFault { shard: shard_no }),
        });
    }
    op(shard)
}

/// Shard index of `key` among `n` shards: high 32 bits of the radix-join
/// multiplicative hash, mod `n`. Pure and deterministic.
pub(crate) fn shard_of(key: i32, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let h = (key as u32 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((h >> 32) % n as u64) as usize
}

/// A database hash-partitioned across `N` single-core shards (see the
/// module docs for the router and merge rules). Built with
/// [`Database::shard`].
#[derive(Debug)]
pub struct ShardedDatabase {
    pub(crate) shards: Vec<Database>,
    pub(crate) stats: RouterStats,
}

impl ShardedDatabase {
    pub(crate) fn from_shards(shards: Vec<Database>) -> ShardedDatabase {
        assert!(!shards.is_empty(), "a sharded database needs >= 1 shard");
        ShardedDatabase {
            shards,
            stats: RouterStats::default(),
        }
    }

    /// Number of shards (simulated cores).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in routing order (read access for counters/snapshots).
    pub fn shards(&self) -> &[Database] {
        &self.shards
    }

    /// Applies one knob setting to every shard ([`PhysicalConfig::apply`]).
    pub fn configure(&mut self, config: PhysicalConfig) {
        for s in &mut self.shards {
            config.apply(s);
        }
    }

    /// Turns instrumentation on/off on every shard (bulk phases).
    pub fn set_instrument(&mut self, on: bool) {
        for s in &mut self.shards {
            s.ctx.instrument = on;
        }
    }

    /// Applies `plan` across the shards, salting the seed per shard
    /// ([`FaultPlan::for_shard`]) so shards draw independent — but still
    /// bit-reproducible — fault sequences rather than faulting in lockstep.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.set_fault_plan(plan.for_shard(i));
        }
    }

    /// Applies a per-query [`ResourceBudget`] to every shard (each shard
    /// enforces it against its own arenas and simulated core).
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        for s in &mut self.shards {
            s.set_budget(budget);
        }
    }

    /// Fault/guardrail counters aggregated across all shards.
    pub fn robustness_stats(&self) -> RobustnessStats {
        let mut total = RobustnessStats::default();
        for s in &self.shards {
            total.absorb(&s.robustness_stats());
        }
        total
    }

    /// Clears every shard's fault/guardrail counters (fault-draw positions
    /// are kept, so injection sequences stay reproducible).
    pub fn reset_robustness_stats(&mut self) {
        for s in &mut self.shards {
            s.reset_robustness_stats();
        }
    }

    /// Router-level retry/recovery counters (see [`RouterStats`]).
    pub fn router_stats(&self) -> RouterStats {
        self.stats
    }

    /// Clears the router-level retry/recovery counters.
    pub fn reset_router_stats(&mut self) {
        self.stats = RouterStats::default();
    }

    /// One [`Snapshot`] per shard, in shard order — the `before` side of a
    /// merged measurement (see [`ShardedDatabase::merged_delta`]).
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.shards.iter().map(|s| s.cpu().snapshot()).collect()
    }

    /// Per-core deltas since `before` merged into totals + wall clock:
    /// counters and stall cycles sum across shards, wall cycles are the
    /// slowest shard's delta ([`wdtg_sim::merge_cores`]).
    pub fn merged_delta(&self, before: &[Snapshot]) -> CoreMerge {
        let deltas: Vec<Snapshot> = self
            .shards
            .iter()
            .zip(before)
            .map(|(s, b)| s.cpu().snapshot().delta(b))
            .collect();
        merge_cores(&deltas)
    }

    /// Simulated wall clock so far: the max of per-shard cycle counters
    /// (the slowest core finishes last).
    pub fn wall_cycles(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.cpu().cycles())
            .fold(0.0, f64::max)
    }

    /// A sharded join is computed shard-locally, which is only correct when
    /// matching rows co-locate: both tables sharded on their join keys.
    fn check_join_co_partitioning(&self, stmt: &BoundStatement) -> DbResult<()> {
        let BoundStatement::Scalar(Query::JoinAgg {
            left,
            right,
            left_col,
            right_col,
            ..
        }) = stmt
        else {
            return Ok(());
        };
        if self.shards.len() == 1 {
            return Ok(());
        }
        let lt = self.shards[0].table(left)?;
        let rt = self.shards[0].table(right)?;
        let lk = lt.schema.col(left_col)?;
        let rk = rt.schema.col(right_col)?;
        if lt.shard_col != lk || rt.shard_col != rk {
            return Err(DbError::PlanError(format!(
                "sharded join needs co-partitioned inputs: {left} is sharded on column \
                 {} and {right} on {}, but the join keys are {left}.{left_col} (column {lk}) \
                 and {right}.{right_col} (column {rk}); declare matching shard keys with \
                 Database::set_shard_key before Database::shard",
                lt.shard_col, rt.shard_col,
            )));
        }
        Ok(())
    }

    /// The cancellation token shared by every shard (and the database the
    /// shards were split from). Cloning it onto another thread and calling
    /// [`CancelToken::cancel`] aborts an in-flight query at its next morsel
    /// or batch checkpoint on every shard.
    pub fn cancel_token(&self) -> CancelToken {
        self.shards[0].cancel_token()
    }

    /// A cancellation that is already pending must imply *zero* mutation
    /// and no fault draw, so mutating arms check before any shard can apply
    /// (each shard re-checks at its own gate; a cancel landing
    /// mid-broadcast is per-shard atomic, already-applied shards stay
    /// applied).
    fn refuse_if_cancelled(&self) -> DbResult<()> {
        if self.cancel_token().is_cancelled() {
            return Err(DbError::Cancelled);
        }
        Ok(())
    }

    /// Runs `op` once per shard under one of the two schedulers and returns
    /// the per-shard values in shard order. Router stats of every shard
    /// that ran merge in shard order, and the first error *in shard order*
    /// wins, so the surfaced typed error is schedule-independent.
    ///
    /// * `None` — the caller's thread, in shard order, stopping at the
    ///   first failed shard (later shards' cores and fault sequences stay
    ///   untouched).
    /// * `Some(cfg)` — [`run_jobs_parallel`]'s work-stealing pool; every
    ///   shard runs, whatever its neighbours return.
    fn fan_out<T: Send>(
        &mut self,
        par: Option<&ParallelConfig>,
        op: impl Fn(usize, &mut Database, &mut RouterStats) -> DbResult<T> + Sync,
    ) -> DbResult<Vec<T>> {
        let job = |i: usize, db: &mut Database| {
            let mut st = RouterStats::default();
            (op(i, db, &mut st), st)
        };
        let outs = match par {
            None => {
                let mut outs = Vec::with_capacity(self.shards.len());
                for (i, db) in self.shards.iter_mut().enumerate() {
                    let out = job(i, db);
                    let failed = out.0.is_err();
                    outs.push(out);
                    if failed {
                        break;
                    }
                }
                outs
            }
            Some(cfg) => run_jobs_parallel(
                self.shards.iter_mut().collect(),
                cfg.effective_workers(),
                cfg.steal_seed,
                job,
            ),
        };
        let mut values = Vec::with_capacity(outs.len());
        let mut first_err = None;
        for (r, st) in outs {
            self.stats.absorb(&st);
            match r {
                Ok(v) => values.push(v),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(values), Err)
    }

    /// The one shard router (see the module docs for the per-statement
    /// merge rules and refusals). `par` picks the scheduler
    /// ([`Self::fan_out`]) and, with it, whether each shard's aggregate scan
    /// is morselized by `cfg.morsel_rows`; nothing else differs between the
    /// two. The answer is a scalar statement's result (`Ok`), or a grouped
    /// statement's `(key, value)` rows in ascending key order (`Err`).
    pub(crate) fn route(
        &mut self,
        stmt: &BoundStatement,
        par: Option<&ParallelConfig>,
    ) -> DbResult<Result<QueryResult, Vec<(i32, f64)>>> {
        let mut out = QueryResult {
            value: 0.0,
            rows: 0,
        };
        match stmt {
            BoundStatement::Grouped { agg, .. }
            | BoundStatement::Scalar(Query::SelectAgg { agg, .. } | Query::JoinAgg { agg, .. }) => {
                self.check_join_co_partitioning(stmt)?;
                let morsel = par.map(|cfg| cfg.morsel_rows);
                let partials = self.fan_out(par, |i, db, st| {
                    run_with_retry(db, i, st, |db| db.gated(|db| db.agg_partial(stmt, morsel)))
                })?;
                let mut merged = Partial::new(matches!(stmt, BoundStatement::Grouped { .. }));
                for p in partials {
                    merged.merge(p);
                }
                return Ok(merged.render(agg.kind));
            }
            BoundStatement::Scalar(q @ Query::PointSelect { .. }) => {
                // Broadcast read. Duplicates of one key value co-locate when
                // the lookup column *is* the shard key (same hash → same
                // shard, and within one shard local index order mirrors the
                // global load order), so "first match" stays well defined.
                // When the lookup column is not the shard key, duplicates
                // may split across shards and the first match would become
                // shard-order- instead of index-order-defined — refuse that
                // read (the co-partitioning precedent: no silently different
                // answer) rather than guess.
                let mut shards_with_matches = 0u32;
                for r in self.fan_out(par, |i, db, st| run_with_retry(db, i, st, |db| db.run(q)))? {
                    if r.rows > 0 {
                        shards_with_matches += 1;
                        if out.rows == 0 {
                            out.value = r.value;
                        }
                        out.rows += r.rows;
                    }
                }
                if shards_with_matches > 1 {
                    return Err(DbError::PlanError(format!(
                        "point select matched rows on {shards_with_matches} shards: the \
                         key is duplicated across shards, so a single returned value is \
                         not well defined; shard the table on the lookup column \
                         (Database::set_shard_key) or use an aggregate query"
                    )));
                }
            }
            BoundStatement::Scalar(q @ Query::UpdateAdd { .. }) => {
                // Broadcast update: every matching row receives the same
                // delta on its own shard, so the *effect* is exact for any
                // key distribution (addition commutes). The returned scalar
                // is the last updated value; under cross-shard duplicate
                // keys it is the last in shard order rather than index
                // order — `rows` and the stored data are exact either way.
                self.refuse_if_cancelled()?;
                for r in self.fan_out(par, |i, db, st| run_mutation(db, i, st, |db| db.run(q)))? {
                    if r.rows > 0 {
                        out.value = r.value;
                    }
                    out.rows += r.rows;
                }
            }
            BoundStatement::Scalar(q @ Query::InsertRow { table, values }) => {
                // Single-shard route: nothing to fan out.
                self.refuse_if_cancelled()?;
                let t = self.shards[0].table(table)?;
                let col = t.shard_col;
                if col >= values.len() {
                    return Err(DbError::ArityMismatch {
                        expected: t.schema.arity(),
                        got: values.len(),
                    });
                }
                let target = shard_of(values[col], self.shards.len());
                out = run_mutation(&mut self.shards[target], target, &mut self.stats, |db| {
                    db.run(q)
                })?;
            }
        }
        Ok(Ok(out))
    }

    /// Runs a query across all shards on the caller's thread and merges the
    /// answer: shards execute in shard order, unmorselized, stopping at the
    /// first failed shard; determinism is inherited from the per-shard
    /// simulators.
    pub fn run(&mut self, q: &Query) -> DbResult<QueryResult> {
        self.route(&BoundStatement::Scalar(q.clone()), None)
            .map(scalar)
    }

    /// [`ShardedDatabase::run`] on the work-stealing OS-thread pool
    /// ([`crate::parallel`]), each shard's aggregate scan morselized by
    /// `cfg.morsel_rows`. Same merge rules and refusals; answers and merged
    /// counters are bit-identical for every worker count and steal seed
    /// (`tests/parallel_equivalence.rs` is the proof).
    pub fn run_parallel(&mut self, q: &Query, cfg: &ParallelConfig) -> DbResult<QueryResult> {
        self.route(&BoundStatement::Scalar(q.clone()), Some(cfg))
            .map(scalar)
    }

    /// Runs a grouped aggregation on every shard, sequentially, and merges
    /// the per-group partials.
    pub fn run_grouped(
        &mut self,
        table: &str,
        group_col: &str,
        predicate: Option<&QueryPredicate>,
        agg: &AggSpec,
    ) -> DbResult<Vec<(i32, f64)>> {
        let stmt = BoundStatement::grouped(table, group_col, predicate, agg);
        self.route(&stmt, None).map(groups)
    }

    /// [`ShardedDatabase::run_grouped`] on the work-stealing pool,
    /// morselized; bit-identical for every schedule.
    pub fn run_grouped_parallel(
        &mut self,
        table: &str,
        group_col: &str,
        predicate: Option<&QueryPredicate>,
        agg: &AggSpec,
        cfg: &ParallelConfig,
    ) -> DbResult<Vec<(i32, f64)>> {
        let stmt = BoundStatement::grouped(table, group_col, predicate, agg);
        self.route(&stmt, Some(cfg)).map(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_router_is_deterministic_and_total() {
        for n in [1usize, 2, 4, 8, 5] {
            for key in [-1_000_000, -1, 0, 1, 42, i32::MAX, i32::MIN] {
                let s = shard_of(key, n);
                assert!(s < n, "shard {s} out of range for n={n}");
                assert_eq!(s, shard_of(key, n), "routing must be pure");
            }
        }
        assert_eq!(shard_of(12345, 1), 0);
    }

    #[test]
    fn shard_router_spreads_a_dense_key_domain() {
        // The micro workload's a2 domain is dense (1..=|S|); the router must
        // not collapse it onto a few shards.
        let n = 8;
        let mut counts = vec![0u32; n];
        for key in 1..=4000 {
            counts[shard_of(key, n)] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(
            min * 2 > max,
            "badly skewed shard routing: min {min}, max {max}"
        );
    }
}
