//! Instrumented operators: Volcano row-at-a-time and vectorized batch paths.
//!
//! # Row mode
//!
//! Operators pull rows one at a time (`next`) like the iterator model every
//! late-90s commercial executor used; each call charges the engine-profile
//! code blocks and the data accesses of the work it performs, so per-tuple
//! function-call overhead, instruction footprint and data traffic all show up
//! in the simulated counters — this is the configuration the paper measures.
//!
//! # Batch mode
//!
//! Operators exchange column-major [`Batch`]es of ~[`BATCH_ROWS`] rows
//! (`next_batch`). Native batched operators charge one per-batch dispatch
//! block plus an amortized tight-loop block per tuple
//! ([`crate::profiles::BatchBlocks`]), collapsing the per-tuple instruction
//! footprint the way MonetDB/X100-style engines do. Data accesses keep
//! per-record granularity (or use the simulator's contiguous-run fast path
//! where the row path touched a contiguous span), so cache/TLB *data*
//! behaviour matches row mode while computation and instruction-fetch time
//! shrink. The driver picks the path via [`ExecMode`] on the
//! [`crate::Database`].
//!
//! Every operator gets `next_batch` for free through a default adapter that
//! drains `next()` — row-mode costs, batch-shaped output — so the two paths
//! compose even for operators without a native batched implementation.
//!
//! Orthogonally to the execution mode, [`SelectionMode`] decides how
//! filters qualify rows: through a per-row data-dependent branch
//! (`Branching`, the paper's configuration — the Fig 5.4 T_B source) or
//! branch-free (`Predicated`), where batch-mode qualification travels as a
//! selection vector on the [`Batch`] that every downstream operator honors
//! via [`Batch::live_rows`]/[`Batch::live_index`].
//!
//! A [`PhysicalConfig`] is one setting of these knobs plus the join
//! algorithm: the value the SQL planner costs, a session applies, a
//! [`crate::ShardedDatabase`] hands to every shard and a measurement
//! methodology runs under.
//!
//! ## Batch size and the cache model
//!
//! [`BATCH_ROWS`] = 1024 rows keeps a few columns of `i32` values (host
//! memory) well under L1 capacity while making the per-batch dispatch block
//! negligible (< 0.1% of charged instructions at paper scale). Simulated
//! *data* traffic is unaffected by batch size because record touches keep
//! their row-mode addresses; only the points at which per-batch blocks are
//! charged move, which can shift prefetch timing by a few cycles on
//! cache-conscious profiles (System B).

pub mod agg;
pub mod batch;
pub mod filter;
pub mod indexscan;
pub mod join_hash;
pub mod join_nl;
pub mod join_partitioned;
pub mod partial;
pub mod seqscan;

pub use batch::{Batch, ExecMode, BATCH_ROWS};
pub use filter::SelectionMode;
pub use partial::AggState;

use wdtg_sim::{CodeBlock, MemDep};

use crate::buffer::BufferPool;
use crate::db::{Database, DbCtx};
use crate::error::{DbError, DbResult};
use crate::fault::FaultSite;
use crate::profiles::JoinAlgo;

/// One setting of the physical knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalConfig {
    /// Row-at-a-time or vectorized execution.
    pub exec_mode: ExecMode,
    /// Qualification strategy; `None` when the plan has no filter.
    pub selection_mode: Option<SelectionMode>,
    /// Join algorithm; `None` for non-join plans.
    pub join_algo: Option<JoinAlgo>,
}

impl PhysicalConfig {
    /// Compact human label, e.g. `batch/predicated` or `row/partitioned`.
    pub fn label(&self) -> String {
        let mut parts = vec![match self.exec_mode {
            ExecMode::Row => "row",
            ExecMode::Batch => "batch",
        }
        .to_string()];
        if let Some(s) = self.selection_mode {
            parts.push(
                match s {
                    SelectionMode::Branching => "branching",
                    SelectionMode::Predicated => "predicated",
                }
                .to_string(),
            );
        }
        if let Some(j) = self.join_algo {
            parts.push(
                match j {
                    JoinAlgo::Hash => "hash",
                    JoinAlgo::PartitionedHash => "partitioned",
                    JoinAlgo::IndexNestedLoop => "index-nl",
                }
                .to_string(),
            );
        }
        parts.join("/")
    }

    /// Applies the chosen knobs to a database.
    pub fn apply(&self, db: &mut Database) {
        db.set_exec_mode(self.exec_mode);
        if let Some(s) = self.selection_mode {
            db.set_selection_mode(s);
        }
        if let Some(j) = self.join_algo {
            db.set_join_algo(j);
        }
    }
}

/// Execution environment handed to every operator call: the instrumented
/// context plus the buffer pool (for page-table lookups) and the execution
/// mode drivers/operators consult when draining children.
pub struct ExecEnv<'a> {
    /// Instrumented memory/CPU context.
    pub ctx: &'a mut DbCtx,
    /// Buffer-pool page table.
    pub bufpool: &'a BufferPool,
    /// Row-at-a-time or vectorized execution.
    pub mode: ExecMode,
}

impl ExecEnv<'_> {
    /// Instrumented buffer-pool page lookup: probes the page table through
    /// the context's reusable scratch buffer (no per-lookup allocation),
    /// charges one touch per probed entry with `dep`, and surfaces a
    /// missing registration as a query error instead of a crash.
    ///
    /// This is the single choke point every page access goes through
    /// (sequential scans, index fetches, point operations), so it is also
    /// where the [`FaultSite::BufpoolFetch`] and [`FaultSite::PageChecksum`]
    /// injection seams live: a fetch-fault hit fails before the frame is
    /// touched (the I/O never happened), a checksum hit fails after (the
    /// frame was read but did not verify). Both are transient for the shard
    /// retry loop.
    pub(crate) fn lookup_page(&mut self, page_id: u64, dep: MemDep) -> DbResult<u64> {
        if self.ctx.fault.should_fault(FaultSite::BufpoolFetch) {
            return Err(DbError::IoFault { page_id });
        }
        let mut probed = std::mem::take(&mut self.ctx.probe_scratch);
        probed.clear();
        let lookup = self
            .bufpool
            .lookup_into(&self.ctx.misc, page_id, &mut probed);
        let Some(frame) = lookup else {
            self.ctx.probe_scratch = probed;
            return Err(DbError::PageNotRegistered { page_id });
        };
        for &entry in &probed {
            self.ctx.touch(entry, 16, dep);
        }
        self.ctx.probe_scratch = probed;
        if self.ctx.fault.should_fault(FaultSite::PageChecksum) {
            return Err(DbError::PageCorrupt { page_id });
        }
        Ok(frame)
    }

    /// Cooperative guardrail checkpoint, called at batch/partition
    /// boundaries. Always honors a pending [`crate::CancelToken`]; when a
    /// [`crate::ResourceBudget`] limit is armed it additionally charges the
    /// engine's `budget_check` straight-line block (so guardrail overhead is
    /// deterministic simulated work, not hidden host time) and enforces the
    /// limits. With no limits armed this charges nothing.
    pub(crate) fn budget_checkpoint(&mut self, check_block: &CodeBlock) -> DbResult<()> {
        if self.ctx.cancel.is_cancelled() {
            return Err(DbError::Cancelled);
        }
        if !self.ctx.budget.is_limited() {
            return Ok(());
        }
        self.ctx.exec(check_block);
        self.ctx.enforce_budget()
    }
}

/// A pull-based operator producing rows of `i32` values.
pub trait Operator {
    /// Prepares the operator (may consume inputs, e.g. a hash-join build).
    fn open(&mut self, env: &mut ExecEnv<'_>) -> DbResult<()>;

    /// Produces the next row into `out`; returns false at end of stream.
    fn next(&mut self, env: &mut ExecEnv<'_>, out: &mut Vec<i32>) -> DbResult<bool>;

    /// Produces the next batch of rows into `out`; returns false when the
    /// stream is exhausted (an empty batch is never returned as true).
    ///
    /// The default implementation adapts `next()` — charging row-mode costs
    /// — so every operator participates in batch-mode plans; operators with
    /// native implementations charge the engine's batch-friendly blocks
    /// instead.
    fn next_batch(&mut self, env: &mut ExecEnv<'_>, out: &mut Batch) -> DbResult<bool> {
        out.reset(self.arity());
        let mut row = Vec::with_capacity(self.arity());
        while !out.is_full() {
            if !self.next(env, &mut row)? {
                break;
            }
            out.push_row(&row);
        }
        Ok(!out.is_empty())
    }

    /// Number of columns in produced rows.
    fn arity(&self) -> usize;
}
