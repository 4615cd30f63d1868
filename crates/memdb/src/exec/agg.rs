//! Aggregation (AVG / SUM / COUNT / MIN / MAX), scalar or grouped.
//!
//! The paper's queries aggregate (`select avg(a3) …`) so the DBMS returns a
//! single row and client/server communication does not pollute the
//! measurements (§3.3). The accumulator lives in engine-private memory, part
//! of the hot working set that §5.2 observes stays L1-resident.
//!
//! The original TPC-D queries the paper runs are the same aggregates with a
//! group key (Q1 groups by return flag and line status), so the one
//! aggregation operator also takes an optional group column. Groups are kept
//! in a hash table in engine-private memory: for the handful of groups DSS
//! queries produce it stays L1-resident, mirroring §5.2's observation that
//! private execution state is the hot data. On the host the table is a
//! `HashMap`, put in key order once the input is drained.
//!
//! The accumulation itself is an exact, mergeable `Partial`: sharded
//! execution drains one `AggExec` per shard via `AggExec::run_partial` and
//! merges the partials, so the merged answer is bit-identical to a
//! single-shard run (see [`crate::exec::partial`]).

use std::collections::HashMap;
use std::sync::Arc;

use wdtg_sim::MemDep;

use crate::error::DbResult;
use crate::exec::batch::{Batch, ExecMode};
use crate::exec::partial::{AggState, Partial};
use crate::exec::{ExecEnv, Operator};
use crate::profiles::EngineBlocks;

/// Aggregate executor: drains a child operator into one accumulator, or one
/// per value of the group column.
pub struct AggExec {
    child: Box<dyn Operator>,
    col: usize,
    group: Option<usize>,
    blocks: Arc<EngineBlocks>,
}

impl AggExec {
    /// Aggregates column position `col` of `child`'s output, grouped on
    /// column position `group` when there is one. Every aggregate function
    /// shares one exact accumulator, so the function is the renderer's
    /// business (`Partial::render`), not the operator's.
    pub fn new(
        child: Box<dyn Operator>,
        col: usize,
        group: Option<usize>,
        blocks: Arc<EngineBlocks>,
    ) -> Self {
        AggExec {
            child,
            col,
            group,
            blocks,
        }
    }

    /// Runs the aggregation to completion on the environment's execution
    /// path (row-at-a-time or vectorized), stopping short of rendering the
    /// final value: the exact accumulation, which morsels and shards merge
    /// before the answer is rendered once.
    pub(crate) fn run_partial(&mut self, env: &mut ExecEnv<'_>) -> DbResult<Partial> {
        match env.mode {
            ExecMode::Row => self.run_rows(env),
            ExecMode::Batch => self.run_batched(env),
        }
    }

    /// Volcano drain: one `agg_step` path per row, plus one accumulator
    /// write (scalar) or one group-slot probe and update (grouped).
    fn run_rows(&mut self, env: &mut ExecEnv<'_>) -> DbResult<Partial> {
        let (col, blocks) = (self.col, &self.blocks);
        let child = self.child.as_mut();
        match self.group {
            None => {
                let mut state = AggState::new();
                drain_rows(child, env, blocks, |env, row| {
                    // Accumulator update in private memory (hot, L1-resident).
                    env.ctx.store_touch(blocks.agg_buf, 16, MemDep::Demand);
                    state.update(row[col]);
                })?;
                Ok(Partial::Scalar(state))
            }
            Some(g) => {
                let mut groups = HashMap::new();
                drain_rows(child, env, blocks, |env, row| {
                    touch_group_slot(env, blocks, row[g]);
                    groups
                        .entry(row[g])
                        .or_insert_with(AggState::new)
                        .update(row[col]);
                })?;
                Ok(Partial::Grouped(groups.into_iter().collect()))
            }
        }
    }

    /// Vectorized drain: the aggregate path runs once per batch, the tight
    /// accumulate loop scales over the batch's *live* rows (a predicated
    /// filter upstream publishes qualification as a selection vector, and
    /// the accumulate loop walks exactly those lanes). A scalar accumulator
    /// lives in registers (one representative spill per batch instead of
    /// one write per row); a grouped one keeps per-row group-slot traffic.
    fn run_batched(&mut self, env: &mut ExecEnv<'_>) -> DbResult<Partial> {
        let (col, blocks) = (self.col, &self.blocks);
        let child = self.child.as_mut();
        match self.group {
            None => {
                let mut state = AggState::new();
                drain_batches(child, env, blocks, |env, batch| {
                    env.ctx.store_touch(blocks.agg_buf, 16, MemDep::Demand);
                    let vals = batch.col(col);
                    for i in 0..batch.live_rows() {
                        state.update(vals[batch.live_index(i)]);
                    }
                })?;
                Ok(Partial::Scalar(state))
            }
            Some(g) => {
                let mut groups = HashMap::new();
                drain_batches(child, env, blocks, |env, batch| {
                    let (keys, vals) = (batch.col(g), batch.col(col));
                    for i in 0..batch.live_rows() {
                        let r = batch.live_index(i);
                        touch_group_slot(env, blocks, keys[r]);
                        groups
                            .entry(keys[r])
                            .or_insert_with(AggState::new)
                            .update(vals[r]);
                    }
                })?;
                Ok(Partial::Grouped(groups.into_iter().collect()))
            }
        }
    }
}

/// Drains `child` row by row: `agg_step` per row, then `fold`, with a
/// guardrail checkpoint at batch-equivalent granularity (row mode has no
/// batch boundary, so every 1024 rows).
fn drain_rows(
    child: &mut dyn Operator,
    env: &mut ExecEnv<'_>,
    blocks: &EngineBlocks,
    mut fold: impl FnMut(&mut ExecEnv<'_>, &[i32]),
) -> DbResult<()> {
    child.open(env)?;
    let mut row = Vec::with_capacity(child.arity());
    let mut rows = 0u64;
    while child.next(env, &mut row)? {
        env.ctx.exec(&blocks.agg_step);
        fold(env, &row);
        rows += 1;
        if rows & 0x3FF == 0 {
            env.budget_checkpoint(&blocks.budget_check)?;
        }
    }
    Ok(())
}

/// Drains `child` batch by batch: `agg_step` once and the tight accumulate
/// block once per live row, then `fold`, then a guardrail checkpoint at the
/// batch boundary.
fn drain_batches(
    child: &mut dyn Operator,
    env: &mut ExecEnv<'_>,
    blocks: &EngineBlocks,
    mut fold: impl FnMut(&mut ExecEnv<'_>, &Batch),
) -> DbResult<()> {
    child.open(env)?;
    let mut batch = Batch::new(child.arity());
    while child.next_batch(env, &mut batch)? {
        env.ctx.exec(&blocks.agg_step);
        env.ctx
            .exec_scaled(&blocks.batch.agg_step, batch.live_rows() as u32);
        fold(env, &batch);
        env.budget_checkpoint(&blocks.budget_check)?;
    }
    Ok(())
}

/// Group-table probe/update data traffic for one input row (identical in
/// both execution modes: the table touches are the operator's data
/// behaviour, not its dispatch overhead). A handful of groups stays
/// L1-resident.
fn touch_group_slot(env: &mut ExecEnv<'_>, blocks: &EngineBlocks, key: i32) {
    let slot = (key as u32 as u64 % 64) * 16;
    env.ctx.touch(blocks.agg_buf + slot, 8, MemDep::Demand);
    env.ctx
        .store_touch(blocks.agg_buf + slot, 16, MemDep::Demand);
}
