//! The database facade: catalog, storage, instrumented execution context and
//! the query planner/runner.

use std::collections::BTreeMap;
use std::sync::Arc;

use wdtg_sim::{segment, BranchSite, CodeBlock, Cpu, CpuConfig, MemDep};

use crate::arena::SimArena;
use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::exec::agg::AggExec;
use crate::exec::filter::{Filter, PredicateExec, SelectionMode};
use crate::exec::indexscan::{descend_to_leaf, IndexRangeScan};
use crate::exec::join_hash::HashJoin;
use crate::exec::join_nl::IndexNlJoin;
use crate::exec::join_partitioned::PartitionedHashJoin;
use crate::exec::partial::{groups, scalar, Partial};
use crate::exec::seqscan::SeqScan;
use crate::exec::{ExecEnv, ExecMode, Operator};
use crate::fault::{CancelToken, FaultInjector, FaultPlan, FaultSite, ResourceBudget};
use crate::heap::{HeapFile, PageLayout, Rid, HDR_NRECS, HDR_PAGEID};
use crate::index::btree::BTree;
use crate::profiles::{EngineProfile, EvalMode, JoinAlgo};
use crate::query::{AggKind, AggSpec, BoundStatement, Query, QueryPredicate, QueryResult};
use crate::schema::Schema;
use crate::shard::{shard_of, ShardedDatabase};
use crate::txn::{TxnState, WriteSet};

/// Instrumented access to simulated memory: every load/store both returns
/// real bytes and drives the cache simulator, unless instrumentation is off
/// (bulk loads and index builds happen before measurement, as in §4.3).
#[derive(Debug)]
pub struct DbCtx {
    /// The simulated processor.
    pub cpu: Cpu,
    /// Relation heap pages.
    pub heap: SimArena,
    /// Index structures (B+trees, join hash tables).
    pub index: SimArena,
    /// Catalog/page-table/miscellaneous structures.
    pub misc: SimArena,
    /// Whether accesses are simulated (off during data loading).
    pub instrument: bool,
    /// Deterministic fault injection state (plan, draw counters, stats).
    pub fault: FaultInjector,
    /// Per-query resource guardrails (default: unlimited).
    pub(crate) budget: ResourceBudget,
    /// Cooperative cancellation flag shared with [`CancelToken`] clones.
    pub(crate) cancel: CancelToken,
    /// Simulated cycle count at the start of the current query (budget base).
    pub(crate) query_start_cycles: f64,
    /// Total arena bytes in use at the start of the current query.
    pub(crate) query_start_arena: u64,
    /// Reusable buffer for page-table probe addresses, so the executor hot
    /// path performs no per-lookup allocation.
    pub(crate) probe_scratch: Vec<u64>,
}

impl DbCtx {
    /// Creates a context with a fresh processor.
    pub fn new(cfg: CpuConfig) -> Self {
        DbCtx {
            cpu: Cpu::new(cfg),
            heap: SimArena::new(segment::HEAP, 0x3000_0000),
            index: SimArena::new(segment::INDEX, 0x2000_0000),
            misc: SimArena::new(segment::MISC, 0x1000_0000),
            instrument: true,
            fault: FaultInjector::new(FaultPlan::disabled()),
            budget: ResourceBudget::unlimited(),
            cancel: CancelToken::new(),
            query_start_cycles: 0.0,
            query_start_arena: 0,
            probe_scratch: Vec::with_capacity(8),
        }
    }

    /// Total bytes currently allocated across the three arenas.
    pub fn arena_used(&self) -> u64 {
        self.heap.used() + self.index.used() + self.misc.used()
    }

    /// Marks the start of a query: the budget baselines (cycles, arena
    /// bytes) reset here, so limits are per-query rather than per-session.
    pub(crate) fn begin_query(&mut self) {
        self.query_start_cycles = self.cpu.cycles();
        self.query_start_arena = self.arena_used();
    }

    /// Enforces the active [`ResourceBudget`] against consumption since
    /// [`DbCtx::begin_query`]. Called from cooperative checkpoints; the
    /// checkpoint charges the `budget_check` code block separately (only
    /// when a limit is armed, so an unlimited budget costs nothing).
    pub(crate) fn enforce_budget(&mut self) -> DbResult<()> {
        if let Some(limit) = self.budget.max_cycles {
            let used = (self.cpu.cycles() - self.query_start_cycles).max(0.0) as u64;
            if used > limit {
                self.fault.note_budget_stop();
                return Err(DbError::BudgetExceeded {
                    resource: "cycles",
                    used,
                    limit,
                });
            }
        }
        if let Some(limit) = self.budget.max_arena_bytes {
            let used = self.arena_used().saturating_sub(self.query_start_arena);
            if used > limit {
                self.fault.note_budget_stop();
                return Err(DbError::BudgetExceeded {
                    resource: "arena_bytes",
                    used,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Fallible index-arena allocation with the fault-injection and budget
    /// seams applied: an injected [`FaultSite::ArenaAlloc`] hit or a breach
    /// of the arena-bytes budget surfaces *before* the bump, and genuine
    /// exhaustion comes back as [`DbError::ArenaExhausted`] instead of a
    /// panic. The partitioned join allocates its partition chunks through
    /// this, which is what lets it degrade instead of die.
    pub(crate) fn try_alloc_index(&mut self, len: u64, align: u64) -> DbResult<u64> {
        if self.fault.should_fault(FaultSite::ArenaAlloc) {
            return Err(DbError::ArenaExhausted {
                requested: len,
                used: self.index.used(),
                capacity: self.index.region().len,
            });
        }
        if let Some(limit) = self.budget.max_arena_bytes {
            let used = self.arena_used().saturating_sub(self.query_start_arena);
            if used + len > limit {
                self.fault.note_budget_stop();
                return Err(DbError::BudgetExceeded {
                    resource: "arena_bytes",
                    used: used + len,
                    limit,
                });
            }
        }
        self.index
            .try_alloc(len, align)
            .ok_or(DbError::ArenaExhausted {
                requested: len,
                used: self.index.used(),
                capacity: self.index.region().len,
            })
    }

    fn arena(&self, addr: u64) -> &SimArena {
        if addr >= segment::MISC {
            &self.misc
        } else if addr >= segment::INDEX {
            &self.index
        } else {
            &self.heap
        }
    }

    fn arena_mut(&mut self, addr: u64) -> &mut SimArena {
        if addr >= segment::MISC {
            &mut self.misc
        } else if addr >= segment::INDEX {
            &mut self.index
        } else {
            &mut self.heap
        }
    }

    /// Instrumented 4-byte load.
    #[inline]
    pub fn load_i32(&mut self, addr: u64, dep: MemDep) -> i32 {
        if self.instrument {
            self.cpu.load(addr, 4, dep);
        }
        self.arena(addr).read_i32(addr)
    }

    /// Instrumented 8-byte load.
    #[inline]
    pub fn load_u64(&mut self, addr: u64, dep: MemDep) -> u64 {
        if self.instrument {
            self.cpu.load(addr, 8, dep);
        }
        self.arena(addr).read_u64(addr)
    }

    /// Instrumented 4-byte store.
    #[inline]
    pub fn store_i32(&mut self, addr: u64, v: i32, dep: MemDep) {
        if self.instrument {
            self.cpu.store(addr, 4, dep);
        }
        self.arena_mut(addr).write_i32(addr, v);
    }

    /// Charges a read of `len` bytes without transferring data (used when a
    /// record is materialized wholesale; values are then read raw).
    #[inline]
    pub fn touch(&mut self, addr: u64, len: u32, dep: MemDep) {
        if self.instrument {
            self.cpu.load(addr, len, dep);
        }
    }

    /// Charges a write of `len` bytes (e.g. into a private tuple buffer that
    /// has no arena backing).
    #[inline]
    pub fn store_touch(&mut self, addr: u64, len: u32, dep: MemDep) {
        if self.instrument {
            self.cpu.store(addr, len, dep);
        }
    }

    /// Charges a contiguous read of `len` bytes through the simulator's
    /// run fast path ([`Cpu::load_run`]): identical cache/TLB/stall
    /// behaviour to touching the span record by record, with the per-record
    /// bookkeeping amortized. Used by batched scans over whole-page record
    /// runs.
    #[inline]
    pub fn touch_run(&mut self, addr: u64, len: u32, dep: MemDep) {
        if self.instrument {
            self.cpu.load_run(addr, len, dep);
        }
    }

    /// The store-side twin of [`DbCtx::touch_run`]
    /// ([`wdtg_sim::Cpu::store_run`]): charges a contiguous write of `len`
    /// bytes with amortized bookkeeping. Used by the partitioned join's
    /// batched scatter, whose appends land in contiguous spans of each
    /// partition's column buffers.
    #[inline]
    pub fn store_run(&mut self, addr: u64, len: u32, dep: MemDep) {
        if self.instrument {
            self.cpu.store_run(addr, len, dep);
        }
    }

    /// Uninstrumented raw read (after the covering [`DbCtx::touch`]).
    #[inline]
    pub fn read_raw_i32(&self, addr: u64) -> i32 {
        self.arena(addr).read_i32(addr)
    }

    /// Executes an instrumented code block.
    #[inline]
    pub fn exec(&mut self, block: &CodeBlock) {
        if self.instrument {
            self.cpu.exec_block(block);
        }
    }

    /// Executes `times` back-to-back invocations of a block (fetched once).
    #[inline]
    pub fn exec_scaled(&mut self, block: &CodeBlock, times: u32) {
        if self.instrument {
            self.cpu.exec_block_scaled(block, times);
        }
    }

    /// Executes a data-dependent branch.
    #[inline]
    pub fn branch(&mut self, site: BranchSite, taken: bool) {
        if self.instrument {
            self.cpu.branch(site, taken);
        }
    }

    /// Executes `lanes` branch-free conditional selects
    /// ([`wdtg_sim::Cpu::select_run`]): the predicated filter's qualify
    /// cost — unconditional extra instructions instead of a possible
    /// misprediction.
    #[inline]
    pub fn select_ops(&mut self, lanes: u32) {
        if self.instrument {
            self.cpu.select_run(lanes);
        }
    }

    /// Issues a data prefetch.
    #[inline]
    pub fn prefetch(&mut self, addr: u64) {
        if self.instrument {
            self.cpu.prefetch_data(addr);
        }
    }
}

/// A table: schema plus heap file.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema (fixed-length integer columns).
    pub schema: Schema,
    /// Heap storage.
    pub heap: HeapFile,
    /// Column whose hash routes rows to shards under
    /// [`Database::shard`] (default 0; see [`Database::set_shard_key`]).
    pub shard_col: usize,
}

/// A secondary index registered in the catalog.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// Index of the table in the catalog.
    pub table: usize,
    /// Indexed column.
    pub col: usize,
    /// The B+tree.
    pub btree: BTree,
}

/// A memory-resident single-user relational database bound to one simulated
/// processor and one engine profile (one of the paper's four systems).
#[derive(Debug)]
pub struct Database {
    /// Execution context (processor + arenas).
    pub ctx: DbCtx,
    pub(crate) tables: Vec<Table>,
    pub(crate) indexes: Vec<IndexMeta>,
    pub(crate) bufpool: BufferPool,
    pub(crate) profile: EngineProfile,
    pub(crate) exec_mode: ExecMode,
    selection_mode: SelectionMode,
    /// Bumped by every bulk change to what a physical plan was costed
    /// against — [`Database::create_table_with_layout`],
    /// [`Database::load_rows`], [`Database::create_index`] — so a
    /// [`crate::sql::Session`] can tell its cached plans are stale. Not
    /// bumped by single-row [`Database::insert_row`]: one row moves no
    /// crossover, and an OLTP session's cached plans must survive its own
    /// `INSERT`s. Pure host-side bookkeeping: zero simulated cycles.
    pub(crate) catalog_epoch: u64,
    /// MVCC version chains, open transactions and the write-ahead log
    /// (see [`crate::txn`]).
    pub(crate) txn: TxnState,
}

impl Database {
    /// Creates an empty database for `profile` on a processor configured by
    /// `cfg`, sized for up to `expected_pages` heap pages.
    pub fn with_capacity(profile: EngineProfile, cfg: CpuConfig, expected_pages: u64) -> Self {
        let mut ctx = DbCtx::new(cfg);
        let bufpool = BufferPool::new(&mut ctx.misc, expected_pages);
        Database {
            ctx,
            tables: Vec::new(),
            indexes: Vec::new(),
            bufpool,
            profile,
            exec_mode: ExecMode::Row,
            selection_mode: SelectionMode::Branching,
            catalog_epoch: 0,
            txn: TxnState::default(),
        }
    }

    /// Creates an empty database with a default page-table capacity (64 K
    /// pages = 512 MB of heap).
    pub fn new(profile: EngineProfile, cfg: CpuConfig) -> Self {
        Self::with_capacity(profile, cfg, 64 * 1024)
    }

    /// A fork of `image`: its heap, index and page-table bytes at the same
    /// simulated addresses, its catalog, profile and knobs — on a cold
    /// processor of its own (which starts every block's rotation at zero),
    /// a fresh [`CancelToken`], no fault plan, no budget and no transaction
    /// state.
    pub(crate) fn fork(image: &Database) -> Database {
        let mut fork = Database {
            ctx: DbCtx::new(image.ctx.cpu.config().clone()),
            tables: Vec::new(),
            indexes: Vec::new(),
            bufpool: image.bufpool.clone(),
            profile: image.profile.clone(),
            exec_mode: image.exec_mode,
            selection_mode: image.selection_mode,
            catalog_epoch: image.catalog_epoch,
            txn: TxnState::default(),
        };
        fork.reset_from(image);
        fork
    }

    /// Makes `self` what [`Database::fork`] of `image` returns, reusing its
    /// allocations: whatever `self` ran before — warm caches, BTB and block
    /// rotations, bump-allocated hash tables, a tripped budget — leaves no
    /// trace in what it simulates next.
    pub(crate) fn reset_from(&mut self, image: &Database) {
        // Exhaustive, so a field added to either struct cannot be missed.
        let Database {
            ctx,
            tables,
            indexes,
            bufpool,
            profile,
            exec_mode,
            selection_mode,
            catalog_epoch,
            txn,
        } = self;
        let DbCtx {
            cpu,
            heap,
            index,
            misc,
            instrument,
            fault,
            budget,
            cancel,
            query_start_cycles,
            query_start_arena,
            probe_scratch: _,
        } = ctx;
        cpu.reset_cold();
        heap.clone_from(&image.ctx.heap);
        index.clone_from(&image.ctx.index);
        misc.clone_from(&image.ctx.misc);
        *instrument = image.ctx.instrument;
        *fault = FaultInjector::new(FaultPlan::disabled());
        *budget = ResourceBudget::unlimited();
        *cancel = CancelToken::new();
        *query_start_cycles = 0.0;
        *query_start_arena = 0;
        tables.clone_from(&image.tables);
        indexes.clone_from(&image.indexes);
        bufpool.clone_from(&image.bufpool);
        profile.clone_from(&image.profile);
        *exec_mode = image.exec_mode;
        *selection_mode = image.selection_mode;
        *catalog_epoch = image.catalog_epoch;
        *txn = TxnState::default();
    }

    /// The engine profile in use.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Selects row-at-a-time or vectorized execution for subsequent queries.
    /// [`crate::exec::PhysicalConfig::apply`] sets this knob and the two
    /// below in one call.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// Selects branching or predicated (branch-free) row qualification for
    /// subsequent queries — the knob that attacks the T_B term, orthogonal
    /// to [`Database::set_exec_mode`] and to a table's page layout
    /// ([`Database::create_table_with_layout`]).
    pub fn set_selection_mode(&mut self, mode: SelectionMode) {
        self.selection_mode = mode;
    }

    /// Overrides the engine profile's join algorithm for subsequent queries
    /// (the knob the join-strategy comparisons turn; everything else about
    /// the profile — code paths, materialization, prefetching — stays as
    /// the system under test had it).
    pub fn set_join_algo(&mut self, algo: JoinAlgo) {
        self.profile.join_algo = algo;
    }

    /// Installs a deterministic fault plan for subsequent queries (fresh
    /// draw counters, fresh stats). [`FaultPlan::disabled`] turns injection
    /// off.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.ctx.fault = FaultInjector::new(plan);
    }

    /// Installs per-query resource guardrails, enforced cooperatively at
    /// batch/partition boundaries of subsequent queries.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.ctx.budget = budget;
    }

    /// A handle that cancels queries on this database: after
    /// [`CancelToken::cancel`], in-flight and future queries return
    /// [`DbError::Cancelled`] at their next checkpoint until the token is
    /// cleared.
    pub fn cancel_token(&self) -> CancelToken {
        self.ctx.cancel.clone()
    }

    /// Fault-injection and recovery counters collected since the plan was
    /// installed (or last [`Database::reset_robustness_stats`]).
    pub fn robustness_stats(&self) -> crate::fault::RobustnessStats {
        self.ctx.fault.stats()
    }

    /// Clears the robustness counters without disturbing the fault
    /// sequence.
    pub fn reset_robustness_stats(&mut self) {
        self.ctx.fault.reset_stats();
    }

    /// Charges the shard router's deterministic retry backoff on this
    /// database's simulated core: an exponential number of `budget_check`
    /// spins (64 · 2^attempt, capped), so backoff is visible simulated
    /// time, not hidden host sleeping, and identical runs stay cycle-exact.
    pub(crate) fn charge_backoff(&mut self, attempt: u32) {
        let blocks = Arc::clone(&self.profile.blocks);
        self.ctx
            .exec_scaled(&blocks.budget_check, 64u32 << attempt.min(8));
    }

    /// The simulated processor (counters, ledger, cycles).
    pub fn cpu(&self) -> &Cpu {
        &self.ctx.cpu
    }

    pub(crate) fn table_idx(&self, name: &str) -> DbResult<usize> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        Ok(&self.tables[self.table_idx(name)?])
    }

    pub(crate) fn index_on(&self, table: usize, col: usize) -> Option<&IndexMeta> {
        self.indexes
            .iter()
            .find(|i| i.table == table && i.col == col)
    }

    /// Creates an empty table in slotted NSM pages, the paper's layout.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<usize> {
        self.create_table_with_layout(name, schema, PageLayout::Nsm)
    }

    /// Creates an empty table with an explicit page layout (a table keeps
    /// the layout it was created with).
    pub fn create_table_with_layout(
        &mut self,
        name: &str,
        schema: Schema,
        layout: PageLayout,
    ) -> DbResult<usize> {
        if self.tables.iter().any(|t| t.name == name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        // Global page-id space: 2^20 pages per table.
        let first_page_id = (self.tables.len() as u64) << 20;
        let heap = HeapFile::with_layout(schema.record_bytes(), first_page_id, layout);
        self.tables.push(Table {
            name: name.to_string(),
            schema,
            heap,
            shard_col: 0,
        });
        self.catalog_epoch += 1;
        Ok(self.tables.len() - 1)
    }

    /// Declares the column whose hash routes this table's rows to shards
    /// under [`Database::shard`]. Tables joined in sharded execution must be
    /// co-partitioned: both sides sharded on their join key, so matching
    /// rows land on the same shard and every shard's join is local.
    pub fn set_shard_key(&mut self, table: &str, col: &str) -> DbResult<()> {
        let ti = self.table_idx(table)?;
        let ci = self.tables[ti].schema.col(col)?;
        self.tables[ti].shard_col = ci;
        Ok(())
    }

    /// Bulk-loads rows (uninstrumented, like the paper's pre-measurement
    /// load). Returns the number of rows loaded.
    pub fn load_rows<I>(&mut self, name: &str, rows: I) -> DbResult<u64>
    where
        I: IntoIterator<Item = Vec<i32>>,
    {
        let ti = self.table_idx(name)?;
        self.catalog_epoch += 1;
        let arity = self.tables[ti].schema.arity();
        let mut buf = Vec::with_capacity(arity * 4);
        let mut n = 0u64;
        for row in rows {
            if row.len() != arity {
                return Err(DbError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
            buf.clear();
            for v in &row {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            let table = &mut self.tables[ti];
            let pages_before = table.heap.n_pages();
            let rid = table.heap.insert_raw(&mut self.ctx.heap, &buf)?;
            if table.heap.n_pages() != pages_before {
                let page_no = table.heap.n_pages() - 1;
                let addr = table.heap.page_addr(page_no)?;
                self.bufpool
                    .register(&mut self.ctx.misc, table.heap.page_id(page_no), addr);
            }
            // Maintain any existing indexes.
            let indexed: Vec<(usize, usize)> = self
                .indexes
                .iter()
                .enumerate()
                .filter(|(_, ix)| ix.table == ti)
                .map(|(i, ix)| (i, ix.col))
                .collect();
            for (ix_pos, col) in indexed {
                let key = row[col];
                self.indexes[ix_pos]
                    .btree
                    .insert(&mut self.ctx.index, key, rid.pack());
            }
            n += 1;
        }
        Ok(n)
    }

    /// Builds a non-clustered B+tree index on `table.col` (uninstrumented —
    /// "the range selection was resubmitted after constructing a
    /// non-clustered index on R.a2", §3.3).
    pub fn create_index(&mut self, name: &str, col: &str) -> DbResult<()> {
        let ti = self.table_idx(name)?;
        let ci = self.tables[ti].schema.col(col)?;
        if self.index_on(ti, ci).is_some() {
            return Err(DbError::IndexExists(format!("{name}.{col}")));
        }
        let mut btree = BTree::new(&mut self.ctx.index);
        let table = &self.tables[ti];
        for page_no in 0..table.heap.n_pages() {
            let page = table.heap.page_addr(page_no)?;
            let nrecs = self.ctx.heap.read_i32(page + HDR_NRECS) as u32;
            for slot in 0..nrecs {
                let key = self
                    .ctx
                    .heap
                    .read_i32(table.heap.field_addr_at(page, slot, ci));
                btree.insert(
                    &mut self.ctx.index,
                    key,
                    Rid {
                        page: page_no,
                        slot,
                    }
                    .pack(),
                );
            }
        }
        self.indexes.push(IndexMeta {
            table: ti,
            col: ci,
            btree,
        });
        self.catalog_epoch += 1;
        Ok(())
    }

    /// Charges the per-transaction begin/commit overhead path (logging,
    /// latching, connection bookkeeping). OLTP drivers call this once per
    /// transaction; its large, rarely-resident footprint is one reason the
    /// paper's TPC-C profile is instruction-miss heavy (§5.5).
    pub fn txn_overhead(&mut self) {
        let blocks = Arc::clone(&self.profile.blocks);
        self.ctx.exec(&blocks.txn_begin_commit);
    }

    /// Touches one client connection's session working memory (sort areas,
    /// private SQL area, network buffers). With ~10 concurrent clients the
    /// combined session state exceeds the L2, so every transaction drags its
    /// client's state back through memory — a large share of TPC-C's L2
    /// data stalls (§5.5: "60%-80% of the time is spent in memory-related
    /// stalls", dominated by L2).
    pub fn session_touch(&mut self, client: u32, bytes: u32) {
        const CLIENT_STRIDE: u64 = 128 * 1024;
        let base = segment::MISC + 0x0800_0000 + client as u64 * CLIENT_STRIDE;
        let lines = (bytes.min(CLIENT_STRIDE as u32) / 32).max(1);
        for l in 0..lines as u64 {
            let addr = base + l * 32;
            if l % 3 == 0 {
                self.ctx.store_touch(addr, 8, MemDep::Demand);
            } else {
                self.ctx.touch(addr, 8, MemDep::Demand);
            }
        }
    }

    /// Runs a grouped aggregation: `select group_col, AGG(agg_col) from
    /// table [where predicate] group by group_col`, returning
    /// `(group, value)` pairs in ascending group order. TPC-D's original
    /// queries are grouped aggregates (e.g. Q1 groups on return flag).
    ///
    /// One crossing of the entry gate (`Database::gated`); prefer
    /// [`crate::sql::Session::sql_grouped`] for new code.
    pub fn run_grouped(
        &mut self,
        table: &str,
        group_col: &str,
        predicate: Option<&QueryPredicate>,
        agg: &AggSpec,
    ) -> DbResult<Vec<(i32, f64)>> {
        let stmt = BoundStatement::grouped(table, group_col, predicate, agg);
        let partial = self.gated(|db| db.agg_partial(&stmt, None))?;
        Ok(groups(partial.render(agg.kind)))
    }

    /// Explains how this engine would execute `stmt` (the plan shape and the
    /// profile-specific execution strategy) without running it. A grouped
    /// aggregate renders as a `GroupBy` step over the access path its
    /// scalar twin would take.
    pub fn explain(&self, stmt: &BoundStatement) -> DbResult<String> {
        let strategy = if self.profile.eval_mode == EvalMode::Interpreted {
            "interpreted"
        } else {
            "compiled"
        };
        if let Some((table, predicate, agg, group_col)) = stmt.scan_parts() {
            let ti = self.table_idx(table)?;
            let agg_str = format!("{:?}({})", agg.kind, agg.col);
            let head = match group_col {
                None => format!("Agg[{agg_str}]"),
                Some(g) => format!("GroupBy[{g}: {agg_str}]"),
            };
            let path = match (predicate, self.range_index(ti, predicate)?) {
                (Some(QueryPredicate::Range { col, lo, hi }), Some(_)) => format!(
                    "IndexRangeScan[{table}.{col} in ({lo},{hi}), non-clustered B+tree, \
                     fetch via buffer pool]"
                ),
                (Some(QueryPredicate::Range { col, lo, hi }), None) => format!(
                    "Filter[{lo} < {col} < {hi}, {strategy} range check]\n    \
                     SeqScan[{table}, {:?}{}]",
                    self.profile.materialize,
                    if self.profile.prefetch_lines_ahead > 0 {
                        format!(
                            ", prefetch {} lines ahead",
                            self.profile.prefetch_lines_ahead
                        )
                    } else {
                        String::new()
                    }
                ),
                (Some(QueryPredicate::Expr(e)), _) => format!(
                    "Filter[{strategy} expression, {} nodes]\n    SeqScan[{table}]",
                    e.node_count()
                ),
                (None, _) => format!("SeqScan[{table}]"),
            };
            return Ok(format!("{head}\n  {path}"));
        }
        match stmt {
            BoundStatement::Scalar(Query::JoinAgg {
                left,
                right,
                left_col,
                right_col,
                agg,
            }) => {
                let ri = self.table_idx(right)?;
                let rkey = self.tables[ri].schema.col(right_col)?;
                let algo = if self.inl_index(ri, rkey).is_some() {
                    format!("IndexNLJoin[{right}.{right_col} B+tree probe per outer row]")
                } else if self.profile.join_algo == JoinAlgo::PartitionedHash {
                    format!(
                        "PartitionedHashJoin[radix-scatter {right}.{right_col} and \
                         {left}.{left_col} into L2-sized partitions, build+probe per partition]"
                    )
                } else {
                    format!("HashJoin[build {right}.{right_col}, probe {left}.{left_col}]")
                };
                Ok(format!(
                    "Agg[{:?}({})]\n  {algo}\n    SeqScan[{left}] / SeqScan[{right}]",
                    agg.kind, agg.col
                ))
            }
            BoundStatement::Scalar(Query::PointSelect {
                table,
                key_col,
                key,
                ..
            }) => Ok(format!(
                "PointSelect[{table}.{key_col} = {key} via B+tree, fetch via buffer pool]"
            )),
            BoundStatement::Scalar(Query::UpdateAdd {
                table,
                key_col,
                key,
                set_col,
                delta,
            }) => Ok(format!(
                "Update[{table}.{set_col} += {delta} where {key_col} = {key}, via B+tree]"
            )),
            BoundStatement::Scalar(Query::InsertRow { table, .. }) => {
                Ok(format!("Insert[{table} heap append + index maintenance]"))
            }
            BoundStatement::Scalar(Query::SelectAgg { .. }) | BoundStatement::Grouped { .. } => {
                unreachable!("single-table aggregates are explained above")
            }
        }
    }

    /// The engine's one entry gate and survival boundary: the per-query
    /// budget baselines reset here, a pending [`CancelToken::cancel`] is
    /// honored before any work, and any residual executor panic (an
    /// invariant violation rather than a typed error) is caught and
    /// converted to [`DbError::Internal`], so one bad query can never take
    /// down the engine. [`Database::run`], [`Database::run_grouped`],
    /// [`Database::txn_run`] and every per-shard attempt of the shard
    /// router ([`crate::shard`]) cross it exactly once per statement.
    pub(crate) fn gated<T>(
        &mut self,
        body: impl FnOnce(&mut Database) -> DbResult<T>,
    ) -> DbResult<T> {
        self.ctx.begin_query();
        if self.ctx.cancel.is_cancelled() {
            return Err(DbError::Cancelled);
        }
        catch_internal(|| body(self))
    }

    /// The execution environment operators run in: this database's
    /// instrumented context, buffer pool and execution mode.
    pub(crate) fn env(&mut self) -> ExecEnv<'_> {
        ExecEnv {
            ctx: &mut self.ctx,
            bufpool: &self.bufpool,
            mode: self.exec_mode,
        }
    }

    /// Runs a query through the engine's planner and instrumented executor
    /// (one crossing of the entry gate, `Database::gated`). Prefer
    /// [`crate::sql::Session::sql`], which also picks the physical knobs,
    /// for new code.
    pub fn run(&mut self, q: &Query) -> DbResult<QueryResult> {
        self.gated(|db| match q {
            Query::SelectAgg { agg, .. } | Query::JoinAgg { agg, .. } => {
                let partial = db.agg_partial(&BoundStatement::Scalar(q.clone()), None)?;
                Ok(scalar(partial.render(agg.kind)))
            }
            Query::PointSelect {
                table,
                key_col,
                key,
                read_col,
            } => db.point_select(table, key_col, *key, read_col),
            Query::UpdateAdd {
                table,
                key_col,
                key,
                set_col,
                delta,
            } => db.update_add(table, key_col, *key, set_col, *delta),
            Query::InsertRow { table, values } => db.insert_row(table, values.clone()),
        })
    }

    /// Cancellation + budget checkpoint between morsels (not before the
    /// first — [`Database::gated`] already checked). A pure check: no
    /// simulated cost, so the counter stream depends only on the morsel
    /// decomposition.
    fn morsel_checkpoint(&mut self, morsel_no: usize) -> DbResult<()> {
        if morsel_no > 0 {
            if self.ctx.cancel.is_cancelled() {
                return Err(DbError::Cancelled);
            }
            self.ctx.enforce_budget()?;
        }
        Ok(())
    }

    /// Runs an aggregate statement — a scalar or grouped single-table
    /// aggregate, or a join — to its exact [`Partial`] instead of the
    /// rendered answer. [`Database::run`] and [`Database::run_grouped`]
    /// render it; sharded execution runs this per shard and merges the
    /// partials, so the merged answer is bit-identical to a single-shard run.
    ///
    /// `morsel_rows: None` plans one unbounded scan — with **no** page
    /// range at all, not a `(0, MAX)` bound. `Some(rows)` executes the
    /// statement as a sequence of page-aligned morsels of roughly `rows`
    /// rows each, whose partials merge exactly.
    ///
    /// The morsels of one database run **in order on its own simulated
    /// core**, so the instruction/data stream the cache and branch
    /// simulators see is a pure function of the morsel decomposition —
    /// never of which OS thread runs it or when. That is the determinism
    /// contract the parallel scheduler is built on: for a fixed
    /// `morsel_rows`, any schedule produces bit-identical counters, and a
    /// single whole-table morsel (`morsel_rows ≥ rows`) reproduces the
    /// unbounded run cycle-exactly.
    ///
    /// Each morsel boundary is also a cancellation and budget checkpoint
    /// (a pure check — no simulated cost — so the counter stream still
    /// depends only on the morsel decomposition), and `query_setup` is
    /// charged on the first morsel only, so the whole morsel sequence costs
    /// exactly what one unbounded run does.
    pub(crate) fn agg_partial(
        &mut self,
        stmt: &BoundStatement,
        morsel_rows: Option<u32>,
    ) -> DbResult<Partial> {
        let ranges = match morsel_rows {
            None => vec![None],
            Some(m) => self.morsel_ranges(stmt, m)?,
        };
        let blocks = Arc::clone(&self.profile.blocks);
        let mut acc = Partial::new(matches!(stmt, BoundStatement::Grouped { .. }));
        for (i, range) in ranges.into_iter().enumerate() {
            self.morsel_checkpoint(i)?;
            let mut agg_exec = self.plan_agg(stmt, range)?;
            let mut env = self.env();
            if i == 0 {
                env.ctx.exec(&blocks.query_setup);
            }
            acc.merge(agg_exec.run_partial(&mut env)?);
        }
        Ok(acc)
    }

    /// Splits `stmt`'s outer scan into page-aligned morsel ranges of roughly
    /// `morsel_rows` rows each. Plan shapes whose cost is not page-linear —
    /// joins (the build side reads the whole inner table) and B+tree index
    /// range scans — get a single whole-table morsel, so morselization
    /// never changes *what* a plan does, only how a seq scan is sliced. A
    /// morsel is at least one page (the page is the unit of the buffer-pool
    /// open path); an empty heap still yields one `(0, 0)` morsel so
    /// `query_setup` is charged exactly once, as in an unbounded scan.
    fn morsel_ranges(
        &self,
        stmt: &BoundStatement,
        morsel_rows: u32,
    ) -> DbResult<Vec<Option<(u32, u32)>>> {
        let Some((table, predicate, ..)) = stmt.scan_parts() else {
            return Ok(vec![None]);
        };
        let ti = self.table_idx(table)?;
        if self.range_index(ti, predicate)?.is_some() {
            return Ok(vec![None]);
        }
        let heap = &self.tables[ti].heap;
        let n_pages = heap.n_pages();
        if n_pages == 0 {
            return Ok(vec![Some((0, 0))]);
        }
        let per = (morsel_rows.max(1) as u64)
            .div_ceil(heap.page_cap as u64)
            .max(1) as u32;
        Ok((0..n_pages)
            .step_by(per as usize)
            .map(|p| Some((p, (p + per).min(n_pages))))
            .collect())
    }

    /// The index a range predicate runs on: the predicate's column is
    /// indexed and the engine's optimizer uses indexes for range selections
    /// (System A's does not). The one place the index-versus-scan choice is
    /// made.
    fn range_index(
        &self,
        ti: usize,
        predicate: Option<&QueryPredicate>,
    ) -> DbResult<Option<&IndexMeta>> {
        let Some(QueryPredicate::Range { col, .. }) = predicate else {
            return Ok(None);
        };
        let ci = self.tables[ti].schema.col(col)?;
        Ok(if self.profile.use_index_for_range {
            self.index_on(ti, ci)
        } else {
            None
        })
    }

    /// The inner index an index-nested-loop join probes; `None` — a hash
    /// join, naive or partitioned — when the profile picks another
    /// algorithm or the inner key has no index. The one place that fallback
    /// is decided.
    fn inl_index(&self, ri: usize, rkey: usize) -> Option<&IndexMeta> {
        if self.profile.join_algo == JoinAlgo::IndexNestedLoop {
            self.index_on(ri, rkey)
        } else {
            None
        }
    }

    /// A sequential scan of table `ti` producing `cols`, with the
    /// profile's materialization and prefetch, over heap pages
    /// `[first, end)` of `range` (the whole heap when `None`).
    fn seq_scan(&self, ti: usize, cols: Vec<usize>, range: Option<(u32, u32)>) -> SeqScan {
        let scan = SeqScan::new(
            self.tables[ti].heap.clone(),
            cols,
            Arc::clone(&self.profile.blocks),
            self.profile.materialize,
            self.profile.prefetch_lines_ahead,
        );
        match range {
            Some((first, end)) => scan.with_page_range(first, end),
            None => scan,
        }
    }

    /// The planner half of [`Database::agg_partial`], with an optional
    /// heap-page bound on the outer sequential scan — the morsel hook.
    /// `None` plans the whole table; `Some((first, end))` plans one
    /// morsel's page range. Only a single-table aggregate's seq-scan path
    /// is ever planned with a bound ([`Database::morsel_ranges`] hands every
    /// other plan shape a single unbounded morsel).
    ///
    /// A grouped aggregate is its scalar twin with the group column added
    /// to the scan and handed to the aggregate on top: the same access
    /// path, index or scan, under the same [`AggExec`].
    fn plan_agg(&self, stmt: &BoundStatement, range: Option<(u32, u32)>) -> DbResult<AggExec> {
        let Some((table, predicate, agg, group_col)) = stmt.scan_parts() else {
            return self.plan_join(stmt);
        };
        let blocks = Arc::clone(&self.profile.blocks);
        let ti = self.table_idx(table)?;
        let schema = &self.tables[ti].schema;
        let group = group_col.map(|g| schema.col(g)).transpose()?;
        let agg_col = if matches!(agg.kind, AggKind::Count) && agg.col.is_empty() {
            0
        } else {
            schema.col(&agg.col)?
        };

        // Column set the scan must produce: aggregate and group columns
        // plus predicate columns.
        let mut cols = vec![agg_col];
        cols.extend(group);
        match predicate {
            None => {}
            Some(QueryPredicate::Range { col, .. }) => cols.push(schema.col(col)?),
            Some(QueryPredicate::Expr(e)) => {
                if e.max_col().unwrap_or(0) >= schema.arity() {
                    return Err(DbError::PlanError("predicate column out of range".into()));
                }
                cols.extend(e.cols());
            }
        }
        cols.sort_unstable();
        cols.dedup();
        let agg_pos = scan_pos(&cols, agg_col)?;
        let group_pos = group.map(|g| scan_pos(&cols, g)).transpose()?;

        let child: Box<dyn Operator> = match (predicate, self.range_index(ti, predicate)?) {
            (Some(QueryPredicate::Range { lo, hi, .. }), Some(ix)) => Box::new(
                IndexRangeScan::new(
                    ix.btree.clone(),
                    *lo,
                    *hi,
                    self.tables[ti].heap.clone(),
                    cols,
                    Arc::clone(&blocks),
                )
                .with_full_materialization(
                    self.profile.materialize == crate::profiles::Materialize::FullRecord,
                ),
            ),
            (None, _) => Box::new(self.seq_scan(ti, cols, range)),
            (Some(pred), _) => {
                let pexec = match pred {
                    QueryPredicate::Range { col, lo, hi } => PredicateExec::Range {
                        col: scan_pos(&cols, schema.col(col)?)?,
                        lo: *lo,
                        hi: *hi,
                    },
                    // Remap expression columns to scan output.
                    QueryPredicate::Expr(e) => PredicateExec::Expr(remap_expr(e, &cols)?),
                };
                Box::new(Filter::new(
                    Box::new(self.seq_scan(ti, cols, range)),
                    pexec,
                    Arc::clone(&blocks),
                    self.profile.eval_mode == EvalMode::Interpreted,
                    self.selection_mode,
                ))
            }
        };
        Ok(AggExec::new(child, agg_pos, group_pos, blocks))
    }

    /// [`Database::plan_agg`] for a join: a sequential probe scan of the
    /// left table under the profile's join algorithm, aggregated on top.
    fn plan_join(&self, stmt: &BoundStatement) -> DbResult<AggExec> {
        let BoundStatement::Scalar(Query::JoinAgg {
            left,
            right,
            left_col,
            right_col,
            agg,
        }) = stmt
        else {
            return Err(DbError::PlanError(
                "not an aggregate query (point operations have no partial form)".into(),
            ));
        };
        let blocks = Arc::clone(&self.profile.blocks);
        let li = self.table_idx(left)?;
        let ri = self.table_idx(right)?;
        let lschema = &self.tables[li].schema;
        let lkey = lschema.col(left_col)?;
        let rkey = self.tables[ri].schema.col(right_col)?;
        let agg_col = lschema.col(&agg.col)?;
        let mut lcols = vec![lkey, agg_col];
        lcols.sort_unstable();
        lcols.dedup();
        let lkey_pos = scan_pos(&lcols, lkey)?;
        let agg_pos = scan_pos(&lcols, agg_col)?;

        let probe = Box::new(self.seq_scan(li, lcols, None));
        let join: Box<dyn Operator> = match self.inl_index(ri, rkey) {
            Some(ix) => Box::new(IndexNlJoin::new(
                probe,
                lkey_pos,
                ix.btree.clone(),
                self.tables[ri].heap.clone(),
                vec![rkey],
                Arc::clone(&blocks),
            )),
            None => {
                let build = Box::new(self.seq_scan(ri, vec![rkey], None));
                match self.profile.join_algo {
                    JoinAlgo::PartitionedHash => Box::new(PartitionedHashJoin::new(
                        build,
                        0,
                        probe,
                        lkey_pos,
                        Arc::clone(&blocks),
                        self.ctx.cpu.config().l2.size_bytes,
                    )),
                    _ => Box::new(HashJoin::new(
                        build,
                        0,
                        probe,
                        lkey_pos,
                        Arc::clone(&blocks),
                    )),
                }
            }
        };
        Ok(AggExec::new(join, agg_pos, None, blocks))
    }

    /// The walk both autocommit point operations share: resolves the index
    /// on `table.key_col` and the ordinal of `table.col`, then visits every
    /// index entry equal to `key`, fetching each record *as it is found* —
    /// leaf walk interleaved with record fetches, unlike the `txn_*` twins
    /// in [`crate::txn`], which collect rids first (a different access
    /// stream, so the two pairs must not share this). `visit` gets the
    /// record's rid and the simulated address of its `col` field. Returns
    /// the table and `col` ordinals.
    fn for_each_match(
        &mut self,
        table: &str,
        key_col: &str,
        key: i32,
        col: &str,
        mut visit: impl FnMut(&mut ExecEnv<'_>, Rid, u64) -> DbResult<()>,
    ) -> DbResult<(usize, usize)> {
        let ti = self.table_idx(table)?;
        let kc = self.tables[ti].schema.col(key_col)?;
        let c = self.tables[ti].schema.col(col)?;
        let ix = self
            .index_on(ti, kc)
            .ok_or_else(|| DbError::IndexNotFound(format!("{table}.{key_col}")))?;
        let btree = ix.btree.clone();
        let heap = self.tables[ti].heap.clone();
        let blocks = Arc::clone(&self.profile.blocks);
        let mut env = self.env();
        let mut cursor = descend_to_leaf(&mut env, &btree, key, &blocks);
        while let Some((k, rid)) = cursor.next_entry(&mut env, &blocks) {
            if k != key {
                break;
            }
            let rid = Rid::unpack(rid);
            let frame = fetch_record(&mut env, &heap, rid, &blocks)?;
            visit(&mut env, rid, heap.field_addr_at(frame, rid.slot, c))?;
        }
        Ok((ti, c))
    }

    /// Instrumented point lookup through the index on `key_col`; returns the
    /// value of `read_col` of the first match plus the match count.
    pub fn point_select(
        &mut self,
        table: &str,
        key_col: &str,
        key: i32,
        read_col: &str,
    ) -> DbResult<QueryResult> {
        let mut out = QueryResult {
            value: 0.0,
            rows: 0,
        };
        self.for_each_match(table, key_col, key, read_col, |env, _, addr| {
            let v = env.ctx.load_i32(addr, MemDep::Chase);
            if out.rows == 0 {
                out.value = v as f64;
            }
            out.rows += 1;
            Ok(())
        })?;
        Ok(out)
    }

    /// Instrumented single-row update: adds `delta` to `set_col` of every
    /// row whose `key_col` equals `key` (found via the index), as an
    /// implicit single-statement transaction.
    ///
    /// Two-phase: every row is located and its new value computed with
    /// `checked_add` *before* anything mutates, so an overflowing addition
    /// ([`DbError::ValueOverflow`]) or a mid-statement fault
    /// ([`DbError::PageCorrupt`], ...) leaves the table untouched — no
    /// silent wraparound and no partially-applied multi-row update. Phase
    /// two installs the write set as [`Database::commit`] does.
    pub fn update_add(
        &mut self,
        table: &str,
        key_col: &str,
        key: i32,
        set_col: &str,
        delta: i32,
    ) -> DbResult<QueryResult> {
        let blocks = Arc::clone(&self.profile.blocks);
        // Phase 1: locate and compute (instrumented reads, no mutation).
        let mut updates: Vec<(u64, i32)> = Vec::new();
        let (ti, sc) = self.for_each_match(table, key_col, key, set_col, |env, rid, addr| {
            env.ctx.exec(&blocks.update_step);
            let v = env.ctx.load_i32(addr, MemDep::Chase);
            let nv = v.checked_add(delta).ok_or_else(|| DbError::ValueOverflow {
                table: table.to_string(),
                col: set_col.to_string(),
                key,
            })?;
            updates.push((rid.pack(), nv));
            Ok(())
        })?;
        let Some(&(_, last)) = updates.last() else {
            return Ok(QueryResult {
                value: 0.0,
                rows: 0,
            });
        };
        // Phase 2: install under a fresh transaction id.
        let writes: WriteSet = updates
            .iter()
            .map(|&(rid, nv)| ((ti, rid), BTreeMap::from([(sc, nv)])))
            .collect();
        let id = self.fresh_txn_id();
        self.install(id, &writes, &[])?;
        Ok(QueryResult {
            value: last as f64,
            rows: updates.len() as u64,
        })
    }

    /// Instrumented single-row insert (heap append + index maintenance), as
    /// an implicit single-statement transaction installed as
    /// [`Database::commit`] does. All-or-nothing: every fallible step (arena
    /// headroom, fault-injection seams) is validated before any byte
    /// changes, and a residual index-maintenance failure unwinds the heap
    /// append. A failure past the arity check aborts like a failed commit.
    pub fn insert_row(&mut self, table: &str, values: Vec<i32>) -> DbResult<QueryResult> {
        let ti = self.table_idx(table)?;
        let arity = self.tables[ti].schema.arity();
        if values.len() != arity {
            return Err(DbError::ArityMismatch {
                expected: arity,
                got: values.len(),
            });
        }
        let id = self.fresh_txn_id();
        self.install(id, &WriteSet::new(), &[(ti, values)])?;
        Ok(QueryResult {
            value: 0.0,
            rows: 1,
        })
    }

    /// The rows of table `ti` in heap order, read raw (uninstrumented) and
    /// decoded one at a time, so a caller that loads them elsewhere never
    /// holds the table twice. Used by [`Database::shard`] to re-partition
    /// loaded data and by the SQL planner ([`crate::sql`]) to load its pilot
    /// images from a prefix.
    pub(crate) fn rows_of(&self, ti: usize) -> impl Iterator<Item = Vec<i32>> + '_ {
        let t = &self.tables[ti];
        let heap = &self.ctx.heap;
        t.heap.pages.iter().flat_map(move |&page| {
            let nrecs = heap.read_i32(page + HDR_NRECS) as u32;
            (0..nrecs).map(move |slot| {
                (0..t.schema.arity())
                    .map(|c| heap.read_i32(t.heap.field_addr_at(page, slot, c)))
                    .collect()
            })
        })
    }

    /// Splits this database into `n` hash-partitioned shards.
    ///
    /// Each shard is a complete [`Database`] — its own deterministic
    /// [`Cpu`] (cold, so every block's rotation starts at zero), arenas,
    /// buffer pool, catalog and indexes — holding the rows
    /// whose shard-key hash routes to it (see [`Database::set_shard_key`];
    /// the routing hash is the radix-join multiplicative hash, taken from
    /// the *high* bits so it composes with the partitioned join's low-bit
    /// scatter inside each shard). Engine profile, execution mode, page
    /// layouts, selection mode and secondary indexes are all reproduced per
    /// shard, so every existing operator runs unchanged on its partition;
    /// the profile's code blocks are shared, not copied.
    ///
    /// Re-partitioning is an uninstrumented bulk operation, like the
    /// paper's pre-measurement loads (§4.3). `n = 1` yields a trivially
    /// sharded database with identical behaviour to `self`.
    pub fn shard(self, n: usize) -> DbResult<ShardedDatabase> {
        let n = n.max(1);
        let cfg = self.ctx.cpu.config().clone();
        // Every shard's page table is sized for the WHOLE table set, not a
        // uniform 1/n split: hash partitioning guarantees no balance (a
        // skewed — or constant — shard key can route every row to one
        // shard), and an undersized table panics "page table full" during
        // the re-partition. Page-table slots are cheap simulated memory,
        // and full-size tables also give every shard the same probe
        // geometry as the 1-shard pool.
        let total_pages: u64 = self.tables.iter().map(|t| t.heap.n_pages() as u64).sum();
        let per_shard_pages = total_pages + 1024;
        let mut shards: Vec<Database> = (0..n)
            .map(|_| {
                let mut db =
                    Database::with_capacity(self.profile.clone(), cfg.clone(), per_shard_pages);
                db.exec_mode = self.exec_mode;
                db.selection_mode = self.selection_mode;
                db.ctx.instrument = false;
                db
            })
            .collect();
        for (ti, t) in self.tables.iter().enumerate() {
            let mut routed: Vec<Vec<Vec<i32>>> = vec![Vec::new(); n];
            for row in self.rows_of(ti) {
                routed[shard_of(row[t.shard_col], n)].push(row);
            }
            for (s, part) in shards.iter_mut().zip(routed) {
                let created =
                    s.create_table_with_layout(&t.name, t.schema.clone(), t.heap.layout)?;
                s.tables[created].shard_col = t.shard_col;
                s.load_rows(&t.name, part)?;
            }
        }
        for ix in &self.indexes {
            let tname = &self.tables[ix.table].name;
            let cname = &self.tables[ix.table].schema.columns()[ix.col].name;
            for s in &mut shards {
                s.create_index(tname, cname)?;
            }
        }
        for (i, s) in shards.iter_mut().enumerate() {
            s.ctx.instrument = self.ctx.instrument;
            // Robustness knobs carry over: every shard runs under the same
            // budget, and under a per-shard salted derivation of the fault
            // plan (deterministic, but shards do not fault in lockstep).
            s.set_fault_plan(self.ctx.fault.plan().for_shard(i));
            s.set_budget(self.ctx.budget);
            // All shards share the parent's cancellation flag, so one token
            // (possibly held by another thread) cancels the whole sharded
            // query — including morsels already in flight on worker threads.
            s.ctx.cancel = self.ctx.cancel.clone();
        }
        Ok(ShardedDatabase::from_shards(shards))
    }
}

/// Runs `f`, converting any panic into [`DbError::Internal`] so executor
/// invariant violations surface as query errors instead of aborting the
/// process. `AssertUnwindSafe` is sound here: the database is only observed
/// again after the next query's [`DbCtx::begin_query`] resets per-query
/// state, and the arenas/counters tolerate a half-finished query (bump
/// allocation never leaves dangling references).
pub(crate) fn catch_internal<T>(f: impl FnOnce() -> DbResult<T>) -> DbResult<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "executor panicked".to_string()
            };
            Err(DbError::Internal(msg))
        }
    }
}

/// Fetches a record's page by rid through the buffer pool (instrumented);
/// returns the page frame address. Field addresses within the page come from
/// [`HeapFile::field_addr_at`], which resolves the file's layout (NSM record
/// offset or PAX minipage entry). Shared by index scans and point ops.
pub(crate) fn fetch_record(
    env: &mut ExecEnv<'_>,
    heap: &HeapFile,
    rid: Rid,
    blocks: &crate::profiles::EngineBlocks,
) -> DbResult<u64> {
    env.ctx.exec(&blocks.rid_fetch);
    env.ctx.exec(&blocks.bufpool_get);
    fetch_record_data(env, heap, rid)
}

/// The data-access half of [`fetch_record`]: page-table probe traffic and
/// the page-header read, without the per-call code blocks. Batched index
/// scans charge the blocks once per batch and call this per record.
pub(crate) fn fetch_record_data(env: &mut ExecEnv<'_>, heap: &HeapFile, rid: Rid) -> DbResult<u64> {
    if rid.slot >= heap.page_cap {
        return Err(DbError::BadRid);
    }
    let page_id = heap.page_id(rid.page);
    let frame = env.lookup_page(page_id, MemDep::Chase)?;
    // Page header read (latch/validity check) — the page is random, so this
    // is usually another cold line. The stored page id rides on the same
    // header line, so verifying it costs no extra simulated traffic; a
    // mismatch means the frame does not hold the page the page table said
    // it does, reported as corruption rather than silently reading garbage.
    env.ctx.touch(frame + HDR_NRECS, 8, MemDep::Chase);
    if env.ctx.heap.read_u64(frame + HDR_PAGEID) != page_id {
        return Err(DbError::PageCorrupt { page_id });
    }
    debug_assert_eq!(frame, heap.page_addr(rid.page)?);
    Ok(frame)
}

/// Charges the demand reads of every field of `slot` on the page at
/// `page_addr`: one contiguous `record_size` span under NSM, one 4-byte
/// touch per minipage under PAX (same bytes, different lines). Used by
/// full-record materialization paths.
pub(crate) fn touch_record_fields(
    ctx: &mut DbCtx,
    heap: &HeapFile,
    page_addr: u64,
    slot: u32,
    dep: MemDep,
) {
    match heap.layout {
        PageLayout::Nsm => {
            ctx.touch(
                heap.field_addr_at(page_addr, slot, 0),
                heap.record_size,
                dep,
            );
        }
        PageLayout::Pax => {
            for c in 0..heap.n_fields() as usize {
                ctx.touch(heap.field_addr_at(page_addr, slot, c), 4, dep);
            }
        }
    }
}

/// The store-side twin of [`touch_record_fields`] (heap appends/updates).
pub(crate) fn store_record_fields(
    ctx: &mut DbCtx,
    heap: &HeapFile,
    page_addr: u64,
    slot: u32,
    dep: MemDep,
) {
    match heap.layout {
        PageLayout::Nsm => {
            ctx.store_touch(
                heap.field_addr_at(page_addr, slot, 0),
                heap.record_size,
                dep,
            );
        }
        PageLayout::Pax => {
            for c in 0..heap.n_fields() as usize {
                ctx.store_touch(heap.field_addr_at(page_addr, slot, c), 4, dep);
            }
        }
    }
}

/// Position of table column `c` in the scan's output column set.
///
/// The planner builds `cols` to contain every column a plan references, so
/// a miss means a plan-construction bug (a column referenced after being
/// projected away). It used to be an `.expect("present")` — which in a
/// release build would take the whole process down on a malformed plan —
/// and is now surfaced as a [`DbError::PlanError`] the caller can handle.
fn scan_pos(cols: &[usize], c: usize) -> DbResult<usize> {
    cols.iter().position(|&x| x == c).ok_or_else(|| {
        DbError::PlanError(format!(
            "column {c} is not in the scan's output column set {cols:?} \
             (referenced after being projected away)"
        ))
    })
}

/// Rewrites an expression over table columns into one over the scan's output
/// column positions. A column outside the scan set is a planner bug,
/// reported as a [`DbError::PlanError`] rather than a panic.
fn remap_expr(e: &crate::expr::Expr, cols: &[usize]) -> DbResult<crate::expr::Expr> {
    use crate::expr::Expr;
    Ok(match e {
        Expr::Col(c) => Expr::Col(scan_pos(cols, *c)?),
        Expr::Const(v) => Expr::Const(*v),
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(remap_expr(a, cols)?),
            Box::new(remap_expr(b, cols)?),
        ),
        Expr::And(a, b) => Expr::And(
            Box::new(remap_expr(a, cols)?),
            Box::new(remap_expr(b, cols)?),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(remap_expr(a, cols)?),
            Box::new(remap_expr(b, cols)?),
        ),
        Expr::Not(a) => Expr::Not(Box::new(remap_expr(a, cols)?)),
        Expr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(remap_expr(a, cols)?),
            Box::new(remap_expr(b, cols)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_internal_converts_panics_to_typed_errors() {
        // Silence the default hook's stderr backtrace for the deliberate
        // panic; restore it so other tests report normally.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let str_panic: DbResult<()> = catch_internal(|| panic!("invariant broken"));
        let string_panic: DbResult<()> = catch_internal(|| panic!("rid {} out of bounds", 42));
        let ok: DbResult<u32> = catch_internal(|| Ok(7));
        let passthrough: DbResult<()> = catch_internal(|| Err(DbError::Cancelled));
        std::panic::set_hook(prev);

        assert_eq!(
            str_panic,
            Err(DbError::Internal("invariant broken".to_string()))
        );
        assert_eq!(
            string_panic,
            Err(DbError::Internal("rid 42 out of bounds".to_string()))
        );
        assert_eq!(ok, Ok(7));
        assert_eq!(passthrough, Err(DbError::Cancelled));
    }
}
