//! Engine profiles for the four anonymous commercial systems.
//!
//! The paper characterizes Systems A–D only through counter readings; the
//! profiles below are four differently engineered configurations of the same
//! relational engine whose *implementation choices* are chosen to match the
//! paper's per-system observations. Every constant is a calibration input and
//! is annotated with the observation it targets:
//!
//! * **System A** — lean compiled execution: fewest instructions per record
//!   (Fig 5.3, SRS), smallest T_M and T_B, but the highest resource stalls
//!   (20–40%, Fig 5.1) with T_FU above T_DEP on range selections (Fig 5.5);
//!   its optimizer does not use the non-clustered index for the indexed
//!   range selection (Fig 5.1 middle graph omits A).
//! * **System B** — cache-conscious data access: scan-time prefetch gives an
//!   L2 data miss rate of ≈2% on the sequential selection (§5.2.1), yet
//!   memory stalls jump to ≈50% on the indexed selection where prefetch
//!   cannot help.
//! * **System C** — interpreted generalist: tree-walking expression
//!   evaluator, full record materialization, L2 data miss rates in the
//!   40–90% band (§5.2.1).
//! * **System D** — biggest code footprint: highest instructions/record on
//!   IRS/SJ (Fig 5.3), L1I stalls up to ~40% (§5.2.2); used for the
//!   selectivity sweep of Fig 5.4 (right).

use std::sync::Arc;

use wdtg_sim::{segment, BranchSite, CodeBlock, SegmentAlloc};

/// Which of the paper's four anonymous systems a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemId {
    /// System A.
    A,
    /// System B.
    B,
    /// System C.
    C,
    /// System D.
    D,
}

impl SystemId {
    /// All four systems, in paper order.
    pub const ALL: [SystemId; 4] = [SystemId::A, SystemId::B, SystemId::C, SystemId::D];

    /// Display name ("System A").
    pub fn name(self) -> &'static str {
        match self {
            SystemId::A => "System A",
            SystemId::B => "System B",
            SystemId::C => "System C",
            SystemId::D => "System D",
        }
    }

    /// Short label ("A").
    pub fn letter(self) -> &'static str {
        match self {
            SystemId::A => "A",
            SystemId::B => "B",
            SystemId::C => "C",
            SystemId::D => "D",
        }
    }

    fn ordinal(self) -> u64 {
        match self {
            SystemId::A => 0,
            SystemId::B => 1,
            SystemId::C => 2,
            SystemId::D => 3,
        }
    }
}

/// How the scan produces tuples from records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialize {
    /// Read only the referenced fields (lean engines).
    FieldsOnly,
    /// Copy the whole record into a tuple buffer (touches every line of the
    /// record — §5.2.1: T_L2D grows with record size).
    FullRecord,
}

/// Predicate evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// One lean code path per predicate evaluation.
    Compiled,
    /// Tree-walking interpreter: one dispatch block per expression node.
    Interpreted,
}

/// Join algorithm for equijoins without indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Classic hash join (build on the smaller input).
    Hash,
    /// Index nested-loop (requires an index on the inner join column;
    /// planner falls back to hash if absent).
    IndexNestedLoop,
    /// Radix-partitioned hash join: both inputs are scattered into
    /// L2-sized partitions through arena-backed column buffers, then each
    /// partition is joined with a cache-resident hash table
    /// ([`crate::exec::join_partitioned::PartitionedHashJoin`]). Spends
    /// extra partitioning instructions to convert the naive join's random
    /// L2-missing probes into cache hits.
    PartitionedHash,
}

/// The tight-loop code paths of the vectorized execution path.
///
/// Where row mode runs one full operator path per tuple, batch mode charges
/// `dispatch` once per batch plus one of these per-tuple inner-loop blocks
/// scaled by the batch size ([`wdtg_sim::Cpu::exec_block_scaled`] fetches
/// the code once, so consecutive iterations stay I-cache resident — the
/// instruction-footprint collapse batching buys). Paths are derived from the
/// system's row-mode paths with the call prologue/epilogue, iterator
/// dispatch and per-call buffer management stripped, so fat engines (C/D)
/// keep proportionally fatter loops than lean ones (A).
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field names are the documentation
pub struct BatchBlocks {
    /// Per-batch vector dispatch/setup (function call, batch bookkeeping).
    pub dispatch: CodeBlock,
    /// Per-tuple scan inner loop (cursor advance + bounds check).
    pub scan_step: CodeBlock,
    /// Per-tuple predicate inner loop (compiled engines).
    pub pred_step: CodeBlock,
    /// Per-tuple aggregate inner loop.
    pub agg_step: CodeBlock,
    /// Per-tuple hash build/probe inner loop.
    pub hash_step: CodeBlock,
    /// Per-tuple rid-fetch inner loop (index scans).
    pub fetch_step: CodeBlock,
    /// Per-tuple radix-scatter inner loop (partitioned joins): hash the
    /// key, pick the partition, bump its write cursor.
    pub partition_step: CodeBlock,
    /// Per-tuple predicated-selection inner loop (flag materialization +
    /// selection-vector append) — straight-line code with no data-dependent
    /// branch; the cmov itself is charged through
    /// [`wdtg_sim::Cpu::select_run`].
    pub select_step: CodeBlock,
}

/// The instrumented code paths of one engine build.
///
/// Field names mirror the operator code paths of a late-90s commercial
/// executor; per-invocation path lengths differ per system.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field names are the documentation
pub struct EngineBlocks {
    pub query_setup: CodeBlock,
    pub scan_next: CodeBlock,
    pub scan_page: CodeBlock,
    pub bufpool_get: CodeBlock,
    pub pred_eval: CodeBlock,
    pub pred_node: CodeBlock,
    /// Interpreter handlers, one per node class (comparison / logic /
    /// column / arithmetic+constant). Distinct handler functions give the
    /// tree-walking evaluator its large instruction footprint — the paper's
    /// interpreted engines are exactly the L1I-bound ones (§5.2.2).
    pub pred_handlers: [CodeBlock; 4],
    /// Row-mode predicated qualify tail: the branch-free masking sequence
    /// that replaces the qualify branch under
    /// [`crate::exec::filter::SelectionMode::Predicated`]. Deliberately
    /// straight-line (zero dynamic branches) — eliminating the
    /// data-dependent branch is the whole point; the unconditional extra
    /// instructions are the price the simulator must see.
    pub pred_select: CodeBlock,
    pub agg_step: CodeBlock,
    /// Per-field extraction/conversion path, run once per column during
    /// tuple materialization. This is what makes per-record cost scale with
    /// record width — §5.2.2: "the execution time per record increases by a
    /// factor of 2.5 to 4" from 20- to 200-byte records.
    pub field_extract: CodeBlock,
    pub index_descend: CodeBlock,
    pub index_leaf_next: CodeBlock,
    pub rid_fetch: CodeBlock,
    pub hash_build: CodeBlock,
    pub hash_probe: CodeBlock,
    pub join_match: CodeBlock,
    /// Radix-scatter path of the partitioned join, run once per input row
    /// in row mode: hash the join key, select the partition, append the
    /// row to its column buffers. Deliberately lean — partitioning only
    /// pays off because this path is a fraction of `hash_probe`.
    pub part_scatter: CodeBlock,
    pub update_step: CodeBlock,
    pub insert_step: CodeBlock,
    pub txn_begin_commit: CodeBlock,
    /// Per-hop version-chain walk of the MVCC snapshot read path: load a
    /// superseded row image's header, compare its commit timestamp against
    /// the reader's snapshot, follow the chain pointer. Pointer-chasing by
    /// construction — heavily dependency-bound, the `T_DEP`/`T_L2D` face of
    /// multiversioning.
    pub version_chase: CodeBlock,
    /// Per-operation WAL serialization: format one log record and append it
    /// to the tail. Store-heavy straight-ahead code whose store-buffer
    /// drains show up as resource stalls (§5.5's "significantly higher"
    /// OLTP T_DEP).
    pub wal_append: CodeBlock,
    /// Commit-protocol path: write-set conflict validation, timestamp
    /// assignment, commit-record append and version installation — charged
    /// once per commit/abort on top of the per-op paths.
    pub txn_commit: CodeBlock,
    /// Guardrail checkpoint path: compare the query's cycle/arena counters
    /// against the armed [`crate::ResourceBudget`] limits. Straight-line
    /// and tiny — charged only at batch/partition boundaries, and only when
    /// a limit is set, so the <2% disabled-overhead gate holds by
    /// construction. Also the unit of the shard router's deterministic
    /// backoff spin ([`crate::ShardedDatabase`] retries).
    pub budget_check: CodeBlock,
    /// Vectorized-path blocks (see [`BatchBlocks`]).
    pub batch: BatchBlocks,
    /// The selection predicate's qualify branch (simulated individually;
    /// its behaviour depends on the data, driving Fig 5.4 right).
    pub qualify_site: BranchSite,
    /// The join-match branch.
    pub match_site: BranchSite,
    /// Private scratch address of the tuple buffer (hot, L1-resident).
    pub tuple_buf: u64,
    /// Private scratch address of aggregate accumulators.
    pub agg_buf: u64,
}

/// A complete engine configuration: code paths plus execution strategy.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Which system this profile models.
    pub system: SystemId,
    /// Instrumented code paths: immutable, so every operator, clone, shard
    /// and pilot of this profile shares them (each simulated core keeps its
    /// own probe rotation per block, see [`wdtg_sim::Cpu::exec_block`]).
    pub blocks: Arc<EngineBlocks>,
    /// Predicate evaluation strategy.
    pub eval_mode: EvalMode,
    /// Tuple materialization strategy.
    pub materialize: Materialize,
    /// Scan prefetch look-ahead in cache lines (0 = no prefetching).
    pub prefetch_lines_ahead: u32,
    /// Whether the optimizer uses a non-clustered index for range
    /// selections (System A's does not).
    pub use_index_for_range: bool,
    /// Join algorithm for equijoins.
    pub join_algo: JoinAlgo,
}

/// Per-system tuning constants (path bytes per invocation plus pipeline and
/// branch character). See the module docs for the observation each targets.
struct SysParams {
    // path bytes per invocation
    setup: u32,
    scan_next: u32,
    scan_page: u32,
    bufpool_get: u32,
    pred_eval: u32,
    pred_node: u32,
    agg_step: u32,
    field_extract: u32,
    index_descend: u32,
    index_leaf_next: u32,
    rid_fetch: u32,
    hash_build: u32,
    hash_probe: u32,
    join_match: u32,
    part_scatter: u32,
    update_step: u32,
    insert_step: u32,
    txn: u32,
    version_chase: u32,
    wal_append: u32,
    txn_commit: u32,
    // pipeline character
    dep_frac: f64,
    fu_frac: f64,
    // branch character
    branch_density: f64, // dynamic branches per x86 instruction
    dyn_bias: f64,       // predictor accuracy on BTB hit
    static_acc: f64,     // static rule accuracy on BTB miss
    agg_bias: f64,       // aggregate path is branchier numeric code
}

fn params(sys: SystemId) -> SysParams {
    // Path lengths target Fig 5.3's per-record instruction counts (SRS:
    // A lowest at ~900, D highest at ~3800; instr ≈ path/3.5). Footprints
    // are what drive T_L1I: per-record extents (1.5× the hot path, plus the
    // aggregate path at higher selectivities, page-boundary code and the NT
    // kernel) stay under the 16 KB L1I for A, sit at the edge for B, and
    // exceed it for C and D — reproducing "T_L1I insignificant only for
    // System A on SRS; up to 40% for others" (§5.2.2).
    //
    // Branch accuracies target Fig 5.4: with the BTB missing ~half the time
    // (hot sites ≳ 512), net misprediction rates land at ~3% (A) to ~8%
    // (C/D), which at ~20% branch density yields the paper's 10-20% T_B
    // share band.
    match sys {
        // Fewest instructions/record; FU-bound (Fig 5.5: only A has
        // T_FU > T_DEP on range selections); well-predicted lean code.
        SystemId::A => SysParams {
            setup: 26_000,
            scan_next: 1_800,
            scan_page: 1_400,
            bufpool_get: 600,
            pred_eval: 900,
            pred_node: 450,
            agg_step: 2_400,
            field_extract: 80,
            index_descend: 900,
            index_leaf_next: 500,
            rid_fetch: 1_500,
            hash_build: 1_400,
            hash_probe: 1_100,
            join_match: 800,
            part_scatter: 260,
            update_step: 6_000,
            insert_step: 8_000,
            txn: 140_000,
            version_chase: 700,
            wal_append: 1_200,
            txn_commit: 3_000,
            dep_frac: 0.30,
            fu_frac: 0.48,
            branch_density: 0.15,
            dyn_bias: 0.985,
            static_acc: 0.93,
            agg_bias: 0.97,
        },
        // Cache-conscious data access; mid-size footprint at the L1I edge;
        // dependency-bound like most engines.
        SystemId::B => SysParams {
            setup: 34_000,
            scan_next: 5_200,
            scan_page: 2_600,
            bufpool_get: 1_400,
            pred_eval: 2_800,
            pred_node: 600,
            agg_step: 7_600,
            field_extract: 220,
            index_descend: 1_800,
            index_leaf_next: 1_000,
            rid_fetch: 4_500,
            hash_build: 2_000,
            hash_probe: 1_600,
            join_match: 1_200,
            part_scatter: 340,
            update_step: 8_000,
            insert_step: 10_000,
            txn: 170_000,
            version_chase: 1_100,
            wal_append: 1_600,
            txn_commit: 4_000,
            dep_frac: 0.44,
            fu_frac: 0.24,
            branch_density: 0.19,
            dyn_bias: 0.978,
            static_acc: 0.91,
            agg_bias: 0.90,
        },
        // Interpreted; fat paths well past the L1I capacity; branchy
        // dispatch.
        SystemId::C => SysParams {
            setup: 40_000,
            scan_next: 3_600,
            scan_page: 2_600,
            bufpool_get: 1_800,
            pred_eval: 2_600, // used only if a caller forces compiled mode
            pred_node: 700,
            agg_step: 5_600,
            field_extract: 300,
            index_descend: 2_200,
            index_leaf_next: 1_300,
            rid_fetch: 5_600,
            hash_build: 2_400,
            hash_probe: 2_000,
            join_match: 1_500,
            part_scatter: 400,
            update_step: 10_000,
            insert_step: 12_000,
            txn: 190_000,
            version_chase: 1_400,
            wal_append: 2_000,
            txn_commit: 5_000,
            dep_frac: 0.50,
            fu_frac: 0.26,
            branch_density: 0.19,
            dyn_bias: 0.975,
            static_acc: 0.92,
            agg_bias: 0.87,
        },
        // Largest footprint of all (L1I-bound), most instructions on
        // IRS/SJ (Fig 5.3).
        SystemId::D => SysParams {
            setup: 48_000,
            scan_next: 4_200,
            scan_page: 3_200,
            bufpool_get: 2_200,
            pred_eval: 3_200,
            pred_node: 850,
            agg_step: 7_000,
            field_extract: 420,
            index_descend: 2_800,
            index_leaf_next: 1_600,
            rid_fetch: 7_000,
            hash_build: 3_200,
            hash_probe: 2_600,
            join_match: 2_000,
            part_scatter: 460,
            update_step: 12_000,
            insert_step: 14_000,
            txn: 210_000,
            version_chase: 1_700,
            wal_append: 2_400,
            txn_commit: 6_000,
            dep_frac: 0.50,
            fu_frac: 0.26,
            branch_density: 0.19,
            dyn_bias: 0.980,
            static_acc: 0.93,
            agg_bias: 0.85,
        },
    }
}

/// Places one block in the engine's code segment. Functions are laid out
/// with a cold-half gap (error handling, rarely taken paths) so hot paths
/// from different operators contend for L1I sets realistically.
fn place(
    alloc: &mut SegmentAlloc,
    name: &'static str,
    path_bytes: u32,
    p: &SysParams,
    private_base: u64,
    private_bytes: u32,
    dyn_bias: f64,
) -> CodeBlock {
    let region = alloc.alloc(path_bytes as u64 * 3 / 2, 64);
    let x86 = (path_bytes as f64 / wdtg_sim::pipeline::BYTES_PER_X86_INSTR).round() as u32;
    let dynamic = ((x86 as f64) * p.branch_density)
        .round()
        .min(u16::MAX as f64) as u16;
    // Within one pass through a long path, executed branch sites are mostly
    // distinct, and successive invocations take different branches, so the
    // static-site population exceeds the per-invocation dynamic count; the
    // BTB's ~50% miss rate (§5.3) emerges from total hot sites vs its 512
    // entries.
    let sites = ((dynamic as f64) * 1.3)
        .ceil()
        .max(1.0)
        .min(u16::MAX as f64) as u16;
    CodeBlock::builder(name, path_bytes)
        .private(private_base, private_bytes)
        .branches(sites, dynamic)
        .taken_frac(0.60)
        .dyn_bias(dyn_bias)
        .static_acc(p.static_acc)
        .dep_frac(p.dep_frac)
        .fu_frac(p.fu_frac)
        .long_instr_frac(0.04)
        .at(region.base)
}

/// Places one batch-mode tight-loop block. Unlike the row-path blocks these
/// are short loops with loop-shaped branch character: a back-edge plus a
/// hoisted bound check per handful of instructions (~5% density, versus
/// 15–19% on the row paths), each overwhelmingly predictable — the trained
/// back-edge mispredicts about once per loop exit, and even the static
/// backward-taken rule gets a 90%-taken edge right. Independent work across
/// lanes keeps dependency pressure low. These accuracies are what make
/// the batch executor's *structural* T_B a sliver, leaving the
/// individually-simulated data-dependent qualify branch as the dominant
/// branch-stall term (§5.3/Fig 5.4, the selection-mode comparison).
fn place_batch(
    alloc: &mut SegmentAlloc,
    name: &'static str,
    path_bytes: u32,
    p: &SysParams,
    private_base: u64,
) -> CodeBlock {
    let region = alloc.alloc(path_bytes as u64 * 3 / 2, 64);
    let x86 = (path_bytes as f64 / wdtg_sim::pipeline::BYTES_PER_X86_INSTR).round() as u32;
    let dynamic = ((x86 as f64) * 0.05).round().max(1.0).min(u16::MAX as f64) as u16;
    CodeBlock::builder(name, path_bytes)
        .private(private_base, 512)
        .branches(dynamic.max(2), dynamic)
        .taken_frac(0.90) // dominated by the loop back-edge
        .dyn_bias(0.999) // trained loop branches mispredict ~at loop exits
        .static_acc(0.98) // backward-taken static rule fits a back-edge
        .dep_frac((p.dep_frac - 0.12).max(0.15)) // lanes are independent
        .fu_frac(p.fu_frac)
        .long_instr_frac(0.02)
        .at(region.base)
}

/// Places one straight-line predication block: flag materialization and
/// masking with **zero** dynamic branches — the code shape compilers emit
/// for branch-free selection. Pipeline character follows the engine but
/// with the dependency pressure of copy-style independent lanes; the cmov
/// serialization itself is charged by [`wdtg_sim::Cpu::select_run`], not
/// here.
fn place_straight(
    alloc: &mut SegmentAlloc,
    name: &'static str,
    path_bytes: u32,
    p: &SysParams,
    private_base: u64,
) -> CodeBlock {
    let region = alloc.alloc(path_bytes as u64 * 3 / 2, 64);
    CodeBlock::builder(name, path_bytes)
        .private(private_base, 256)
        .mem_refs(2)
        .branches(1, 0)
        .dep_frac((p.dep_frac - 0.08).max(0.15))
        .fu_frac(p.fu_frac)
        .long_instr_frac(0.0)
        .at(region.base)
}

impl EngineProfile {
    /// Builds the profile for one of the paper's four systems.
    pub fn system(sys: SystemId) -> EngineProfile {
        let p = params(sys);
        // Each system gets its own code and private segments (the systems
        // were separate installations; each Database owns its own Cpu).
        let mut alloc = SegmentAlloc::new(segment::CODE + sys.ordinal() * 0x0100_0000);
        let private = segment::PRIVATE + sys.ordinal() * 0x10_0000;

        let query_setup = place(
            &mut alloc,
            "query_setup",
            p.setup,
            &p,
            private,
            8192,
            p.dyn_bias,
        );
        let scan_next = place(
            &mut alloc,
            "scan_next",
            p.scan_next,
            &p,
            private,
            2048,
            p.dyn_bias,
        );
        let scan_page = place(
            &mut alloc,
            "scan_page",
            p.scan_page,
            &p,
            private + 2048,
            1024,
            p.dyn_bias,
        );
        let bufpool_get = place(
            &mut alloc,
            "bufpool_get",
            p.bufpool_get,
            &p,
            private + 3072,
            1024,
            p.dyn_bias,
        );
        let pred_eval = place(
            &mut alloc,
            "pred_eval",
            p.pred_eval,
            &p,
            private + 4096,
            512,
            p.dyn_bias,
        );
        // Interpreter dispatch: indirect branches, poorly predicted.
        let pred_node = place(
            &mut alloc,
            "pred_node",
            p.pred_node,
            &p,
            private + 4608,
            512,
            p.dyn_bias - 0.05,
        );
        let pred_handlers = [
            place(
                &mut alloc,
                "pred_op_cmp",
                p.pred_node,
                &p,
                private + 4608,
                512,
                p.dyn_bias - 0.05,
            ),
            place(
                &mut alloc,
                "pred_op_logic",
                p.pred_node,
                &p,
                private + 4608,
                512,
                p.dyn_bias - 0.05,
            ),
            place(
                &mut alloc,
                "pred_op_col",
                p.pred_node,
                &p,
                private + 4608,
                512,
                p.dyn_bias,
            ),
            place(
                &mut alloc,
                "pred_op_arith",
                p.pred_node,
                &p,
                private + 4608,
                512,
                p.dyn_bias - 0.05,
            ),
        ];
        // Predicated qualify tail: a handful of masking instructions per
        // row regardless of engine girth (a cmov sequence is a cmov
        // sequence), with a small per-system flavor for the surrounding
        // result handling.
        let pred_select = place_straight(
            &mut alloc,
            "pred_select",
            24 + p.pred_eval / 64,
            &p,
            private + 24_064,
        );
        // Aggregate: branchy numeric code (drives T_B growth with
        // selectivity, Fig 5.4 right).
        let mut agg_step = place(
            &mut alloc,
            "agg_step",
            p.agg_step,
            &p,
            private + 5120,
            1024,
            p.agg_bias,
        );
        let mut field_extract = place(
            &mut alloc,
            "field_extract",
            p.field_extract,
            &p,
            private + 5632,
            512,
            p.dyn_bias,
        );
        // Bulk field extraction is copy-style code: plenty of independent
        // work, so it is not dependency-bound even in high-dep engines.
        field_extract.dep_frac = (field_extract.dep_frac - 0.14).max(0.20);
        let index_descend = place(
            &mut alloc,
            "index_descend",
            p.index_descend,
            &p,
            private + 6144,
            512,
            p.dyn_bias,
        );
        let index_leaf_next = place(
            &mut alloc,
            "index_leaf_next",
            p.index_leaf_next,
            &p,
            private + 6656,
            512,
            p.dyn_bias,
        );
        let rid_fetch = place(
            &mut alloc,
            "rid_fetch",
            p.rid_fetch,
            &p,
            private + 7168,
            512,
            p.dyn_bias,
        );
        let mut hash_build = place(
            &mut alloc,
            "hash_build",
            p.hash_build,
            &p,
            private + 7680,
            512,
            p.dyn_bias,
        );
        let mut hash_probe = place(
            &mut alloc,
            "hash_probe",
            p.hash_probe,
            &p,
            private + 8192,
            512,
            p.dyn_bias,
        );
        let mut join_match = place(
            &mut alloc,
            "join_match",
            p.join_match,
            &p,
            private + 8704,
            512,
            p.agg_bias,
        );
        // Radix scatter is copy-style code (hash, mask, append): plenty of
        // independent work per row, a well-predicted partition-select
        // branch, so it is neither dependency- nor branch-bound.
        let mut part_scatter = place(
            &mut alloc,
            "part_scatter",
            p.part_scatter,
            &p,
            private + 11_264,
            512,
            p.dyn_bias,
        );
        part_scatter.dep_frac = (part_scatter.dep_frac - 0.14).max(0.20);
        let mut update_step = place(
            &mut alloc,
            "update_step",
            p.update_step,
            &p,
            private + 9216,
            512,
            p.dyn_bias,
        );
        let mut insert_step = place(
            &mut alloc,
            "insert_step",
            p.insert_step,
            &p,
            private + 9728,
            512,
            p.dyn_bias,
        );
        let mut txn_begin_commit = place(
            &mut alloc,
            "txn",
            p.txn,
            &p,
            private + 10240,
            2048,
            p.dyn_bias,
        );
        let mut version_chase = place(
            &mut alloc,
            "version_chase",
            p.version_chase,
            &p,
            private + 25_600,
            512,
            p.dyn_bias,
        );
        // The chain walk is serial pointer-chasing: each hop's address
        // depends on the previous load, so it is the most dependency-bound
        // path in the engine.
        version_chase.dep_frac = (version_chase.dep_frac + 0.20).min(0.9);
        let mut wal_append = place(
            &mut alloc,
            "wal_append",
            p.wal_append,
            &p,
            private + 26_112,
            512,
            p.dyn_bias,
        );
        let mut txn_commit = place(
            &mut alloc,
            "txn_commit",
            p.txn_commit,
            &p,
            private + 26_624,
            1024,
            p.dyn_bias,
        );

        // Join code is chained-pointer work: dependency-bound even in System
        // A ("except for System A when executing range selection queries,
        // dependency stalls are the most important resource stalls", §5.4 —
        // i.e. A's *join* is dependency-bound too).
        if sys == SystemId::A {
            for b in [&mut hash_build, &mut hash_probe, &mut join_match] {
                b.dep_frac = 0.65;
                b.fu_frac = 0.28;
            }
            // A's aggregate is a simple register accumulate: moderate FU
            // pressure, so the join's pointer-chasing dependency stalls
            // dominate its resource stalls (§5.4) while the scan-side FU
            // pressure still dominates on range selections (Fig 5.5).
            agg_step.fu_frac = 0.40;
        }
        // Store-heavy OLTP paths (logging, store-buffer drains) carry extra
        // dependency pressure — part of why TPC-C's resource stalls are
        // "significantly higher" (§5.5).
        for b in [
            &mut update_step,
            &mut insert_step,
            &mut txn_begin_commit,
            &mut wal_append,
            &mut txn_commit,
        ] {
            b.dep_frac = (b.dep_frac + 0.14).min(0.9);
        }

        // Vectorized-path blocks: the row paths with per-call overhead
        // stripped. The divisors target the ~5-10x per-tuple instruction
        // collapse vectorized engines report (MonetDB/X100; Sirin &
        // Ailamaki's OLAP analysis), with floors so no loop models fewer
        // than ~2-3 dozen instructions per tuple. Fat interpreted engines
        // (C/D) keep proportionally fatter loops than lean compiled ones.
        let batch = BatchBlocks {
            dispatch: place_batch(
                &mut alloc,
                "batch_dispatch",
                (p.setup / 40).max(600),
                &p,
                private + 20_480,
            ),
            scan_step: place_batch(
                &mut alloc,
                "batch_scan_step",
                (p.scan_next / 10).max(96),
                &p,
                private + 20_992,
            ),
            pred_step: place_batch(
                &mut alloc,
                "batch_pred_step",
                (p.pred_eval / 8).max(64),
                &p,
                private + 21_504,
            ),
            agg_step: place_batch(
                &mut alloc,
                "batch_agg_step",
                (p.agg_step / 10).max(96),
                &p,
                private + 22_016,
            ),
            hash_step: place_batch(
                &mut alloc,
                "batch_hash_step",
                (p.hash_probe / 6).max(96),
                &p,
                private + 22_528,
            ),
            fetch_step: place_batch(
                &mut alloc,
                "batch_fetch_step",
                (p.rid_fetch / 6).max(128),
                &p,
                private + 23_040,
            ),
            partition_step: place_batch(
                &mut alloc,
                "batch_partition_step",
                (p.part_scatter / 8).max(48),
                &p,
                private + 23_552,
            ),
            select_step: place_straight(
                &mut alloc,
                "batch_select_step",
                16 + p.pred_eval / 160,
                &p,
                private + 24_576,
            ),
        };
        // Guardrail checkpoint: read two counters, compare against two
        // limits — a tiny straight-line path, the same in every engine,
        // charged only when a ResourceBudget limit is armed (so the fault
        // model costs nothing when off, and its overhead is deterministic
        // simulated work when on).
        let budget_check = place_straight(&mut alloc, "budget_check", 40, &p, private + 25_088);

        let qualify_site = BranchSite {
            addr: pred_eval.base + 64,
            backward: false,
        };
        let match_site = BranchSite {
            addr: hash_probe.base + 64,
            backward: false,
        };

        let blocks = Arc::new(EngineBlocks {
            query_setup,
            scan_next,
            scan_page,
            bufpool_get,
            pred_eval,
            pred_node,
            pred_handlers,
            pred_select,
            agg_step,
            field_extract,
            index_descend,
            index_leaf_next,
            rid_fetch,
            hash_build,
            hash_probe,
            join_match,
            part_scatter,
            update_step,
            insert_step,
            txn_begin_commit,
            version_chase,
            wal_append,
            txn_commit,
            budget_check,
            batch,
            qualify_site,
            match_site,
            tuple_buf: private + 12_288,
            agg_buf: private + 16_384,
        });

        match sys {
            SystemId::A => EngineProfile {
                system: sys,
                blocks,
                eval_mode: EvalMode::Compiled,
                materialize: Materialize::FieldsOnly,
                prefetch_lines_ahead: 0,
                use_index_for_range: false, // A did not use the index (§5.1)
                join_algo: JoinAlgo::Hash,
            },
            SystemId::B => EngineProfile {
                system: sys,
                blocks,
                eval_mode: EvalMode::Compiled,
                materialize: Materialize::FullRecord,
                prefetch_lines_ahead: 24, // cache-conscious scan (§5.2.1)
                use_index_for_range: true,
                join_algo: JoinAlgo::Hash,
            },
            SystemId::C => EngineProfile {
                system: sys,
                blocks,
                eval_mode: EvalMode::Interpreted,
                materialize: Materialize::FullRecord,
                prefetch_lines_ahead: 0,
                use_index_for_range: true,
                join_algo: JoinAlgo::Hash,
            },
            SystemId::D => EngineProfile {
                system: sys,
                blocks,
                eval_mode: EvalMode::Interpreted,
                materialize: Materialize::FullRecord,
                prefetch_lines_ahead: 0,
                use_index_for_range: true,
                join_algo: JoinAlgo::Hash,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_profiles_with_distinct_strategies() {
        let a = EngineProfile::system(SystemId::A);
        let b = EngineProfile::system(SystemId::B);
        let c = EngineProfile::system(SystemId::C);
        let d = EngineProfile::system(SystemId::D);
        assert!(
            !a.use_index_for_range,
            "A's optimizer skips the index (§5.1)"
        );
        assert!(b.use_index_for_range && c.use_index_for_range && d.use_index_for_range);
        assert!(
            b.prefetch_lines_ahead > 0,
            "B is the cache-conscious system"
        );
        assert_eq!(a.eval_mode, EvalMode::Compiled);
        assert_eq!(d.eval_mode, EvalMode::Interpreted);
    }

    #[test]
    fn per_record_instruction_paths_grow_from_a_to_d() {
        // Fig 5.3: SRS instructions/record must rise A < B < C < D. The
        // per-record path is scan + predicate evaluation + field extraction
        // (25 fields at 100-byte records).
        let per_record: Vec<u64> = SystemId::ALL
            .iter()
            .map(|sys| {
                let p = EngineProfile::system(*sys);
                let b = &p.blocks;
                let pred = match p.eval_mode {
                    EvalMode::Compiled => b.pred_eval.path_bytes as u64,
                    EvalMode::Interpreted => {
                        b.pred_node.path_bytes as u64 + 7 * b.pred_handlers[0].path_bytes as u64
                    }
                };
                let fields = match p.materialize {
                    Materialize::FullRecord => 25 * b.field_extract.path_bytes as u64,
                    Materialize::FieldsOnly => 2 * b.field_extract.path_bytes as u64,
                };
                b.scan_next.path_bytes as u64 + pred + fields
            })
            .collect();
        assert!(
            per_record.windows(2).all(|w| w[0] < w[1]),
            "per-record paths must grow A..D: {per_record:?}"
        );
    }

    #[test]
    fn batch_loops_are_far_leaner_than_row_paths() {
        // The vectorized per-tuple loops must collapse the per-tuple path by
        // a large factor for every system.
        for sys in SystemId::ALL {
            let p = EngineProfile::system(sys);
            let b = &p.blocks;
            assert!(
                b.batch.scan_step.path_bytes * 6 <= b.scan_next.path_bytes,
                "{}: batch scan loop not lean enough",
                sys.letter()
            );
            assert!(b.batch.agg_step.path_bytes * 6 <= b.agg_step.path_bytes);
            assert!(b.batch.hash_step.path_bytes * 4 <= b.hash_probe.path_bytes);
        }
    }

    #[test]
    fn partition_scatter_stays_a_fraction_of_the_probe_path() {
        // The partitioned join's economics rest on this: the per-row
        // scatter path must be far leaner than the probe path whose misses
        // it buys away, and its batch loop leaner still — for every system.
        for sys in SystemId::ALL {
            let p = EngineProfile::system(sys);
            let b = &p.blocks;
            assert!(
                b.part_scatter.path_bytes * 4 <= b.hash_probe.path_bytes,
                "{}: part_scatter not lean enough vs hash_probe",
                sys.letter()
            );
            assert!(
                b.batch.partition_step.path_bytes * 4 <= b.part_scatter.path_bytes,
                "{}: batch partition loop not lean enough",
                sys.letter()
            );
        }
    }

    #[test]
    fn predication_blocks_are_lean_and_branch_free() {
        // The predicated qualify tail must be a sliver of the predicate
        // path it rides on, and strictly straight-line: a single structural
        // dynamic branch would reintroduce exactly the stall the mode
        // exists to eliminate.
        for sys in SystemId::ALL {
            let p = EngineProfile::system(sys);
            let b = &p.blocks;
            assert_eq!(
                b.pred_select.dyn_branches,
                0,
                "{}: pred_select must be branch-free",
                sys.letter()
            );
            assert_eq!(
                b.batch.select_step.dyn_branches,
                0,
                "{}: batch select loop must be branch-free",
                sys.letter()
            );
            assert!(
                b.pred_select.path_bytes * 8 <= b.pred_eval.path_bytes,
                "{}: pred_select not lean enough vs pred_eval",
                sys.letter()
            );
            assert!(
                b.batch.select_step.path_bytes <= b.pred_select.path_bytes,
                "{}: batch select loop fatter than the row tail",
                sys.letter()
            );
        }
    }

    #[test]
    fn blocks_do_not_overlap_within_a_system() {
        let p = EngineProfile::system(SystemId::D);
        let b = &p.blocks;
        let mut spans = [
            (b.query_setup.base, b.query_setup.path_bytes),
            (b.scan_next.base, b.scan_next.path_bytes),
            (b.scan_page.base, b.scan_page.path_bytes),
            (b.pred_node.base, b.pred_node.path_bytes),
            (b.agg_step.base, b.agg_step.path_bytes),
            (b.hash_probe.base, b.hash_probe.path_bytes),
        ];
        spans.sort_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 as u64 <= w[1].0, "code blocks overlap");
        }
    }

    /// A core keys a block's probe rotation by its `base`, so two blocks of
    /// one profile at one address would share a rotation. `Debug` lists
    /// every block, however many the profile grows.
    #[test]
    fn every_block_of_a_system_has_its_own_base() {
        for sys in SystemId::ALL {
            let dump = format!("{:?}", EngineProfile::system(sys).blocks);
            let mut bases: Vec<u64> = dump
                .split(", base: ")
                .skip(1)
                .map(|rest| rest.split(',').next().unwrap().parse().unwrap())
                .collect();
            let n = bases.len();
            assert!(n > 30, "{}: found {n} blocks", sys.letter());
            bases.sort_unstable();
            bases.dedup();
            assert_eq!(bases.len(), n, "{}: two blocks share a base", sys.letter());
            assert!(!bases.contains(&segment::KERNEL_CODE));
        }
    }

    #[test]
    fn systems_use_disjoint_code_segments() {
        let a = EngineProfile::system(SystemId::A);
        let b = EngineProfile::system(SystemId::B);
        assert!(b.blocks.query_setup.base >= a.blocks.query_setup.base + 0x0100_0000);
    }
}
