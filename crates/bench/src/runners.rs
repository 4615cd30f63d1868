//! The measurement cores of the headline bench binaries (`exec_mode`,
//! `layout_compare`, `join_compare`), shared with `bench_check` so the
//! CI regression gate re-runs *exactly* the code that produced the
//! committed `BENCH_*.json` baselines, not a reimplementation that could
//! drift.
//!
//! Each runner returns a report struct that renders itself to the same
//! JSON the corresponding binary writes; the headline metrics the gate
//! compares are plain accessors on the reports.

use std::time::Instant;

use wdtg_core::methodology::build_sharded_db_with_layout;
use wdtg_core::{
    BranchCell, JoinComparison, PlannerComparison, ScalingComparison, SelectivityComparison,
    TimeBreakdown,
};
use wdtg_memdb::sql::{compile, BoundStatement};
use wdtg_memdb::{
    Database, DbError, EngineProfile, ExecMode, FaultPlan, JoinAlgo, PageLayout, ParallelConfig,
    Query, QueryResult, ResourceBudget, Schema, SelectionMode, ShardedDatabase, SystemId,
};
use wdtg_sim::{CpuConfig, Event, InterruptCfg, Mode};
use wdtg_workloads::{
    micro, run_oltp, JoinSpec, MicroQuery, OltpConfig, OltpReport, Scale, SweepSpec, TpccScale,
};

/// Rows in the selection benchmarks' single relation.
pub const SCAN_ROWS: u64 = 100_000;
/// Record size of the selection benchmarks' relation.
pub const SCAN_RECORD_BYTES: u32 = 100;

fn build_scan_db(sys: SystemId, layout: PageLayout) -> Database {
    let mut db = Database::new(
        EngineProfile::system(sys),
        CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    )
    .with_page_layout(layout);
    db.ctx.instrument = false;
    db.create_table("R", Schema::paper_relation(SCAN_RECORD_BYTES))
        .unwrap();
    let ncols = (SCAN_RECORD_BYTES / 4) as usize;
    db.load_rows(
        "R",
        (0..SCAN_ROWS).map(|i| {
            let mut r = vec![0i32; ncols];
            let x = i.wrapping_mul(0x9e37_79b9);
            r[0] = i as i32;
            r[1] = (x % 2_000) as i32 + 1;
            r[2] = (x % 10_000) as i32;
            r
        }),
    )
    .unwrap();
    db.ctx.instrument = true;
    db
}

/// The paper's 10% selectivity band on the scan relation's 1..=2000 domain.
fn scan_query() -> Query {
    Query::range_select_avg("R", 900, 1101)
}

/// Compiles a scalar workload statement through the SQL frontend. The bench
/// workloads are *stated* in SQL (what a [`wdtg_memdb::Session`] user would
/// type) and compiled once up front, so the measured loops execute the exact
/// same hand-built [`Query`] IR as before — zero cycles of frontend cost
/// inside any measurement.
fn sql_query(db: &Database, sql: &str) -> Query {
    match compile(db, sql).expect("workload SQL compiles") {
        BoundStatement::Scalar(q) => q,
        other => panic!("workload SQL must be a scalar statement, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// exec_mode: row vs batch executor
// ---------------------------------------------------------------------

/// One execution mode's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ExecModeResult {
    /// Host wall-clock seconds of the measured run (simulator speed).
    pub host_secs: f64,
    /// Selected rows (must agree across modes).
    pub rows: u64,
    /// Simulated instructions retired per tuple.
    pub instr_per_tuple: f64,
    /// Simulated cycles per tuple.
    pub cycles_per_tuple: f64,
}

fn measure_exec_mode(sys: SystemId, mode: ExecMode) -> ExecModeResult {
    let mut db = build_scan_db(sys, PageLayout::Nsm).with_exec_mode(mode);
    let q = scan_query();
    let rows = db.run(&q).unwrap().rows; // warm caches/TLB/BTB
    let before = db.cpu().snapshot();
    let start = Instant::now();
    db.run(&q).unwrap();
    let host_secs = start.elapsed().as_secs_f64();
    let delta = db.cpu().snapshot().delta(&before);
    ExecModeResult {
        host_secs,
        rows,
        instr_per_tuple: delta.counters.total(Event::InstRetired) as f64 / SCAN_ROWS as f64,
        cycles_per_tuple: delta.cycles / SCAN_ROWS as f64,
    }
}

/// Row-vs-batch comparison on the sequential range selection (System C).
#[derive(Debug, Clone, Copy)]
pub struct ExecReport {
    /// System measured.
    pub system: SystemId,
    /// Row-mode measurements.
    pub row: ExecModeResult,
    /// Batch-mode measurements.
    pub batch: ExecModeResult,
}

impl ExecReport {
    /// Host wall-clock speedup of batch over row mode.
    pub fn host_speedup(&self) -> f64 {
        self.row.host_secs / self.batch.host_secs.max(1e-12)
    }

    /// Simulated per-tuple instruction collapse (the gated headline).
    pub fn instr_collapse(&self) -> f64 {
        self.row.instr_per_tuple / self.batch.instr_per_tuple.max(1e-9)
    }

    /// Simulated cycle speedup.
    pub fn simulated_speedup(&self) -> f64 {
        self.row.cycles_per_tuple / self.batch.cycles_per_tuple.max(1e-9)
    }

    /// The `BENCH_exec.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"sequential_range_selection\",\n  \"system\": \"{}\",\n  \
             \"rows\": {},\n  \"record_bytes\": {},\n  \"selected_rows\": {},\n  \
             \"row_mode\": {{ \"host_secs\": {:.6}, \"instr_per_tuple\": {:.1}, \"cycles_per_tuple\": {:.1} }},\n  \
             \"batch_mode\": {{ \"host_secs\": {:.6}, \"instr_per_tuple\": {:.1}, \"cycles_per_tuple\": {:.1} }},\n  \
             \"host_speedup\": {:.3},\n  \"instr_collapse\": {:.3},\n  \"simulated_speedup\": {:.3}\n}}\n",
            self.system.letter(),
            SCAN_ROWS,
            SCAN_RECORD_BYTES,
            self.row.rows,
            self.row.host_secs,
            self.row.instr_per_tuple,
            self.row.cycles_per_tuple,
            self.batch.host_secs,
            self.batch.instr_per_tuple,
            self.batch.cycles_per_tuple,
            self.host_speedup(),
            self.instr_collapse(),
            self.simulated_speedup(),
        )
    }
}

/// Runs the row-vs-batch benchmark (System C, the interpreted generalist).
pub fn run_exec_report() -> ExecReport {
    let sys = SystemId::C;
    let row = measure_exec_mode(sys, ExecMode::Row);
    let batch = measure_exec_mode(sys, ExecMode::Batch);
    assert_eq!(row.rows, batch.rows, "modes must agree on the answer");
    ExecReport {
        system: sys,
        row,
        batch,
    }
}

// ---------------------------------------------------------------------
// layout_compare: NSM vs PAX
// ---------------------------------------------------------------------

/// One layout's measurements on the selection scan.
#[derive(Debug, Clone)]
pub struct LayoutResult {
    /// Selected rows (must agree across layouts).
    pub rows: u64,
    /// Simulated L2 data misses of the measured run.
    pub l2_data_misses: u64,
    /// Simulated cycles per tuple.
    pub cycles_per_tuple: f64,
    /// Ground-truth breakdown of the measured run.
    pub truth: TimeBreakdown,
}

fn measure_layout(sys: SystemId, layout: PageLayout) -> LayoutResult {
    let mut db = build_scan_db(sys, layout);
    let q = scan_query();
    let rows = db.run(&q).unwrap().rows; // warm caches/TLB/BTB
    let before = db.cpu().snapshot();
    db.run(&q).unwrap();
    let delta = db.cpu().snapshot().delta(&before);
    LayoutResult {
        rows,
        l2_data_misses: delta.counters.total(Event::SimL2DataMiss),
        cycles_per_tuple: delta.cycles / SCAN_ROWS as f64,
        truth: TimeBreakdown::from_snapshot(&delta, Mode::User),
    }
}

/// NSM-vs-PAX comparison: a narrow projection (System A, PAX's sweet spot)
/// and a full-row scan (System C, the parity check).
#[derive(Debug, Clone)]
pub struct LayoutReport {
    /// Narrow projection under NSM.
    pub narrow_nsm: LayoutResult,
    /// Narrow projection under PAX.
    pub narrow_pax: LayoutResult,
    /// Full-row scan under NSM.
    pub full_nsm: LayoutResult,
    /// Full-row scan under PAX.
    pub full_pax: LayoutResult,
}

fn tm_json(t: &TimeBreakdown) -> String {
    let total = t.cycles.max(1e-9);
    format!(
        "{{ \"t_m_share\": {:.4}, \"t_l1d_share\": {:.4}, \"t_l1i_share\": {:.4}, \
         \"t_l2d_share\": {:.4}, \"t_l2i_share\": {:.4}, \"t_dtlb_share\": {:.4}, \
         \"t_itlb_share\": {:.4} }}",
        t.tm() / total,
        t.tl1d / total,
        t.tl1i / total,
        t.tl2d / total,
        t.tl2i / total,
        t.tdtlb.unwrap_or(0.0) / total,
        t.titlb / total,
    )
}

fn layout_scenario_json(
    name: &str,
    sys: SystemId,
    nsm: &LayoutResult,
    pax: &LayoutResult,
) -> String {
    format!(
        "  \"{name}\": {{\n    \"system\": \"{}\",\n    \"selected_rows\": {},\n    \
         \"nsm\": {{ \"l2_data_misses\": {}, \"cycles_per_tuple\": {:.1}, \"memory\": {} }},\n    \
         \"pax\": {{ \"l2_data_misses\": {}, \"cycles_per_tuple\": {:.1}, \"memory\": {} }},\n    \
         \"l2d_miss_reduction\": {:.3},\n    \"simulated_speedup\": {:.3}\n  }}",
        sys.letter(),
        nsm.rows,
        nsm.l2_data_misses,
        nsm.cycles_per_tuple,
        tm_json(&nsm.truth),
        pax.l2_data_misses,
        pax.cycles_per_tuple,
        tm_json(&pax.truth),
        nsm.l2_data_misses as f64 / pax.l2_data_misses.max(1) as f64,
        nsm.cycles_per_tuple / pax.cycles_per_tuple.max(1e-9),
    )
}

impl LayoutReport {
    /// Narrow-projection L2 data-miss reduction (the gated headline).
    pub fn narrow_l2d_miss_reduction(&self) -> f64 {
        self.narrow_nsm.l2_data_misses as f64 / self.narrow_pax.l2_data_misses.max(1) as f64
    }

    /// Full-row PAX/NSM miss ratio (must stay near parity).
    pub fn full_row_miss_ratio(&self) -> f64 {
        self.full_pax.l2_data_misses as f64 / self.full_nsm.l2_data_misses.max(1) as f64
    }

    /// The `BENCH_layout.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"page_layout_comparison\",\n  \"rows\": {SCAN_ROWS},\n  \
             \"record_bytes\": {SCAN_RECORD_BYTES},\n{},\n{}\n}}\n",
            layout_scenario_json(
                "narrow_projection_scan",
                SystemId::A,
                &self.narrow_nsm,
                &self.narrow_pax
            ),
            layout_scenario_json("full_row_scan", SystemId::C, &self.full_nsm, &self.full_pax),
        )
    }
}

/// Runs the NSM-vs-PAX benchmark.
pub fn run_layout_report() -> LayoutReport {
    let narrow_nsm = measure_layout(SystemId::A, PageLayout::Nsm);
    let narrow_pax = measure_layout(SystemId::A, PageLayout::Pax);
    assert_eq!(narrow_nsm.rows, narrow_pax.rows, "layouts must agree");
    let full_nsm = measure_layout(SystemId::C, PageLayout::Nsm);
    let full_pax = measure_layout(SystemId::C, PageLayout::Pax);
    assert_eq!(full_nsm.rows, full_pax.rows, "layouts must agree");
    LayoutReport {
        narrow_nsm,
        narrow_pax,
        full_nsm,
        full_pax,
    }
}

// ---------------------------------------------------------------------
// join_compare: join strategies
// ---------------------------------------------------------------------

/// The join-strategy comparison (a [`JoinComparison`] grid plus the
/// headline accessors the regression gate reads).
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// The measured grid (3 strategies × 2 modes × 2 layouts).
    pub cmp: JoinComparison,
}

impl JoinReport {
    /// Row-mode NSM L2 data-miss reduction, naive hash / partitioned
    /// (the gated headline).
    pub fn l2d_miss_reduction_row(&self) -> f64 {
        self.cmp
            .l2d_miss_reduction(ExecMode::Row, PageLayout::Nsm)
            .expect("grid measured")
    }

    /// Batch-mode NSM simulated speedup, naive hash / partitioned (the
    /// gated headline: batching amortizes the scatter code, so this is
    /// where partitioning's miss savings show up as cycles).
    pub fn join_speedup_batch(&self) -> f64 {
        self.cmp
            .speedup(ExecMode::Batch, PageLayout::Nsm)
            .expect("grid measured")
    }

    /// T_M share of one cell.
    pub fn t_m_share(&self, algo: JoinAlgo, mode: ExecMode) -> f64 {
        let c = self.cmp.get(algo, mode, PageLayout::Nsm).expect("measured");
        c.truth.tm() / c.truth.cycles.max(1e-9)
    }

    /// The `BENCH_join.json` document.
    pub fn to_json(&self) -> String {
        let spec = &self.cmp.spec;
        let mut cells = String::new();
        for (i, c) in self.cmp.cells.iter().enumerate() {
            let f = c.truth.four_way();
            let algo = match c.algo {
                JoinAlgo::Hash => "hash",
                JoinAlgo::PartitionedHash => "partitioned_hash",
                JoinAlgo::IndexNestedLoop => "index_nl",
            };
            cells.push_str(&format!(
                "    {{ \"strategy\": \"{algo}\", \"mode\": \"{:?}\", \"layout\": \"{:?}\", \
                 \"rows\": {}, \"l2_data_misses\": {}, \"cycles\": {:.0}, \
                 \"instructions\": {}, \"t_c_share\": {:.4}, \"t_m_share\": {:.4}, \
                 \"t_b_share\": {:.4}, \"t_r_share\": {:.4} }}{}\n",
                c.mode,
                c.layout,
                c.rows,
                c.l2_data_misses,
                c.truth.cycles,
                c.truth.inst_retired,
                f.computation,
                f.memory,
                f.branch,
                f.resource,
                if i + 1 == self.cmp.cells.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        format!(
            "{{\n  \"benchmark\": \"join_comparison\",\n  \"system\": \"{}\",\n  \
             \"build_rows\": {},\n  \"probe_rows\": {},\n  \"record_bytes\": {},\n  \
             \"match_rate\": {:.2},\n  \"cells\": [\n{cells}  ],\n  \
             \"l2d_miss_reduction_row\": {:.3},\n  \"l2d_miss_reduction_batch\": {:.3},\n  \
             \"t_m_share_hash_row\": {:.4},\n  \"t_m_share_partitioned_row\": {:.4},\n  \
             \"join_speedup_row\": {:.3},\n  \"join_speedup_batch\": {:.3}\n}}\n",
            self.cmp.system.letter(),
            spec.build_rows,
            spec.probe_rows,
            spec.record_bytes,
            spec.match_rate,
            self.l2d_miss_reduction_row(),
            self.cmp
                .l2d_miss_reduction(ExecMode::Batch, PageLayout::Nsm)
                .expect("grid measured"),
            self.t_m_share(JoinAlgo::Hash, ExecMode::Row),
            self.t_m_share(JoinAlgo::PartitionedHash, ExecMode::Row),
            self.cmp
                .speedup(ExecMode::Row, PageLayout::Nsm)
                .expect("grid measured"),
            self.join_speedup_batch(),
        )
    }
}

/// Runs the join-strategy benchmark: the default join workload (naive hash
/// table ≈3× the L2) on System C, all strategies × modes × layouts.
pub fn run_join_report() -> JoinReport {
    let cmp = JoinComparison::run(
        SystemId::C,
        JoinSpec::default(),
        &CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    )
    .expect("join comparison runs");
    JoinReport { cmp }
}

// ---------------------------------------------------------------------
// branch_compare: branching vs predicated selection across selectivity
// ---------------------------------------------------------------------

/// Dataset for the selectivity sweep: the §3.3 shape with 20-byte records
/// (the branch term does not depend on record width, and narrow records —
/// the same choice [`JoinSpec`]'s default makes — keep the per-page
/// buffer-pool code, which contributes selectivity-independent structural
/// T_B noise, from diluting the qualify term the sweep studies) at a size
/// where the full selection × mode × layout × 9-point grid stays
/// CI-friendly.
pub fn branch_scale() -> Scale {
    Scale {
        r_records: 48_000,
        s_records: 1_600,
        record_bytes: 20,
    }
}

/// The selection-mode comparison (a [`SelectivityComparison`] grid plus the
/// headline accessors the regression gate reads).
#[derive(Debug, Clone)]
pub struct BranchReport {
    /// The measured grid (2 selection modes × 2 exec modes × 2 layouts ×
    /// the 1%→99% sweep).
    pub cmp: SelectivityComparison,
}

impl BranchReport {
    /// The branching series' T_B-share peak in one (mode, layout) slice.
    pub fn branching_peak(&self, mode: ExecMode, layout: PageLayout) -> &BranchCell {
        self.cmp
            .peak_tb(SelectionMode::Branching, mode, layout)
            .expect("grid measured")
    }

    /// Batch-mode NSM peak-T_B-share reduction, branching / predicated
    /// (the gated headline: batch mode is where the structural loop
    /// branches predict almost perfectly, so the qualify branch *is* the
    /// T_B term and predication's full win is visible).
    pub fn tb_peak_reduction_batch(&self) -> f64 {
        self.cmp
            .peak_tb_reduction(ExecMode::Batch, PageLayout::Nsm)
            .expect("grid measured")
    }

    /// Largest predicated T_B share across the batch/NSM sweep (must stay
    /// a sliver of T_Q — nothing data-dependent is left to mispredict).
    pub fn predicated_tb_max_share(&self) -> f64 {
        self.cmp
            .series(SelectionMode::Predicated, ExecMode::Batch, PageLayout::Nsm)
            .iter()
            .map(|c| c.tb_share())
            .fold(0.0, f64::max)
    }

    /// The `BENCH_branch.json` document.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.cmp.cells.iter().enumerate() {
            let f = c.truth.four_way();
            let selection = match c.selection {
                SelectionMode::Branching => "branching",
                SelectionMode::Predicated => "predicated",
            };
            cells.push_str(&format!(
                "    {{ \"selection\": \"{selection}\", \"mode\": \"{:?}\", \
                 \"layout\": \"{:?}\", \"selectivity\": {:.2}, \"rows\": {}, \
                 \"qualify_branch_misses\": {}, \"select_ops\": {}, \"cycles\": {:.0}, \
                 \"t_c_share\": {:.4}, \"t_m_share\": {:.4}, \"t_b_share\": {:.4}, \
                 \"t_r_share\": {:.4} }}{}\n",
                c.mode,
                c.layout,
                c.selectivity,
                c.rows,
                c.qualify_branch_misses,
                c.select_ops,
                c.truth.cycles,
                f.computation,
                f.memory,
                f.branch,
                f.resource,
                if i + 1 == self.cmp.cells.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        let peak = self.branching_peak(ExecMode::Batch, PageLayout::Nsm);
        let row_peak = self.branching_peak(ExecMode::Row, PageLayout::Nsm);
        format!(
            "{{\n  \"benchmark\": \"selection_mode_comparison\",\n  \"system\": \"{}\",\n  \
             \"rows\": {},\n  \"record_bytes\": {},\n  \"cells\": [\n{cells}  ],\n  \
             \"branching_tb_peak_share\": {:.4},\n  \"branching_tb_peak_selectivity\": {:.2},\n  \
             \"branching_tb_peak_share_row\": {:.4},\n  \"predicated_tb_max_share\": {:.4},\n  \
             \"tb_peak_reduction_batch\": {:.3},\n  \"tb_peak_reduction_row\": {:.3}\n}}\n",
            self.cmp.system.letter(),
            self.cmp.scale.r_records,
            self.cmp.scale.record_bytes,
            peak.tb_share(),
            peak.selectivity,
            row_peak.tb_share(),
            self.predicated_tb_max_share(),
            self.tb_peak_reduction_batch(),
            self.cmp
                .peak_tb_reduction(ExecMode::Row, PageLayout::Nsm)
                .expect("grid measured"),
        )
    }
}

/// Runs the selection-mode benchmark: the full selection × mode × layout
/// grid over the 1%→99% sweep on System A — the lean *compiled* engine,
/// where predication (a code-generation technique) is at home and whose
/// minimal structural branch noise isolates the data-dependent qualify
/// term the sweep studies.
pub fn run_branch_report() -> BranchReport {
    let cmp = SelectivityComparison::run(
        SystemId::A,
        branch_scale(),
        &SweepSpec::branch_sweep(),
        &CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    )
    .expect("selectivity comparison runs");
    BranchReport { cmp }
}

// ---------------------------------------------------------------------
// scale_compare: sharded multi-core scaling
// ---------------------------------------------------------------------

/// Dataset for the scaling sweep: the §3.3 DSS shape at dev scale — big
/// enough that the sequential scan dominates each shard's per-query setup
/// (so the speedup curve measures the scan, not fixed overheads), small
/// enough that the 16-cell grid stays CI-friendly.
pub fn scale_workload() -> Scale {
    Scale {
        r_records: 100_020,
        s_records: 3_334,
        record_bytes: 100,
    }
}

/// Compiles a §3.3 microbenchmark workload from its SQL text
/// ([`micro::query_sql`]) against a schema-only catalog — the compiled
/// [`Query`] is what the measured loops run, so stating the workload in SQL
/// costs zero measured cycles.
fn compile_micro_sql(scale: Scale, cfg: &CpuConfig, q: MicroQuery, sel: f64) -> Query {
    let mut cat = Database::new(EngineProfile::system(SystemId::C), cfg.clone());
    cat.create_table("R", Schema::paper_relation(scale.record_bytes))
        .unwrap();
    if q == MicroQuery::SequentialJoin {
        cat.create_table("S", Schema::paper_relation(scale.record_bytes))
            .unwrap();
    }
    sql_query(&cat, &micro::query_sql(scale, q, sel))
}

/// The multi-core scaling comparison (a [`ScalingComparison`] grid plus the
/// headline accessors the regression gate reads).
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// The measured grid (shards {1,2,4,8} × 2 exec modes × 2 layouts).
    pub cmp: ScalingComparison,
    /// Host-clock scaling of the OS-thread morsel executor on the Row/NSM
    /// slice (real seconds beside the modeled cycles above).
    pub host: HostScaling,
}

impl ScaleReport {
    /// Wall-clock speedup of `n` shards over 1 in one (mode, layout) slice.
    pub fn speedup(&self, shards: usize, mode: ExecMode, layout: PageLayout) -> f64 {
        self.cmp
            .speedup(shards, mode, layout)
            .expect("grid measured")
    }

    /// Row-mode NSM 4-shard wall-clock speedup on the DSS sequential scan
    /// (the gated headline — the paper's configuration, scaled out).
    pub fn speedup_4shard(&self) -> f64 {
        self.speedup(4, ExecMode::Row, PageLayout::Nsm)
    }

    /// Host wall-clock speedup of the 4-shard threaded run over 1 worker.
    pub fn host_speedup_4shard(&self) -> f64 {
        self.host.host_speedup_4shard()
    }

    /// Whether every cell returned the same rows *and bit-identical* value
    /// as the 1-shard cell of its (mode, layout) slice.
    pub fn answers_identical(&self) -> bool {
        self.cmp.cells.iter().all(|c| {
            let one = self
                .cmp
                .get(1, c.mode, c.layout)
                .expect("1-shard baseline measured");
            c.rows == one.rows && c.value == one.value
        })
    }

    /// The `BENCH_scale.json` document.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.cmp.cells.iter().enumerate() {
            let f = c.truth.four_way();
            cells.push_str(&format!(
                "    {{ \"shards\": {}, \"mode\": \"{:?}\", \"layout\": \"{:?}\", \
                 \"rows\": {}, \"wall_cycles\": {:.0}, \"total_cycles\": {:.0}, \
                 \"speedup\": {:.3}, \"t_c_share\": {:.4}, \"t_m_share\": {:.4}, \
                 \"t_b_share\": {:.4}, \"t_r_share\": {:.4} }}{}\n",
                c.shards,
                c.mode,
                c.layout,
                c.rows,
                c.wall_cycles,
                c.total_cycles,
                self.cmp.speedup(c.shards, c.mode, c.layout).unwrap_or(1.0),
                f.computation,
                f.memory,
                f.branch,
                f.resource,
                if i + 1 == self.cmp.cells.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        let mut host_cells = String::new();
        for (i, h) in self.host.cells.iter().enumerate() {
            host_cells.push_str(&format!(
                "    {{ \"shards\": {}, \"host_seq_secs\": {:.6}, \
                 \"host_par_secs\": {:.6}, \"host_speedup\": {:.3} }}{}\n",
                h.shards,
                h.seq_secs,
                h.par_secs,
                h.host_speedup(),
                if i + 1 == self.host.cells.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        format!(
            "{{\n  \"benchmark\": \"sharded_scaling\",\n  \"system\": \"{}\",\n  \
             \"query\": \"{}\",\n  \"rows\": {},\n  \"record_bytes\": {},\n  \
             \"cells\": [\n{cells}  ],\n  \
             \"speedup_2shard\": {:.3},\n  \"speedup_4shard\": {:.3},\n  \
             \"speedup_8shard\": {:.3},\n  \"speedup_4shard_batch\": {:.3},\n  \
             \"answers_identical\": {},\n  \
             \"host_cores\": {},\n  \"host_threads\": {},\n  \
             \"host_scaling\": [\n{host_cells}  ],\n  \
             \"host_speedup_4shard\": {:.3}\n}}\n",
            self.cmp.system.letter(),
            self.cmp.query.label(),
            self.cmp.scale.r_records,
            self.cmp.scale.record_bytes,
            self.speedup(2, ExecMode::Row, PageLayout::Nsm),
            self.speedup_4shard(),
            self.speedup(8, ExecMode::Row, PageLayout::Nsm),
            self.speedup(4, ExecMode::Batch, PageLayout::Nsm),
            self.answers_identical(),
            self.host.host_cores,
            self.host.threads,
            self.host_speedup_4shard(),
        )
    }
}

/// Runs the scaling benchmark: the DSS sequential range selection on
/// System C across shards {1,2,4,8} × exec mode × page layout, plus the
/// host-clock scaling of the OS-thread morsel executor (threads = this
/// host's available parallelism).
pub fn run_scale_report() -> ScaleReport {
    run_scale_report_with_threads(host_parallelism())
}

/// [`run_scale_report`] with an explicit worker-thread count for the
/// host-clock measurement (the `--threads N` knob on `scale_compare`).
pub fn run_scale_report_with_threads(threads: usize) -> ScaleReport {
    let cmp = ScalingComparison::run(
        SystemId::C,
        scale_workload(),
        MicroQuery::SequentialRangeSelection,
        &CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    )
    .expect("scaling comparison runs");
    let host = measure_host_scaling(threads);
    ScaleReport { cmp, host }
}

// ---------------------------------------------------------------------
// host parallelism: wall-clock scaling of the OS-thread morsel executor
// ---------------------------------------------------------------------

/// This host's available hardware parallelism (1 if unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses an optional `--threads N` / `--threads=N` CLI argument; exits
/// with a usage message on a malformed value.
pub fn parse_threads_arg() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = if a == "--threads" {
            args.next()
        } else if let Some(v) = a.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            continue;
        };
        match val.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n >= 1 => return Some(n),
            _ => {
                eprintln!("usage: --threads N  (N >= 1)");
                std::process::exit(2);
            }
        }
    }
    None
}

/// One shard count's host-clock cell: best-of-`HOST_TIMING_REPS` seconds
/// for the sequential (1-worker) and threaded executor on the Row/NSM
/// DSS scan. Simulated counters are asserted bit-identical between the
/// two before the times are reported, so the speedup compares two runs of
/// *the same* simulated work.
#[derive(Debug, Clone, Copy)]
pub struct HostScalingCell {
    /// Simulated shard (core) count.
    pub shards: usize,
    /// Best host seconds with a single worker thread.
    pub seq_secs: f64,
    /// Best host seconds with the measured worker-thread count.
    pub par_secs: f64,
}

impl HostScalingCell {
    /// Host wall-clock speedup of the threaded run over the 1-worker run.
    pub fn host_speedup(&self) -> f64 {
        self.seq_secs / self.par_secs.max(1e-12)
    }
}

/// Host-clock scaling of [`ShardedDatabase::run_parallel`] across shard
/// counts, measured with `threads` worker threads.
#[derive(Debug, Clone)]
pub struct HostScaling {
    /// `available_parallelism()` on the measuring host — the gate in
    /// `bench_check` only enforces the speedup floor when this is >= 4.
    pub host_cores: usize,
    /// Worker threads used for the parallel runs.
    pub threads: usize,
    /// One cell per shard count in {1, 2, 4, 8}.
    pub cells: Vec<HostScalingCell>,
}

impl HostScaling {
    /// Host wall-clock speedup of the 4-shard scan (the gated headline).
    pub fn host_speedup_4shard(&self) -> f64 {
        self.cells
            .iter()
            .find(|c| c.shards == 4)
            .expect("4-shard cell measured")
            .host_speedup()
    }
}

/// Timing repetitions per (shard count, worker count); the minimum is
/// reported to shed scheduler noise.
const HOST_TIMING_REPS: usize = 3;

/// Measures host seconds for the Row/NSM DSS scan per shard count, with 1
/// worker and with `threads` workers, asserting bit-identical answers and
/// merged counters between the two (the executor's determinism contract).
pub fn measure_host_scaling(threads: usize) -> HostScaling {
    let scale = scale_workload();
    let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled());
    let q = compile_micro_sql(scale, &cfg, MicroQuery::SequentialRangeSelection, 0.1);
    let mut cells = Vec::new();
    for &shards in &ScalingComparison::SHARD_COUNTS {
        // One warmed measurement per worker count, each on its own fresh
        // build: the simulator's state (caches, predictor history) carries
        // across runs on one database, so only runs with identical history
        // are comparable bit-for-bit.
        let measure = |pc: &ParallelConfig| {
            let mut db = build_sharded_db_with_layout(
                EngineProfile::system(SystemId::C),
                scale,
                MicroQuery::SequentialRangeSelection,
                &cfg,
                PageLayout::Nsm,
                shards,
            )
            .expect("sharded build");
            db.run_parallel(&q, pc).expect("warm-up run");
            let before = db.snapshots();
            let answer = db.run_parallel(&q, pc).expect("measured run");
            let delta = db.merged_delta(&before);
            // Host seconds: best of a few reps on the warmed database.
            let mut best = f64::INFINITY;
            for _ in 0..HOST_TIMING_REPS {
                let t = Instant::now();
                db.run_parallel(&q, pc).expect("timed run");
                best = best.min(t.elapsed().as_secs_f64());
            }
            (answer, delta, best)
        };
        let seq = ParallelConfig::default().with_workers(1);
        let par = ParallelConfig::default().with_workers(threads);
        let (a, s_delta, seq_secs) = measure(&seq);
        let (b, p_delta, par_secs) = measure(&par);

        // The executor's contract: thread count must not move a single
        // simulated bit.
        assert_eq!((a.rows, a.value.to_bits()), (b.rows, b.value.to_bits()));
        assert_eq!(
            s_delta, p_delta,
            "thread count perturbed simulated counters"
        );
        cells.push(HostScalingCell {
            shards,
            seq_secs,
            par_secs,
        });
    }
    HostScaling {
        host_cores: host_parallelism(),
        threads,
        cells,
    }
}

/// Outcome parity of a seeded fault grid under the threaded executor: each
/// (seed, rate) scenario is run with 1 worker and with `threads` workers,
/// comparing the full typed outcome *and* the merged counter delta.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedChaosParity {
    /// Worker threads compared against the 1-worker baseline.
    pub threads: usize,
    /// Scenarios compared.
    pub runs: usize,
    /// Scenarios whose outcome or counters diverged (must be 0).
    pub diverged: usize,
}

/// Runs the threaded fault-parity check (the `--threads N` knob on
/// `chaos_sweep`): deterministic fault plans must surface the same typed
/// result and bit-identical merged counters at any worker count.
pub fn run_threaded_chaos_parity(threads: usize) -> ThreadedChaosParity {
    let scale = Scale::tiny();
    let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled());
    let q = compile_micro_sql(scale, &cfg, MicroQuery::SequentialRangeSelection, 0.1);
    let mut runs = 0;
    let mut diverged = 0;
    for seed in 0..6u64 {
        for rate in [0.0, 1e-3, 1e-2] {
            let outcome = |workers: usize| {
                let mut db = build_sharded_db_with_layout(
                    EngineProfile::system(SystemId::C),
                    scale,
                    MicroQuery::SequentialRangeSelection,
                    &cfg,
                    PageLayout::Nsm,
                    4,
                )
                .expect("sharded build");
                db.set_fault_plan(FaultPlan::uniform(seed, rate));
                let before = db.snapshots();
                let r = db.run_parallel(
                    &q,
                    &ParallelConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(1024)
                        .with_steal_seed(seed),
                );
                (r, db.merged_delta(&before))
            };
            runs += 1;
            if outcome(1) != outcome(threads) {
                diverged += 1;
            }
        }
    }
    ThreadedChaosParity {
        threads,
        runs,
        diverged,
    }
}

// ---------------------------------------------------------------------
// chaos_sweep: deterministic fault grid + guardrail overhead
// ---------------------------------------------------------------------

/// Rows in the chaos workloads' scanned/probed relation — smaller than the
/// headline scan so the whole fault grid (workloads × rates × seeds) stays
/// cheap enough for CI.
pub const CHAOS_ROWS: u64 = 20_000;
/// Build-side rows of the chaos join workload.
pub const CHAOS_BUILD_ROWS: u64 = 1_500;
/// Per-site fault probabilities swept per workload.
pub const CHAOS_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];
/// Runs (distinct fault-plan seeds) per grid cell.
pub const CHAOS_RUNS_PER_CELL: u32 = 24;

/// The chaos scan workload as SQL (the paper's 10% band on R's domain).
pub const CHAOS_SCAN_SQL: &str = "SELECT AVG(a3) FROM R WHERE a2 > 900 AND a2 < 1101";
/// The chaos join workload as SQL (§3.3 query 2 on the chaos relations).
pub const CHAOS_JOIN_SQL: &str = "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1";

/// Builds the chaos scan relation: `CHAOS_ROWS` 20-byte records with the
/// same column roles as the headline scan relation.
fn build_chaos_db(extra: Option<(&str, u64)>) -> Database {
    let mut db = Database::new(
        EngineProfile::system(SystemId::C),
        CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    );
    db.ctx.instrument = false;
    db.create_table("R", Schema::paper_relation(20)).unwrap();
    db.load_rows(
        "R",
        (0..CHAOS_ROWS).map(|i| {
            let x = i.wrapping_mul(0x9e37_79b9);
            vec![i as i32, (x % 2_000) as i32 + 1, (x % 10_000) as i32, 0, 0]
        }),
    )
    .unwrap();
    if let Some((name, rows)) = extra {
        db.create_table(name, Schema::paper_relation(20)).unwrap();
        // Build-side keys 1..=rows in a1, overlapping R.a2's 1..=2000 domain.
        db.load_rows(
            name,
            (0..rows).map(|i| {
                let x = i.wrapping_mul(0x85eb_ca6b);
                vec![i as i32 + 1, 0, (x % 10_000) as i32, 0, 0]
            }),
        )
        .unwrap();
    }
    db.ctx.instrument = true;
    db
}

/// One (workload × fault-rate) cell of the chaos grid.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCell {
    /// Workload label.
    pub workload: &'static str,
    /// Per-site fault probability of the uniform plan.
    pub rate: f64,
    /// Runs (distinct fault-plan seeds) in the cell.
    pub runs: u32,
    /// Runs that completed with the bit-identical fault-free answer.
    pub ok: u32,
    /// Completed runs that absorbed at least one injected fault or retry.
    pub recovered: u32,
    /// Runs that surfaced a typed error.
    pub errored: u32,
    /// Completed runs whose answer differed from fault-free (must be 0).
    pub wrong: u32,
    /// Faults injected across the cell.
    pub faults: u64,
    /// Shard-router retries across the cell.
    pub retries: u64,
    /// Partitioned-join downgrades across the cell.
    pub downgrades: u64,
}

impl ChaosCell {
    fn new(workload: &'static str, rate: f64) -> ChaosCell {
        ChaosCell {
            workload,
            rate,
            runs: 0,
            ok: 0,
            recovered: 0,
            errored: 0,
            wrong: 0,
            faults: 0,
            retries: 0,
            downgrades: 0,
        }
    }

    fn absorb_run(
        &mut self,
        r: &Result<QueryResult, DbError>,
        expected: &QueryResult,
        faults: u64,
        retries: u64,
        downgrades: u64,
    ) {
        self.runs += 1;
        self.faults += faults;
        self.retries += retries;
        self.downgrades += downgrades;
        match r {
            Ok(got) => {
                if got.rows == expected.rows && got.value.to_bits() == expected.value.to_bits() {
                    self.ok += 1;
                    if faults > 0 || retries > 0 {
                        self.recovered += 1;
                    }
                } else {
                    self.wrong += 1;
                }
            }
            Err(_) => self.errored += 1,
        }
    }
}

/// Deterministic per-rep plan seed: cell salt spread by the golden ratio.
fn chaos_seed(salt: u64, rep: u32) -> u64 {
    salt.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rep as u64 + 1))
}

/// Sweeps one fault rate on an unsharded database (no retry layer, so any
/// injected fault surfaces as a typed error — unless the engine can degrade,
/// as the partitioned join does on arena faults).
fn run_db_cell(
    db: &mut Database,
    workload: &'static str,
    rate: f64,
    salt: u64,
    q: &Query,
    expected: &QueryResult,
) -> ChaosCell {
    let mut cell = ChaosCell::new(workload, rate);
    for rep in 0..CHAOS_RUNS_PER_CELL {
        db.set_fault_plan(FaultPlan::uniform(chaos_seed(salt, rep), rate));
        let r = db.run(q);
        let stats = db.robustness_stats();
        cell.absorb_run(&r, expected, stats.total_faults(), 0, stats.join_downgrades);
    }
    db.set_fault_plan(FaultPlan::disabled());
    cell
}

/// Sweeps one fault rate on a sharded database, where the router's bounded
/// retries absorb transient faults.
fn run_sharded_cell(
    db: &mut ShardedDatabase,
    workload: &'static str,
    rate: f64,
    salt: u64,
    q: &Query,
    expected: &QueryResult,
) -> ChaosCell {
    let mut cell = ChaosCell::new(workload, rate);
    for rep in 0..CHAOS_RUNS_PER_CELL {
        db.set_fault_plan(FaultPlan::uniform(chaos_seed(salt, rep), rate));
        db.reset_router_stats();
        let r = db.run(q);
        let stats = db.robustness_stats();
        let router = db.router_stats();
        cell.absorb_run(
            &r,
            expected,
            stats.total_faults(),
            router.retries,
            stats.join_downgrades,
        );
    }
    db.set_fault_plan(FaultPlan::disabled());
    cell
}

/// Simulated cycles of the headline scan with guardrails fully off vs armed
/// (zero-rate fault plan + finite-but-generous budget): the cost of the
/// cooperative checkpoints themselves.
fn measure_guardrail_overhead() -> (f64, f64) {
    let measure = |guarded: bool| -> f64 {
        let mut db = build_scan_db(SystemId::C, PageLayout::Nsm);
        if guarded {
            db.set_fault_plan(FaultPlan::uniform(7, 0.0));
            db.set_budget(
                ResourceBudget::unlimited()
                    .with_max_cycles(u64::MAX)
                    .with_max_arena_bytes(u64::MAX),
            );
        }
        let q = scan_query();
        db.run(&q).unwrap(); // warm
        let before = db.cpu().snapshot();
        db.run(&q).unwrap();
        db.cpu().snapshot().delta(&before).cycles
    };
    (measure(false), measure(true))
}

/// The chaos sweep: fault grid over three workloads, the guardrail-overhead
/// measurement, and the budget-pressure join-downgrade scenario.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The measured grid (3 workloads × `CHAOS_RATES`).
    pub cells: Vec<ChaosCell>,
    /// Simulated cycles of the headline scan, guardrails off.
    pub baseline_cycles: f64,
    /// Simulated cycles of the same scan with guardrails armed (zero rates).
    pub guarded_cycles: f64,
    /// Whether the budget-pressured partitioned join degraded to the naive
    /// join and still produced the bit-identical answer.
    pub downgrade_answer_ok: bool,
}

impl ChaosReport {
    /// Completed runs whose answer differed from fault-free — the safety
    /// headline; must be zero.
    pub fn wrong_answers(&self) -> u64 {
        self.cells.iter().map(|c| c.wrong as u64).sum()
    }

    /// Of the runs that saw at least one injected fault, the fraction the
    /// engine absorbed (retry or downgrade) and still answered correctly.
    pub fn recovery_rate(&self) -> f64 {
        let recovered: u64 = self.cells.iter().map(|c| c.recovered as u64).sum();
        let errored: u64 = self.cells.iter().map(|c| c.errored as u64).sum();
        if recovered + errored == 0 {
            1.0
        } else {
            recovered as f64 / (recovered + errored) as f64
        }
    }

    /// Percent simulated-cycle overhead of armed guardrails on the
    /// fault-free headline scan (gated < 2%).
    pub fn guardrail_overhead_pct(&self) -> f64 {
        100.0 * (self.guarded_cycles - self.baseline_cycles) / self.baseline_cycles.max(1e-9)
    }

    /// The `BENCH_chaos.json` document.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.cells.iter().enumerate() {
            cells.push_str(&format!(
                "    {{ \"workload\": \"{}\", \"rate\": {}, \"runs\": {}, \"ok\": {}, \
                 \"recovered\": {}, \"errored\": {}, \"wrong\": {}, \"faults\": {}, \
                 \"retries\": {}, \"downgrades\": {} }}{}\n",
                c.workload,
                c.rate,
                c.runs,
                c.ok,
                c.recovered,
                c.errored,
                c.wrong,
                c.faults,
                c.retries,
                c.downgrades,
                if i + 1 == self.cells.len() { "" } else { "," },
            ));
        }
        format!(
            "{{\n  \"benchmark\": \"chaos_sweep\",\n  \"scan_rows\": {},\n  \
             \"build_rows\": {},\n  \"runs_per_cell\": {},\n  \
             \"cells\": [\n{cells}  ],\n  \
             \"wrong_answers\": {},\n  \"recovery_rate\": {:.4},\n  \
             \"baseline_cycles\": {:.0},\n  \"guarded_cycles\": {:.0},\n  \
             \"guardrail_overhead_pct\": {:.4},\n  \"downgrade_answer_ok\": {}\n}}\n",
            CHAOS_ROWS,
            CHAOS_BUILD_ROWS,
            CHAOS_RUNS_PER_CELL,
            self.wrong_answers(),
            self.recovery_rate(),
            self.baseline_cycles,
            self.guarded_cycles,
            self.guardrail_overhead_pct(),
            if self.downgrade_answer_ok { 1 } else { 0 },
        )
    }
}

/// Runs the chaos sweep: for each workload (raw scan, 4-shard scan,
/// partitioned join) and each fault rate, `CHAOS_RUNS_PER_CELL` runs under
/// distinct seeded plans, every answer checked bit-for-bit against the
/// fault-free run. Fresh databases per cell keep the sweep deterministic.
pub fn run_chaos_report() -> ChaosReport {
    // Both workloads are stated as SQL and compiled once against the chaos
    // catalog; the grid below measures the compiled plans.
    let q_scan = sql_query(&build_chaos_db(None), CHAOS_SCAN_SQL);
    let q_join = sql_query(
        &build_chaos_db(Some(("S", CHAOS_BUILD_ROWS))),
        CHAOS_JOIN_SQL,
    );
    let mut cells = Vec::new();

    let scan_expected = build_chaos_db(None).run(&q_scan).unwrap();
    for (ri, &rate) in CHAOS_RATES.iter().enumerate() {
        let mut db = build_chaos_db(None);
        cells.push(run_db_cell(
            &mut db,
            "scan_raw",
            rate,
            0x5CA4_0000 + ri as u64,
            &q_scan,
            &scan_expected,
        ));
    }

    let sharded_expected = build_chaos_db(None).shard(4).unwrap().run(&q_scan).unwrap();
    for (ri, &rate) in CHAOS_RATES.iter().enumerate() {
        let mut db = build_chaos_db(None).shard(4).unwrap();
        cells.push(run_sharded_cell(
            &mut db,
            "scan_4shard",
            rate,
            0x54A4_0000 + ri as u64,
            &q_scan,
            &sharded_expected,
        ));
    }

    let build_join_db = || {
        let mut db = build_chaos_db(Some(("S", CHAOS_BUILD_ROWS)));
        db.set_join_algo(JoinAlgo::PartitionedHash);
        db
    };
    let join_expected = build_join_db().run(&q_join).unwrap();
    for (ri, &rate) in CHAOS_RATES.iter().enumerate() {
        let mut db = build_join_db();
        cells.push(run_db_cell(
            &mut db,
            "join_partitioned",
            rate,
            0x104A_0000 + ri as u64,
            &q_join,
            &join_expected,
        ));
    }

    // Budget-pressure degradation: a tight arena budget must downgrade the
    // partitioned join to the naive join, not fail it — same answer, and the
    // downgrade recorded.
    let mut db = build_join_db();
    db.set_budget(ResourceBudget::unlimited().with_max_arena_bytes(32 * 1024));
    let degraded = db.run(&q_join);
    let downgrade_answer_ok = matches!(
        &degraded,
        Ok(got) if got.rows == join_expected.rows
            && got.value.to_bits() == join_expected.value.to_bits()
    ) && db.robustness_stats().join_downgrades == 1;

    let (baseline_cycles, guarded_cycles) = measure_guardrail_overhead();
    ChaosReport {
        cells,
        baseline_cycles,
        guarded_cycles,
        downgrade_answer_ok,
    }
}

// ---------------------------------------------------------------------
// planner_compare: the SQL planner's picks vs the exhaustive best
// ---------------------------------------------------------------------

/// Rows in the planner scenarios' scanned/probed relation.
pub const PLANNER_SCAN_ROWS: usize = 4096;
/// Build-side row counts of the join scenarios — one comfortably inside the
/// shrunk L2, one far beyond it, so the grid brackets the partitioned
/// join's crossover.
pub const PLANNER_JOIN_BUILDS: [usize; 2] = [128, 4096];
/// L2 capacity for the planner scenarios: shrunk so the join crossover
/// happens at CI-sized builds ([`CpuConfig::with_l2_size`]).
pub const PLANNER_L2_BYTES: u32 = 32 * 1024;

/// The planner validation (a [`PlannerComparison`] grid plus the headline
/// accessors the regression gate reads).
#[derive(Debug, Clone)]
pub struct PlannerReport {
    /// The measured grid: scan selectivity sweep + deep-pipeline scan +
    /// join crossover, each planned from pilot simulation and then
    /// exhaustively measured.
    pub cmp: PlannerComparison,
}

impl PlannerReport {
    /// Fraction of scenarios where the pilot-costed pick was the exhaustive
    /// winner (the baseline-gated headline).
    pub fn planner_win_rate(&self) -> f64 {
        self.cmp.win_rate()
    }

    /// Worst regret across scenarios: actual cycles of the planner's pick
    /// over the exhaustive best. Gated *absolutely* (≤ 1.10): the planner
    /// must stay within 10% of optimal everywhere.
    pub fn max_ratio(&self) -> f64 {
        self.cmp.max_ratio()
    }

    /// Whether the deep-pipeline 50%-selectivity scan chose predication —
    /// the §5.3 headline, rediscovered from simulated branch stalls.
    pub fn predicated_chosen_at_50(&self) -> bool {
        self.cmp
            .cell_named("scan sel=50% deep-pipe")
            .map(|c| c.chosen.contains("predicated"))
            .unwrap_or(false)
    }

    /// Whether the largest join chose the cache-partitioned algorithm —
    /// the L2 crossover, rediscovered from simulated memory stalls.
    pub fn partitioned_chosen_large(&self) -> bool {
        self.cmp
            .cell_named(&format!("join build={}", PLANNER_JOIN_BUILDS[1]))
            .map(|c| c.chosen.ends_with("/partitioned"))
            .unwrap_or(false)
    }

    /// The `BENCH_planner.json` document.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.cmp.cells.iter().enumerate() {
            cells.push_str(&format!(
                "    {{ \"label\": \"{}\", \"sql\": \"{}\", \"chosen\": \"{}\", \
                 \"best\": \"{}\", \"chosen_cycles\": {:.0}, \"best_cycles\": {:.0}, \
                 \"regret\": {:.4}, \"optimal\": {}, \"host_plan_ms\": {:.3} }}{}\n",
                c.label,
                c.sql,
                c.chosen,
                c.best,
                c.chosen_cycles,
                c.best_cycles,
                c.ratio(),
                if c.optimal() { 1 } else { 0 },
                c.host_plan_ms,
                if i + 1 == self.cmp.cells.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        format!(
            "{{\n  \"benchmark\": \"planner_compare\",\n  \"scan_rows\": {},\n  \
             \"l2_bytes\": {},\n  \"deep_pipe_penalty\": {},\n  \
             \"cells\": [\n{cells}  ],\n  \
             \"planner_win_rate\": {:.4},\n  \"max_ratio\": {:.4},\n  \
             \"predicated_chosen_at_50\": {},\n  \"partitioned_chosen_large\": {},\n  \
             \"host_plan_ms_total\": {:.3}\n}}\n",
            PLANNER_SCAN_ROWS,
            PLANNER_L2_BYTES,
            PlannerComparison::DEEP_PIPE_PENALTY,
            self.planner_win_rate(),
            self.max_ratio(),
            if self.predicated_chosen_at_50() { 1 } else { 0 },
            if self.partitioned_chosen_large() {
                1
            } else {
                0
            },
            // Recorded, not gated: host time on a shared machine.
            self.cmp.cells.iter().map(|c| c.host_plan_ms).sum::<f64>(),
        )
    }
}

/// Runs the planner validation: plans each scenario's SQL through
/// [`wdtg_memdb::Session::explain`] (pilot-simulated costs only), measures
/// every enumerated candidate for real, and scores the planner's pick.
pub fn run_planner_report() -> PlannerReport {
    let cfg = CpuConfig::pentium_ii_xeon()
        .with_interrupts(InterruptCfg::disabled())
        .with_l2_size(PLANNER_L2_BYTES);
    PlannerReport {
        cmp: PlannerComparison::run(&cfg, PLANNER_SCAN_ROWS, &PLANNER_JOIN_BUILDS)
            .expect("planner comparison runs"),
    }
}

// ---------------------------------------------------------------------
// oltp_bench: concurrent TPC-C over transactions — TPS, p99, safety
// ---------------------------------------------------------------------

/// Concurrent clients of the OLTP benchmark.
pub const OLTP_CLIENTS: usize = 8;
/// Node replicas the clients are dealt across.
pub const OLTP_NODES: usize = 4;
/// Transactions each client must commit.
pub const OLTP_TXNS_PER_CLIENT: usize = 40;

/// The OLTP service benchmark: its configuration and the measured
/// [`OltpReport`]. All gated numbers are simulated (deterministic across
/// hosts); `host_tps` is recorded for information only.
#[derive(Debug, Clone)]
pub struct OltpBenchReport {
    /// The run configuration (always dev scale).
    pub cfg: OltpConfig,
    /// The measured run.
    pub report: OltpReport,
}

impl OltpBenchReport {
    /// Committed simulated throughput — the baseline-gated headline.
    pub fn sim_tps(&self) -> f64 {
        self.report.sim_tps
    }

    /// The `BENCH_oltp.json` document.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        format!(
            "{{\n  \"benchmark\": \"oltp_bench\",\n  \
             \"clients\": {},\n  \"nodes\": {},\n  \"txns_per_client\": {},\n  \
             \"scale_items\": {},\n  \"scale_customers_per_district\": {},\n  \
             \"committed\": {},\n  \"conflicts\": {},\n  \"retries_exhausted\": {},\n  \
             \"per_kind\": {{ \"new_order\": {}, \"payment\": {}, \"order_status\": {}, \
             \"delivery\": {}, \"stock_level\": {} }},\n  \
             \"oltp\": {{ \"sim_tps\": {:.4}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"wrong_answers\": {}, \"anomalies\": {}, \"recovery_ok\": {}, \
             \"wal_records\": {} }},\n  \
             \"host_tps\": {:.2}\n}}\n",
            r.clients,
            r.nodes,
            self.cfg.txns_per_client,
            self.cfg.scale.items,
            self.cfg.scale.customers_per_district,
            r.committed,
            r.conflicts,
            r.retries_exhausted,
            r.per_kind[0],
            r.per_kind[1],
            r.per_kind[2],
            r.per_kind[3],
            r.per_kind[4],
            r.sim_tps,
            r.p50_ms,
            r.p99_ms,
            r.wrong_answers,
            r.anomalies,
            if r.recovery_ok { 1 } else { 0 },
            r.wal_records,
            r.host_tps,
        )
    }
}

/// Runs the concurrent OLTP benchmark: [`OLTP_CLIENTS`] clients over
/// [`OLTP_NODES`] System C node replicas, with the oracle and WAL-recovery
/// checks armed. Always at dev scale — the scale the committed
/// `BENCH_oltp.json` was captured at — so the gated baseline's identity
/// never depends on the environment.
pub fn run_oltp_report() -> OltpBenchReport {
    let cfg = OltpConfig {
        scale: TpccScale::dev(),
        clients: OLTP_CLIENTS,
        txns_per_client: OLTP_TXNS_PER_CLIENT,
        nodes: OLTP_NODES,
        workers: 0,
        seed: wdtg_workloads::DEFAULT_SEED,
        retry_cap: 64,
    };
    let report = run_oltp(&cfg, || {
        Database::with_capacity(
            EngineProfile::system(SystemId::C),
            CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
            1 << 16,
        )
    })
    .expect("oltp benchmark runs");
    OltpBenchReport { cfg, report }
}

// ---------------------------------------------------------------------
// Baseline JSON extraction (bench_check)
// ---------------------------------------------------------------------

/// Extracts the first `"key": <number>` after the optional `scope`
/// substring of a `BENCH_*.json` document. Hand-rolled on purpose: the
/// documents are produced by the formatters above, and the workspace takes
/// no serde dependency.
pub fn json_number(text: &str, scope: Option<&str>, key: &str) -> Option<f64> {
    let start = match scope {
        Some(s) => text.find(s)? + s.len(),
        None => 0,
    };
    let pat = format!("\"{key}\":");
    let at = text[start..].find(&pat)? + start + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_extracts_scoped_and_unscoped_keys() {
        let doc = "{ \"a\": { \"x\": 1.5 }, \"b\": { \"x\": -2 }, \"y\": 7 }";
        assert_eq!(json_number(doc, None, "x"), Some(1.5));
        assert_eq!(json_number(doc, Some("\"b\""), "x"), Some(-2.0));
        assert_eq!(json_number(doc, None, "y"), Some(7.0));
        assert_eq!(json_number(doc, None, "missing"), None);
        assert_eq!(json_number(doc, Some("\"zzz\""), "x"), None);
    }
}
