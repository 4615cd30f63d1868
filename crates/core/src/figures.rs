//! Per-figure experiment runners (§5 of the paper).
//!
//! Each function regenerates the data series behind one figure or text
//! observation, printing the same rows/series the paper reports. Absolute
//! cycle counts are a model; the *shapes* — which system wins, component
//! dominance, trends under selectivity/record-size variation — are the
//! reproduction targets (see EXPERIMENTS.md).

use wdtg_memdb::exec::PhysicalConfig;
use wdtg_memdb::sql::{compile, BoundStatement, Session};
use wdtg_memdb::{
    Database, DbResult, EngineProfile, ExecMode, JoinAlgo, PageLayout, Schema, SelectionMode,
    SystemId,
};
use wdtg_sim::{CpuConfig, Event, Mode};
use wdtg_workloads::{join, micro, JoinSpec, MicroQuery, Scale, SweepSpec};

use crate::breakdown::TimeBreakdown;
use crate::methodology::{
    build_db_with_layout, build_sharded_db_with_layout, measure_query, Methodology,
    QueryMeasurement,
};
use crate::tables::{pct, TextTable};

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct FigureCtx {
    /// Dataset scale.
    pub scale: Scale,
    /// Processor configuration.
    pub cfg: CpuConfig,
    /// Methodology parameters.
    pub methodology: Methodology,
}

impl FigureCtx {
    /// Default context: dev scale (or `WDTG_SCALE`), Xeon config, fast
    /// methodology.
    pub fn default_ctx() -> FigureCtx {
        FigureCtx {
            scale: Scale::from_env(),
            cfg: CpuConfig::pentium_ii_xeon(),
            methodology: Methodology::default(),
        }
    }
}

/// Systems that participate in each query graph. "The middle graph showing
/// the indexed range selection only includes systems B, C and D, because
/// System A did not use the index to execute this query" (§5.1).
pub fn systems_for(query: MicroQuery) -> &'static [SystemId] {
    match query {
        MicroQuery::IndexedRangeSelection => &[SystemId::B, SystemId::C, SystemId::D],
        _ => &[SystemId::A, SystemId::B, SystemId::C, SystemId::D],
    }
}

/// Measurements for all systems over the three queries at 10% selectivity —
/// the raw material for Figures 5.1, 5.2, 5.3, 5.4-left and 5.5.
#[derive(Debug, Clone)]
pub struct MicrobenchGrid {
    /// One measurement per (query, system) pair, in paper order.
    pub cells: Vec<QueryMeasurement>,
}

impl MicrobenchGrid {
    /// Runs the full grid.
    pub fn run(ctx: &FigureCtx) -> DbResult<MicrobenchGrid> {
        let mut cells = Vec::new();
        for query in MicroQuery::ALL {
            for &sys in systems_for(query) {
                cells.push(measure_query(
                    sys,
                    query,
                    0.1,
                    ctx.scale,
                    &ctx.cfg,
                    &ctx.methodology,
                )?);
            }
        }
        Ok(MicrobenchGrid { cells })
    }

    /// The cell for (query, system), if measured.
    pub fn get(&self, query: MicroQuery, sys: SystemId) -> Option<&QueryMeasurement> {
        self.cells
            .iter()
            .find(|c| c.query == query && c.system == sys)
    }

    /// Figure 5.1: execution-time breakdown into the four components.
    pub fn render_fig5_1(&self) -> String {
        let mut out = String::from(
            "Figure 5.1: Query execution time breakdown (percent of execution time)\n",
        );
        for query in MicroQuery::ALL {
            out.push_str(&format!("\n  {} ({})\n", query.label(), query_title(query)));
            let mut t = TextTable::new([
                "system",
                "Computation",
                "Memory",
                "Branch mispred",
                "Resource",
            ]);
            for &sys in systems_for(query) {
                if let Some(c) = self.get(query, sys) {
                    let f = c.truth.four_way();
                    t.row([
                        sys.letter().to_string(),
                        pct(f.computation),
                        pct(f.memory),
                        pct(f.branch),
                        pct(f.resource),
                    ]);
                }
            }
            out.push_str(&t.render());
        }
        out
    }

    /// Figure 5.2: memory-stall breakdown into the five measurable parts.
    pub fn render_fig5_2(&self) -> String {
        let mut out =
            String::from("Figure 5.2: Contributions of the five memory components to T_M\n");
        for query in MicroQuery::ALL {
            out.push_str(&format!("\n  {} ({})\n", query.label(), query_title(query)));
            let mut t = TextTable::new([
                "system",
                "L1 D-stalls",
                "L1 I-stalls",
                "L2 D-stalls",
                "L2 I-stalls",
                "ITLB stalls",
            ]);
            for &sys in systems_for(query) {
                if let Some(c) = self.get(query, sys) {
                    let s = c.truth.memory_shares();
                    t.row([
                        sys.letter().to_string(),
                        pct(s[0]),
                        pct(s[1]),
                        pct(s[2]),
                        pct(s[3]),
                        pct(s[4]),
                    ]);
                }
            }
            out.push_str(&t.render());
        }
        out
    }

    /// Figure 5.3: instructions retired per record.
    pub fn render_fig5_3(&self) -> String {
        let mut out = String::from(
            "Figure 5.3: Instructions retired per record\n\
             (SRS/SJ: per R record; IRS: per selected record)\n",
        );
        let mut t = TextTable::new(["system", "SRS", "IRS", "SJ"]);
        for sys in SystemId::ALL {
            let cell = |q| {
                self.get(q, sys)
                    .map(|c| format!("{:.0}", c.instructions_per_record()))
                    .unwrap_or_else(|| "-".into())
            };
            t.row([
                sys.letter().to_string(),
                cell(MicroQuery::SequentialRangeSelection),
                cell(MicroQuery::IndexedRangeSelection),
                cell(MicroQuery::SequentialJoin),
            ]);
        }
        out.push_str(&t.render());
        out
    }

    /// Figure 5.4 (left): branch misprediction rates, plus BTB miss rates
    /// (the paper: "the BTB misses 50% of the time on the average").
    pub fn render_fig5_4_left(&self) -> String {
        let mut out =
            String::from("Figure 5.4 (left): branch misprediction rates (BTB miss rate)\n");
        let mut t = TextTable::new(["system", "SRS", "IRS", "SJ"]);
        for sys in SystemId::ALL {
            let cell = |q| {
                self.get(q, sys)
                    .map(|c| format!("{} ({})", pct(c.rates.br_mispredict), pct(c.rates.btb_miss)))
                    .unwrap_or_else(|| "-".into())
            };
            t.row([
                sys.letter().to_string(),
                cell(MicroQuery::SequentialRangeSelection),
                cell(MicroQuery::IndexedRangeSelection),
                cell(MicroQuery::SequentialJoin),
            ]);
        }
        out.push_str(&t.render());
        out
    }

    /// Figure 5.5: T_DEP and T_FU contributions to execution time.
    pub fn render_fig5_5(&self) -> String {
        let mut out =
            String::from("Figure 5.5: T_DEP and T_FU contributions to execution time (percent)\n");
        let mut t = TextTable::new(["system", "SRS dep/fu", "IRS dep/fu", "SJ dep/fu"]);
        for sys in SystemId::ALL {
            let cell = |q| {
                self.get(q, sys)
                    .map(|c| {
                        let total = c.truth.component_sum().max(1e-9);
                        format!(
                            "{} / {}",
                            pct(c.truth.tdep / total),
                            pct(c.truth.tfu / total)
                        )
                    })
                    .unwrap_or_else(|| "-".into())
            };
            t.row([
                sys.letter().to_string(),
                cell(MicroQuery::SequentialRangeSelection),
                cell(MicroQuery::IndexedRangeSelection),
                cell(MicroQuery::SequentialJoin),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

fn query_title(q: MicroQuery) -> &'static str {
    match q {
        MicroQuery::SequentialRangeSelection => "10% Sequential Range Selection",
        MicroQuery::IndexedRangeSelection => "10% Indexed Range Selection",
        MicroQuery::SequentialJoin => "Join",
    }
}

/// Row-vs-batch executor comparison: the paper's breakdowns regenerated
/// over both execution paths of the same engine, demonstrating in our own
/// counters the per-tuple instruction collapse that the vectorized-execution
/// literature (MonetDB/X100; Sirin & Ailamaki 2019) predicts for the
/// paper's row-at-a-time engines.
#[derive(Debug, Clone)]
pub struct ExecModeComparison {
    /// Which microbenchmark query was compared.
    pub query: MicroQuery,
    /// Per system: (row-mode measurement, batch-mode measurement).
    pub pairs: Vec<(QueryMeasurement, QueryMeasurement)>,
}

impl ExecModeComparison {
    /// Runs `query` at 10% selectivity on every participating system in
    /// both execution modes.
    pub fn run(ctx: &FigureCtx, query: MicroQuery) -> DbResult<ExecModeComparison> {
        let mut pairs = Vec::new();
        for &sys in systems_for(query) {
            let row = measure_query(sys, query, 0.1, ctx.scale, &ctx.cfg, &ctx.methodology)?;
            let batch = measure_query(
                sys,
                query,
                0.1,
                ctx.scale,
                &ctx.cfg,
                &ctx.methodology.batched(),
            )?;
            pairs.push((row, batch));
        }
        Ok(ExecModeComparison { query, pairs })
    }

    /// Instruction-per-tuple collapse factor (row / batch) for one system,
    /// if measured.
    pub fn collapse_factor(&self, sys: SystemId) -> Option<f64> {
        self.pairs
            .iter()
            .find(|(r, _)| r.system == sys)
            .map(|(r, b)| r.instructions_per_record() / b.instructions_per_record().max(1e-9))
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Row vs batch execution, {} at 10% selectivity\n\
             (instructions and cycles per record; memory-stall share of time)\n",
            self.query.label()
        );
        let mut t = TextTable::new([
            "system",
            "instr/rec row",
            "instr/rec batch",
            "collapse",
            "cyc/rec row",
            "cyc/rec batch",
            "speedup",
            "mem% row",
            "mem% batch",
        ]);
        for (row, batch) in &self.pairs {
            let mem = |m: &QueryMeasurement| m.truth.four_way().memory;
            t.row([
                row.system.letter().to_string(),
                format!("{:.0}", row.instructions_per_record()),
                format!("{:.0}", batch.instructions_per_record()),
                format!(
                    "{:.1}x",
                    row.instructions_per_record() / batch.instructions_per_record().max(1e-9)
                ),
                format!("{:.0}", row.cycles_per_record()),
                format!("{:.0}", batch.cycles_per_record()),
                format!(
                    "{:.1}x",
                    row.cycles_per_record() / batch.cycles_per_record().max(1e-9)
                ),
                pct(mem(row)),
                pct(mem(batch)),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "batching collapses computation and instruction fetch; memory stalls\n\
             remain, so their *share* of execution time grows — where the time\n\
             goes after the per-tuple overhead is engineered away.\n",
        );
        out
    }
}

/// NSM-vs-PAX page-layout comparison: the paper's breakdowns regenerated
/// over both on-page layouts of the same engine. The paper's headline result
/// is that L2 *data* stalls dominate `T_M` on sequential scans; the PAX
/// layout (Ailamaki et al., VLDB 2001) attacks exactly that term by grouping
/// attribute values into per-page minipages, so a scan touching k of n
/// columns pulls only those k minipages' cache lines.
#[derive(Debug, Clone)]
pub struct LayoutComparison {
    /// Which microbenchmark query was compared.
    pub query: MicroQuery,
    /// Per system: (NSM measurement, PAX measurement).
    pub pairs: Vec<(QueryMeasurement, QueryMeasurement)>,
}

impl LayoutComparison {
    /// Runs `query` at 10% selectivity on every participating system under
    /// both page layouts.
    pub fn run(ctx: &FigureCtx, query: MicroQuery) -> DbResult<LayoutComparison> {
        let mut pairs = Vec::new();
        for &sys in systems_for(query) {
            let nsm = measure_query(sys, query, 0.1, ctx.scale, &ctx.cfg, &ctx.methodology)?;
            let pax = measure_query(sys, query, 0.1, ctx.scale, &ctx.cfg, &ctx.methodology.pax())?;
            pairs.push((nsm, pax));
        }
        Ok(LayoutComparison { query, pairs })
    }

    /// T_L2D reduction factor (NSM / PAX) for one system, if measured.
    pub fn l2d_reduction(&self, sys: SystemId) -> Option<f64> {
        self.pairs
            .iter()
            .find(|(n, _)| n.system == sys)
            .map(|(n, p)| n.truth.tl2d / p.truth.tl2d.max(1e-9))
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "NSM vs PAX page layout, {} at 10% selectivity\n\
             (cycles per record; memory-stall and L2-data shares of time)\n",
            self.query.label()
        );
        let mut t = TextTable::new([
            "system",
            "cyc/rec NSM",
            "cyc/rec PAX",
            "speedup",
            "T_M% NSM",
            "T_M% PAX",
            "T_L2D% NSM",
            "T_L2D% PAX",
        ]);
        for (nsm, pax) in &self.pairs {
            let share = |m: &QueryMeasurement, v: f64| v / m.truth.component_sum().max(1e-9);
            t.row([
                nsm.system.letter().to_string(),
                format!("{:.0}", nsm.cycles_per_record()),
                format!("{:.0}", pax.cycles_per_record()),
                format!(
                    "{:.2}x",
                    nsm.cycles_per_record() / pax.cycles_per_record().max(1e-9)
                ),
                pct(share(nsm, nsm.truth.tm())),
                pct(share(pax, pax.truth.tm())),
                pct(share(nsm, nsm.truth.tl2d)),
                pct(share(pax, pax.truth.tl2d)),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "PAX packs each attribute's values contiguously per page, so engines\n\
             that read only the projected fields (System A) shed most of their L2\n\
             data misses on narrow scans; full-record engines (B/C/D) gather every\n\
             minipage and stay near NSM parity — the fix targets T_L2D, the\n\
             component the paper finds dominant.\n",
        );
        out
    }
}

/// One measured cell of the join-strategy comparison.
#[derive(Debug, Clone)]
pub struct JoinCell {
    /// Join algorithm under test.
    pub algo: JoinAlgo,
    /// Execution mode the query ran under.
    pub mode: ExecMode,
    /// Page layout of both relations.
    pub layout: PageLayout,
    /// Join result cardinality.
    pub rows: u64,
    /// Simulated L2 data misses of the measured run.
    pub l2_data_misses: u64,
    /// Ground-truth breakdown (user mode) of the measured run.
    pub truth: TimeBreakdown,
}

impl JoinCell {
    /// Cycles per probe-side record.
    pub fn cycles_per_probe_row(&self, spec: &JoinSpec) -> f64 {
        self.truth.cycles / spec.probe_rows.max(1) as f64
    }
}

/// The join chapter: the paper's two-table equijoin (§3.3, query 2)
/// measured under every join strategy × execution mode × page layout of
/// one engine, with the Figure 5.1-style T_C/T_M/T_B/T_R breakdown per
/// cell.
///
/// The paper finds the sequential join dominated by L2 data misses and L1
/// instruction misses; this runner regenerates that finding for the naive
/// [`JoinAlgo::Hash`] strategy and puts the radix-partitioned join
/// ([`JoinAlgo::PartitionedHash`]) next to it, so the cache-conscious
/// fix's trade — more instructions, far fewer L2 data misses — is read
/// off the same breakdown the paper uses.
#[derive(Debug, Clone)]
pub struct JoinComparison {
    /// System the comparison ran on.
    pub system: SystemId,
    /// Workload sizing.
    pub spec: JoinSpec,
    /// One cell per (strategy, mode, layout).
    pub cells: Vec<JoinCell>,
}

impl JoinComparison {
    /// Strategies in presentation order.
    pub const STRATEGIES: [JoinAlgo; 3] = [
        JoinAlgo::Hash,
        JoinAlgo::PartitionedHash,
        JoinAlgo::IndexNestedLoop,
    ];

    /// Runs the full 3 strategies × 2 modes × 2 layouts grid on `sys`.
    pub fn run(sys: SystemId, spec: JoinSpec, cfg: &CpuConfig) -> DbResult<JoinComparison> {
        let mut cells = Vec::new();
        for algo in Self::STRATEGIES {
            for mode in [ExecMode::Row, ExecMode::Batch] {
                for layout in PageLayout::ALL {
                    cells.push(Self::measure_cell(sys, spec, cfg, algo, mode, layout)?);
                }
            }
        }
        Ok(JoinComparison {
            system: sys,
            spec,
            cells,
        })
    }

    /// Runs a single-layout grid (3 strategies × 2 modes, NSM only) — a
    /// cheaper grid for demos like `examples/join_strategies.rs`; the bench
    /// binary's `BENCH_join.json` comes from the full [`Self::run`] grid.
    pub fn run_nsm(sys: SystemId, spec: JoinSpec, cfg: &CpuConfig) -> DbResult<JoinComparison> {
        let mut cells = Vec::new();
        for algo in Self::STRATEGIES {
            for mode in [ExecMode::Row, ExecMode::Batch] {
                cells.push(Self::measure_cell(
                    sys,
                    spec,
                    cfg,
                    algo,
                    mode,
                    PageLayout::Nsm,
                )?);
            }
        }
        Ok(JoinComparison {
            system: sys,
            spec,
            cells,
        })
    }

    /// Measures one (strategy, mode, layout) cell: §4.3 methodology —
    /// uninstrumented load, one warm-up run, one measured run.
    pub fn measure_cell(
        sys: SystemId,
        spec: JoinSpec,
        cfg: &CpuConfig,
        algo: JoinAlgo,
        mode: ExecMode,
        layout: PageLayout,
    ) -> DbResult<JoinCell> {
        let expected_pages = (spec.build_rows + spec.probe_rows) / 40 + 1024;
        let mut db =
            Database::with_capacity(EngineProfile::system(sys), cfg.clone(), expected_pages);
        db.set_exec_mode(mode);
        db.set_join_algo(algo);
        db.ctx.instrument = false;
        join::prepare(&mut db, spec, true, layout)?;
        db.ctx.instrument = true;
        let q = join::query();
        let rows = db.run(&q)?.rows; // warm-up (§4.3)
        let before = db.cpu().snapshot();
        db.run(&q)?;
        let delta = db.cpu().snapshot().delta(&before);
        Ok(JoinCell {
            algo,
            mode,
            layout,
            rows,
            l2_data_misses: delta.counters.total(Event::SimL2DataMiss),
            truth: TimeBreakdown::from_snapshot(&delta, Mode::User),
        })
    }

    /// The cell for (algo, mode, layout), if measured.
    pub fn get(&self, algo: JoinAlgo, mode: ExecMode, layout: PageLayout) -> Option<&JoinCell> {
        self.cells
            .iter()
            .find(|c| c.algo == algo && c.mode == mode && c.layout == layout)
    }

    /// L2 data-miss reduction factor (naive hash / partitioned) for one
    /// (mode, layout) slice.
    pub fn l2d_miss_reduction(&self, mode: ExecMode, layout: PageLayout) -> Option<f64> {
        let hash = self.get(JoinAlgo::Hash, mode, layout)?;
        let part = self.get(JoinAlgo::PartitionedHash, mode, layout)?;
        Some(hash.l2_data_misses as f64 / part.l2_data_misses.max(1) as f64)
    }

    /// Simulated-cycle speedup (naive hash / partitioned) for one
    /// (mode, layout) slice.
    pub fn speedup(&self, mode: ExecMode, layout: PageLayout) -> Option<f64> {
        let hash = self.get(JoinAlgo::Hash, mode, layout)?;
        let part = self.get(JoinAlgo::PartitionedHash, mode, layout)?;
        Some(hash.truth.cycles / part.truth.cycles.max(1e-9))
    }

    fn algo_label(algo: JoinAlgo) -> &'static str {
        match algo {
            JoinAlgo::Hash => "HashJoin",
            JoinAlgo::PartitionedHash => "PartitionedHashJoin",
            JoinAlgo::IndexNestedLoop => "IndexNlJoin",
        }
    }

    /// Renders the comparison table (Figure 5.1's four components plus the
    /// L2 data-miss count, one row per cell).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Join strategies, {}: R({} rows) \u{22c8} S({} rows), {} B records\n\
             (percent of execution time per component; cycles per probe row)\n",
            self.system.name(),
            self.spec.probe_rows,
            self.spec.build_rows,
            self.spec.record_bytes,
        );
        let mut t = TextTable::new([
            "strategy",
            "mode",
            "layout",
            "rows",
            "cyc/row",
            "Comp",
            "Mem",
            "Branch",
            "Resource",
            "L2D misses",
        ]);
        for c in &self.cells {
            let f = c.truth.four_way();
            t.row([
                Self::algo_label(c.algo).to_string(),
                format!("{:?}", c.mode),
                format!("{:?}", c.layout),
                c.rows.to_string(),
                format!("{:.0}", c.cycles_per_probe_row(&self.spec)),
                pct(f.computation),
                pct(f.memory),
                pct(f.branch),
                pct(f.resource),
                c.l2_data_misses.to_string(),
            ]);
        }
        out.push_str(&t.render());
        if let (Some(red), Some(sp)) = (
            self.l2d_miss_reduction(ExecMode::Row, PageLayout::Nsm),
            self.speedup(ExecMode::Row, PageLayout::Nsm),
        ) {
            out.push_str(&format!(
                "partitioning buys a {red:.2}x L2 data-miss reduction ({sp:.2}x simulated \
                 speedup) over the naive hash join in row mode;\nits extra scatter \
                 instructions are the price — exactly the compute-for-misses trade the \
                 paper's breakdown makes visible.\n",
            ));
        }
        out
    }
}

/// Figure 5.4 (right): T_B and T_L1I versus selectivity, System D running
/// the sequential range selection.
#[derive(Debug, Clone)]
pub struct SelectivitySweep {
    /// (selectivity, T_B share, T_L1I share, mispredict rate).
    pub points: Vec<(f64, f64, f64, f64)>,
}

impl SelectivitySweep {
    /// The paper's x-axis: 0%, 1%, 5%, 10%, 50%, 100%.
    pub const SELECTIVITIES: [f64; 6] = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0];

    /// Runs the sweep on System D (as in the paper's right graph).
    pub fn run(ctx: &FigureCtx) -> DbResult<SelectivitySweep> {
        let mut points = Vec::new();
        for sel in Self::SELECTIVITIES {
            let m = measure_query(
                SystemId::D,
                MicroQuery::SequentialRangeSelection,
                sel,
                ctx.scale,
                &ctx.cfg,
                &ctx.methodology,
            )?;
            let total = m.truth.component_sum().max(1e-9);
            points.push((
                sel,
                m.truth.tb / total,
                m.truth.tl1i / total,
                m.rates.br_mispredict,
            ));
        }
        Ok(SelectivitySweep { points })
    }

    /// Renders the series.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 5.4 (right): System D, sequential range selection —\n\
             branch mispred. stalls and L1 I-cache stalls vs selectivity\n",
        );
        let mut t = TextTable::new(["selectivity", "T_B %", "T_L1I %", "mispredict rate"]);
        for (sel, tb, tl1i, rate) in &self.points {
            t.row([
                format!("{:.0}%", sel * 100.0),
                pct(*tb),
                pct(*tl1i),
                pct(*rate),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

/// One measured cell of the branch-stall selectivity comparison.
#[derive(Debug, Clone)]
pub struct BranchCell {
    /// Selection mode under test.
    pub selection: SelectionMode,
    /// Execution mode the query ran under.
    pub mode: ExecMode,
    /// Page layout of the relation.
    pub layout: PageLayout,
    /// Target selectivity of the range predicate.
    pub selectivity: f64,
    /// Selected rows.
    pub rows: u64,
    /// Aggregate value (must agree across selection modes).
    pub value: f64,
    /// Mispredictions of individually simulated data-dependent branches
    /// ([`Event::SimDataBranchMiss`]) in the measured run. The swept plan
    /// is the sequential range selection, whose only such site is the
    /// qualify branch — so this *is* the qualify-misprediction count, and
    /// zero by construction under [`SelectionMode::Predicated`].
    pub qualify_branch_misses: u64,
    /// Conditional-select lanes executed ([`Event::SimSelectOps`]) — the
    /// predication work bought in exchange.
    pub select_ops: u64,
    /// Ground-truth breakdown (user mode) of the measured run.
    pub truth: TimeBreakdown,
}

impl BranchCell {
    /// T_B as a share of the cell's total query time.
    pub fn tb_share(&self) -> f64 {
        self.truth.tb / self.truth.component_sum().max(1e-9)
    }
}

/// The branch chapter: the sequential range selection swept across
/// selectivity under every selection mode × execution mode × page layout of
/// one engine, with the Figure 5.1-style T_C/T_M/T_B/T_R breakdown per cell.
///
/// §5.3/Fig 5.4 shows branch-misprediction stalls peaking where the qualify
/// branch is least predictable — near 50% selectivity — and contributing
/// 10–20% of query time. This runner regenerates that shape for
/// [`SelectionMode::Branching`] and puts branch-free
/// [`SelectionMode::Predicated`] evaluation next to it, so predication's
/// trade — unconditional extra select instructions for eliminated
/// mispredictions — is read off the same breakdown the paper uses.
#[derive(Debug, Clone)]
pub struct SelectivityComparison {
    /// System the comparison ran on.
    pub system: SystemId,
    /// Dataset sizing.
    pub scale: Scale,
    /// One cell per (selection, mode, layout, selectivity).
    pub cells: Vec<BranchCell>,
}

impl SelectivityComparison {
    /// Runs the full selection × mode × layout grid over `sweep` on `sys`.
    pub fn run(
        sys: SystemId,
        scale: Scale,
        sweep: &SweepSpec,
        cfg: &CpuConfig,
    ) -> DbResult<SelectivityComparison> {
        let mut cells = Vec::new();
        for selection in SelectionMode::ALL {
            for mode in [ExecMode::Row, ExecMode::Batch] {
                for layout in PageLayout::ALL {
                    cells.extend(Self::run_config(
                        sys, scale, sweep, cfg, selection, mode, layout,
                    )?);
                }
            }
        }
        Ok(SelectivityComparison {
            system: sys,
            scale,
            cells,
        })
    }

    /// Sweeps one (selection, mode, layout) configuration: one database,
    /// §4.3 methodology per point — a warm-up run (which also trains the
    /// qualify branch's predictor state onto this selectivity), then one
    /// measured run.
    pub fn run_config(
        sys: SystemId,
        scale: Scale,
        sweep: &SweepSpec,
        cfg: &CpuConfig,
        selection: SelectionMode,
        mode: ExecMode,
        layout: PageLayout,
    ) -> DbResult<Vec<BranchCell>> {
        let mut db = build_db_with_layout(
            EngineProfile::system(sys),
            scale,
            MicroQuery::SequentialRangeSelection,
            cfg,
            layout,
        )?;
        db.set_exec_mode(mode);
        db.set_selection_mode(selection);
        let mut cells = Vec::with_capacity(sweep.selectivities.len());
        for &sel in &sweep.selectivities {
            let q = micro::query(scale, MicroQuery::SequentialRangeSelection, sel);
            db.run(&q)?; // warm-up (§4.3)
            let before = db.cpu().snapshot();
            let res = db.run(&q)?;
            let delta = db.cpu().snapshot().delta(&before);
            cells.push(BranchCell {
                selection,
                mode,
                layout,
                selectivity: sel,
                rows: res.rows,
                value: res.value,
                qualify_branch_misses: delta.counters.total(Event::SimDataBranchMiss),
                select_ops: delta.counters.total(Event::SimSelectOps),
                truth: TimeBreakdown::from_snapshot(&delta, Mode::User),
            });
        }
        Ok(cells)
    }

    /// The cells of one (selection, mode, layout) series, in sweep order.
    pub fn series(
        &self,
        selection: SelectionMode,
        mode: ExecMode,
        layout: PageLayout,
    ) -> Vec<&BranchCell> {
        self.cells
            .iter()
            .filter(|c| c.selection == selection && c.mode == mode && c.layout == layout)
            .collect()
    }

    /// The cell with the largest T_B share in one series, if measured.
    pub fn peak_tb(
        &self,
        selection: SelectionMode,
        mode: ExecMode,
        layout: PageLayout,
    ) -> Option<&BranchCell> {
        self.series(selection, mode, layout)
            .into_iter()
            .max_by(|a, b| a.tb_share().total_cmp(&b.tb_share()))
    }

    /// Peak-T_B-share reduction for one (mode, layout) slice — the headline
    /// predication buys: the branching series' T_B share at its peak
    /// selectivity, divided by the predicated series' share *at that same
    /// selectivity* (the point where the qualify branch hurts most).
    pub fn peak_tb_reduction(&self, mode: ExecMode, layout: PageLayout) -> Option<f64> {
        let b = self.peak_tb(SelectionMode::Branching, mode, layout)?;
        let p = self
            .series(SelectionMode::Predicated, mode, layout)
            .into_iter()
            .find(|c| c.selectivity == b.selectivity)?;
        Some(b.tb_share() / p.tb_share().max(1e-9))
    }

    fn selection_label(selection: SelectionMode) -> &'static str {
        match selection {
            SelectionMode::Branching => "Branching",
            SelectionMode::Predicated => "Predicated",
        }
    }

    /// Renders the comparison table (one row per cell).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Selection modes, {}: sequential range selection over {} rows\n\
             (percent of execution time per component; qualify-branch mispredictions)\n",
            self.system.name(),
            self.scale.r_records,
        );
        let mut t = TextTable::new([
            "selection",
            "mode",
            "layout",
            "sel%",
            "rows",
            "Comp",
            "Mem",
            "Branch",
            "Resource",
            "qualify misp",
        ]);
        for c in &self.cells {
            let f = c.truth.four_way();
            t.row([
                Self::selection_label(c.selection).to_string(),
                format!("{:?}", c.mode),
                format!("{:?}", c.layout),
                format!("{:.0}", c.selectivity * 100.0),
                c.rows.to_string(),
                pct(f.computation),
                pct(f.memory),
                pct(f.branch),
                pct(f.resource),
                c.qualify_branch_misses.to_string(),
            ]);
        }
        out.push_str(&t.render());
        if let (Some(b), Some(p)) = (
            self.peak_tb(SelectionMode::Branching, ExecMode::Batch, PageLayout::Nsm),
            self.peak_tb(SelectionMode::Predicated, ExecMode::Batch, PageLayout::Nsm),
        ) {
            out.push_str(&format!(
                "branching T_B peaks at {:.0}% selectivity ({:.1}% of T_Q, batch/NSM); \
                 predication holds it at {:.1}% by spending {} unconditional select lanes —\n\
                 the compute-for-mispredictions trade, on the same breakdown the paper uses.\n",
                b.selectivity * 100.0,
                b.tb_share() * 100.0,
                p.tb_share() * 100.0,
                p.select_ops,
            ));
        }
        out
    }
}

/// One measured cell of the multi-core scaling comparison.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Shard (simulated core) count.
    pub shards: usize,
    /// Execution mode the query ran under.
    pub mode: ExecMode,
    /// Page layout of the relation(s).
    pub layout: PageLayout,
    /// Rows the merged query returned/aggregated (must agree across shard
    /// counts).
    pub rows: u64,
    /// Merged aggregate value (bit-identical across shard counts by the
    /// partial-merge construction).
    pub value: f64,
    /// Simulated wall clock: the *max* per-core cycle delta — the slowest
    /// shard finishes last. Speedup curves divide 1-shard wall by this.
    pub wall_cycles: f64,
    /// Total work: per-core cycle deltas *summed* (grows slightly with the
    /// shard count — each core pays its own query setup).
    pub total_cycles: f64,
    /// Ground-truth breakdown (user mode) of the summed per-core deltas.
    pub truth: TimeBreakdown,
}

impl ScalingCell {
    /// Parallel efficiency denominator: total work per wall cycle (≈ how
    /// many cores were kept busy).
    pub fn occupancy(&self) -> f64 {
        self.total_cycles / self.wall_cycles.max(1e-9)
    }
}

/// The scaling chapter: one microbenchmark query swept across shard counts
/// × execution mode × page layout, with the Figure 5.1-style
/// T_C/T_M/T_B/T_R breakdown per cell and the wall-clock speedup curve.
///
/// The paper measures one processor; its open question is how the
/// breakdown composes when the engine scales out. Here every table is
/// hash-partitioned across `N` shards (each with its own buffer pool and
/// deterministic simulated core; see [`wdtg_memdb::ShardedDatabase`]),
/// shards execute sequentially in simulation, and the merged wall clock of
/// a query is the max of per-core cycle deltas while the breakdown sums
/// them — so both the speedup curve and the where-does-time-go story stay
/// exact and deterministic.
#[derive(Debug, Clone)]
pub struct ScalingComparison {
    /// System the comparison ran on.
    pub system: SystemId,
    /// Dataset sizing (the *whole* dataset; shards hold partitions of it).
    pub scale: Scale,
    /// Which microbenchmark query was swept.
    pub query: MicroQuery,
    /// One cell per (shards, mode, layout).
    pub cells: Vec<ScalingCell>,
}

impl ScalingComparison {
    /// Shard counts in presentation order.
    pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// Runs the full shards × mode × layout grid for `query` on `sys` at
    /// 10% selectivity.
    pub fn run(
        sys: SystemId,
        scale: Scale,
        query: MicroQuery,
        cfg: &CpuConfig,
    ) -> DbResult<ScalingComparison> {
        let mut cells = Vec::new();
        for shards in Self::SHARD_COUNTS {
            for mode in [ExecMode::Row, ExecMode::Batch] {
                for layout in PageLayout::ALL {
                    cells.push(Self::measure_cell(
                        sys, scale, query, cfg, shards, mode, layout,
                    )?);
                }
            }
        }
        Ok(ScalingComparison {
            system: sys,
            scale,
            query,
            cells,
        })
    }

    /// Measures one (shards, mode, layout) cell: §4.3 methodology —
    /// uninstrumented load + re-partition, one warm-up run, one measured
    /// run with per-core deltas merged (max → wall, sum → breakdown).
    pub fn measure_cell(
        sys: SystemId,
        scale: Scale,
        query: MicroQuery,
        cfg: &CpuConfig,
        shards: usize,
        mode: ExecMode,
        layout: PageLayout,
    ) -> DbResult<ScalingCell> {
        let mut db = build_sharded_db_with_layout(
            EngineProfile::system(sys),
            scale,
            query,
            cfg,
            layout,
            shards,
        )?;
        db.configure(PhysicalConfig {
            exec_mode: mode,
            selection_mode: None,
            join_algo: None,
        });
        let q = micro::query(scale, query, 0.1);
        db.run(&q)?; // warm-up (§4.3)
        let before = db.snapshots();
        let res = db.run(&q)?;
        let merged = db.merged_delta(&before);
        Ok(ScalingCell {
            shards,
            mode,
            layout,
            rows: res.rows,
            value: res.value,
            wall_cycles: merged.wall_cycles,
            total_cycles: merged.total.cycles,
            truth: TimeBreakdown::from_snapshot(&merged.total, Mode::User),
        })
    }

    /// The cell for (shards, mode, layout), if measured.
    pub fn get(&self, shards: usize, mode: ExecMode, layout: PageLayout) -> Option<&ScalingCell> {
        self.cells
            .iter()
            .find(|c| c.shards == shards && c.mode == mode && c.layout == layout)
    }

    /// Wall-clock speedup of `shards` cores over one core in the same
    /// (mode, layout) slice.
    pub fn speedup(&self, shards: usize, mode: ExecMode, layout: PageLayout) -> Option<f64> {
        let one = self.get(1, mode, layout)?;
        let n = self.get(shards, mode, layout)?;
        Some(one.wall_cycles / n.wall_cycles.max(1e-9))
    }

    /// Renders the comparison table (per-cell four-way breakdown of the
    /// summed work, wall cycles and the speedup curve).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Sharded scaling, {}: {} over {} rows (10% selectivity)\n\
             (breakdown of summed per-core work; wall = slowest core; speedup vs 1 shard)\n",
            self.system.name(),
            self.query.label(),
            self.scale.r_records,
        );
        let mut t = TextTable::new([
            "shards",
            "mode",
            "layout",
            "rows",
            "wall Mcyc",
            "speedup",
            "occup",
            "Comp",
            "Mem",
            "Branch",
            "Resource",
        ]);
        for c in &self.cells {
            let f = c.truth.four_way();
            t.row([
                c.shards.to_string(),
                format!("{:?}", c.mode),
                format!("{:?}", c.layout),
                c.rows.to_string(),
                format!("{:.2}", c.wall_cycles / 1e6),
                format!(
                    "{:.2}x",
                    self.speedup(c.shards, c.mode, c.layout).unwrap_or(1.0)
                ),
                format!("{:.2}", c.occupancy()),
                pct(f.computation),
                pct(f.memory),
                pct(f.branch),
                pct(f.resource),
            ]);
        }
        out.push_str(&t.render());
        if let Some(sp) = self.speedup(4, ExecMode::Row, PageLayout::Nsm) {
            out.push_str(&format!(
                "4 shards cut the sequential scan's wall clock {sp:.2}x (row/NSM): the scan \
                 parallelizes across partitions\nwhile each core's per-query setup and merge \
                 tail stay serial — the classic sharding trade, on the paper's breakdown.\n",
            ));
        }
        out
    }
}

/// §5.2.1/§5.2.2: record-size sweep (20–200 bytes) for one system.
#[derive(Debug, Clone)]
pub struct RecordSizeSweep {
    /// System measured.
    pub system: SystemId,
    /// (record bytes, T_L2D/record, L1I misses/record, cycles/record).
    pub points: Vec<(u32, f64, f64, f64)>,
}

impl RecordSizeSweep {
    /// The sweep sizes (the paper varies 20–200 bytes).
    pub const SIZES: [u32; 5] = [20, 48, 100, 152, 200];

    /// Runs the sweep for `sys` at 10% selectivity. Note: scaling keeps the
    /// row *count* fixed, so larger records mean a larger relation, as in
    /// the paper.
    pub fn run(ctx: &FigureCtx, sys: SystemId) -> DbResult<RecordSizeSweep> {
        let mut points = Vec::new();
        for size in Self::SIZES {
            let scale = ctx.scale.with_record_bytes(size);
            let m = measure_query(
                sys,
                MicroQuery::SequentialRangeSelection,
                0.1,
                scale,
                &ctx.cfg,
                &ctx.methodology,
            )?;
            let recs = m.denominator as f64;
            let ifu_miss = {
                // L1I misses per record from the ground-truth counters are
                // not retained in QueryMeasurement; use the stall time
                // divided by the L1 penalty as the equivalent count.
                m.truth.tl1i / ctx.cfg.pipe.l1_miss_penalty as f64
            };
            points.push((
                size,
                m.truth.tl2d / recs,
                ifu_miss / recs,
                m.truth.cycles / recs,
            ));
        }
        Ok(RecordSizeSweep {
            system: sys,
            points,
        })
    }

    /// Growth factor of cycles/record from the smallest to the largest
    /// record size (the paper reports 2.5–4x from 20 B to 200 B).
    pub fn time_growth_factor(&self) -> f64 {
        let first = self.points.first().map(|p| p.3).unwrap_or(1.0);
        let last = self.points.last().map(|p| p.3).unwrap_or(1.0);
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }

    /// Renders the series.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Record-size sweep (§5.2), {}: 10% sequential range selection\n",
            self.system.name()
        );
        let mut t = TextTable::new([
            "record bytes",
            "T_L2D cycles/record",
            "L1I misses/record",
            "cycles/record",
        ]);
        for (size, tl2d, l1i, cyc) in &self.points {
            t.row([
                size.to_string(),
                format!("{tl2d:.1}"),
                format!("{l1i:.2}"),
                format!("{cyc:.0}"),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "execution time per record grows {:.1}x from 20B to 200B (paper: 2.5-4x)\n",
            self.time_growth_factor()
        ));
        out
    }
}

/// §5.2.2: the three hypotheses for why larger records increase L1I misses.
/// The simulator can switch each mechanism off — something the authors could
/// not do ("more experiments are needed to test these hypotheses").
#[derive(Debug, Clone)]
pub struct L1iHypotheses {
    /// L1I misses/record at (20 B, 200 B) under: baseline, interrupts off,
    /// inclusion forced on (with interrupts off, isolating the mechanism).
    pub baseline: (f64, f64),
    /// Interrupt model disabled.
    pub no_interrupts: (f64, f64),
    /// L2 inclusion forced (interrupts off).
    pub inclusive_l2: (f64, f64),
}

impl L1iHypotheses {
    /// Runs the three-way comparison on System D.
    pub fn run(ctx: &FigureCtx) -> DbResult<L1iHypotheses> {
        let mut variants = Vec::new();
        for (interrupts, inclusion) in [(true, false), (false, false), (false, true)] {
            let mut cfg = ctx.cfg.clone().with_inclusive_l2(inclusion);
            if !interrupts {
                cfg = cfg.with_interrupts(wdtg_sim::InterruptCfg::disabled());
            }
            let mut pair = (0.0, 0.0);
            for (slot, size) in [(0usize, 20u32), (1, 200)] {
                let scale = ctx.scale.with_record_bytes(size);
                let m = measure_query(
                    SystemId::D,
                    MicroQuery::SequentialRangeSelection,
                    0.1,
                    scale,
                    &cfg,
                    &ctx.methodology,
                )?;
                let v = m.truth.tl1i / ctx.cfg.pipe.l1_miss_penalty as f64 / m.denominator as f64;
                if slot == 0 {
                    pair.0 = v;
                } else {
                    pair.1 = v;
                }
            }
            variants.push(pair);
        }
        Ok(L1iHypotheses {
            baseline: variants[0],
            no_interrupts: variants[1],
            inclusive_l2: variants[2],
        })
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "§5.2.2 hypothesis test: why do larger records cause more L1I misses?\n\
             (L1I misses per record, System D, 10% SRS)\n",
        );
        let mut t = TextTable::new(["variant", "20B records", "200B records", "growth"]);
        let row = |label: &str, p: (f64, f64)| {
            let growth = if p.0 > 0.0 { p.1 / p.0 } else { 0.0 };
            [
                label.to_string(),
                format!("{:.3}", p.0),
                format!("{:.3}", p.1),
                format!("{growth:.2}x"),
            ]
        };
        t.row(row(
            "baseline (NT interrupts, no inclusion — the Xeon)",
            self.baseline,
        ));
        t.row(row(
            "interrupts disabled (tests hypothesis 2: OS pollution)",
            self.no_interrupts,
        ));
        t.row(row(
            "L2 inclusion forced, no interrupts (hypothesis 1)",
            self.inclusive_l2,
        ));
        out.push_str(&t.render());
        out.push_str(
            "remaining growth with interrupts off comes from page-boundary crossings\n\
             executing buffer-pool code (hypothesis 3), which scales with record size.\n",
        );
        out
    }
}

/// One planner-validation scenario: the SQL planner's pick versus the
/// exhaustively measured best configuration for the same statement.
#[derive(Debug, Clone)]
pub struct PlannerCell {
    /// Scenario label (`scan sel=50%`, `join build=65536`).
    pub label: String,
    /// The statement planned.
    pub sql: String,
    /// The planner's choice ([`wdtg_memdb::sql::PhysicalConfig`] label).
    pub chosen: String,
    /// Actual measured cycles under the planner's choice.
    pub chosen_cycles: f64,
    /// The best configuration by exhaustive actual measurement.
    pub best: String,
    /// Actual measured cycles under that best configuration.
    pub best_cycles: f64,
    /// Every candidate's actual measured cycles, in enumeration order.
    pub measured: Vec<(String, f64)>,
    /// Host milliseconds [`Session::explain`] took to plan the statement
    /// (image build + every pilot job) — the planner layer's host clock.
    pub host_plan_ms: f64,
}

impl PlannerCell {
    /// Planner regret: actual cycles of the pick over the actual best
    /// (1.0 = the planner found the optimum).
    pub fn ratio(&self) -> f64 {
        self.chosen_cycles / self.best_cycles.max(1e-9)
    }

    /// Whether the planner picked the exhaustive winner.
    pub fn optimal(&self) -> bool {
        self.chosen == self.best
    }
}

/// Planner validation: does the SQL frontend's pilot-simulated cost model
/// rediscover the paper's two headline physical-design wins — predication
/// near 50% selectivity (§5.3) and the partitioned join once the build side
/// outgrows L2 — without ever being told the rules?
///
/// Each cell plans one statement through [`Session::explain`] (candidates
/// costed on sampled pilot runs only), then measures **every** candidate
/// for real on the full data and compares the planner's pick against the
/// exhaustive winner. The headline number is the worst regret ratio.
#[derive(Debug, Clone)]
pub struct PlannerComparison {
    /// One cell per scenario.
    pub cells: Vec<PlannerCell>,
}

impl PlannerComparison {
    /// Scan selectivities swept (predication should win near the middle).
    pub const SELECTIVITIES: [f64; 4] = [0.01, 0.1, 0.5, 0.9];

    /// Branch-misprediction penalty of the deep-pipeline scenario (3x the
    /// P6's 17 cycles — the §6 direction). On the Xeon's short pipeline
    /// predication is roughly cost-neutral; on a deeper pipeline it wins
    /// outright at 50% selectivity, and the planner must find the flip.
    pub const DEEP_PIPE_PENALTY: u32 = 51;

    /// Runs, on System A: scan scenarios over `scan_rows` rows at
    /// [`Self::SELECTIVITIES`]; the same 50%-selectivity scan on a
    /// deep-pipeline variant of `cfg` ([`Self::DEEP_PIPE_PENALTY`]); and one
    /// join scenario per entry of `join_builds` (build-side rows; probe side
    /// is `scan_rows`). Pass a [`CpuConfig::with_l2_size`]-shrunk config to
    /// move the join crossover into cheap territory.
    pub fn run(
        cfg: &CpuConfig,
        scan_rows: usize,
        join_builds: &[usize],
    ) -> DbResult<PlannerComparison> {
        let sys = SystemId::A;
        let mut cells = Vec::new();
        for sel in Self::SELECTIVITIES {
            cells.push(Self::scan_cell(cfg, sys, scan_rows, sel)?);
        }
        let deep = cfg.clone().with_mispredict_penalty(Self::DEEP_PIPE_PENALTY);
        let mut cell = Self::scan_cell(&deep, sys, scan_rows, 0.5)?;
        cell.label = "scan sel=50% deep-pipe".into();
        cells.push(cell);
        for &build in join_builds {
            cells.push(Self::join_cell(cfg, sys, scan_rows, build)?);
        }
        Ok(PlannerComparison { cells })
    }

    /// Mix function shared by the data generators (runners.rs idiom).
    fn mix(i: usize) -> i32 {
        ((i as u32).wrapping_mul(0x9e37_79b9) >> 8) as i32 & 0x7fff_ffff
    }

    /// Plans `sql` on `db`, then measures every candidate the planner
    /// enumerated for real and scores the pick.
    fn cell(label: String, sql: &str, db: Database) -> DbResult<PlannerCell> {
        let q = match compile(&db, sql)? {
            BoundStatement::Scalar(q) => q,
            BoundStatement::Grouped { .. } => {
                return Err(wdtg_memdb::DbError::PlanError(
                    "planner comparison cells are scalar".into(),
                ))
            }
        };
        let mut sess = Session::open(db);
        let planning = std::time::Instant::now();
        sess.explain(sql)?;
        let host_plan_ms = planning.elapsed().as_secs_f64() * 1e3;
        let report = sess
            .last_plan()
            .expect("aggregate statements are always planned")
            .clone();
        let mut db = sess.into_db();
        let mut measured = Vec::new();
        for c in &report.candidates {
            c.config.apply(&mut db);
            db.run(&q)?; // warm-up (§4.3)
            let before = db.cpu().snapshot();
            db.run(&q)?;
            let cycles = db.cpu().snapshot().delta(&before).cycles;
            measured.push((c.config.label(), cycles));
        }
        let best = measured
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let chosen_label = report.chosen().config.label();
        let chosen_cycles = measured
            .iter()
            .find(|(l, _)| *l == chosen_label)
            .map(|(_, c)| *c)
            .unwrap_or(f64::MAX);
        Ok(PlannerCell {
            label,
            sql: sql.to_string(),
            chosen: chosen_label,
            chosen_cycles,
            best: measured[best].0.clone(),
            best_cycles: measured[best].1,
            measured,
            host_plan_ms,
        })
    }

    /// Scan scenario: `a2` uniform over 0..1000, range predicate selecting
    /// the requested fraction.
    pub fn scan_cell(
        cfg: &CpuConfig,
        sys: SystemId,
        rows: usize,
        sel: f64,
    ) -> DbResult<PlannerCell> {
        let mut db = Database::new(EngineProfile::system(sys), cfg.clone());
        db.ctx.instrument = false;
        db.create_table("R", Schema::paper_relation(20))?;
        db.load_rows(
            "R",
            (0..rows).map(|i| {
                let x = Self::mix(i);
                vec![i as i32, x % 1000, x % 10007, 0, 0]
            }),
        )?;
        db.ctx.instrument = true;
        let hi = (1000.0 * sel).round() as i64;
        let sql = format!("SELECT AVG(a3) FROM R WHERE a2 > -1 AND a2 < {hi}");
        Self::cell(format!("scan sel={:.0}%", sel * 100.0), &sql, db)
    }

    /// Join scenario: probe table R joined to a `build`-row table S on
    /// `R.a2 = S.a1`; the build side's hash-table residency in L2 is what
    /// the planner must price.
    pub fn join_cell(
        cfg: &CpuConfig,
        sys: SystemId,
        probe: usize,
        build: usize,
    ) -> DbResult<PlannerCell> {
        let mut db = Database::new(EngineProfile::system(sys), cfg.clone());
        db.ctx.instrument = false;
        db.create_table("R", Schema::paper_relation(20))?;
        db.create_table("S", Schema::paper_relation(20))?;
        db.load_rows(
            "R",
            (0..probe).map(|i| {
                let x = Self::mix(i);
                vec![i as i32, x % build as i32, x % 10007, 0, 0]
            }),
        )?;
        db.load_rows(
            "S",
            (0..build).map(|i| vec![i as i32, Self::mix(i) % 4096, 0, 0, 0]),
        )?;
        db.ctx.instrument = true;
        let sql = "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1";
        Self::cell(format!("join build={build}"), sql, db)
    }

    /// Fraction of cells where the planner picked the exhaustive winner.
    pub fn win_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().filter(|c| c.optimal()).count() as f64 / self.cells.len() as f64
    }

    /// Worst regret ratio across cells (1.0 = optimal everywhere).
    pub fn max_ratio(&self) -> f64 {
        self.cells.iter().map(|c| c.ratio()).fold(1.0, f64::max)
    }

    /// The cell whose label is `label`, if present.
    pub fn cell_named(&self, label: &str) -> Option<&PlannerCell> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// Renders the comparison (one row per scenario).
    pub fn render(&self) -> String {
        let mut out =
            String::from("Planner validation: pilot-simulated choice vs exhaustive actual best\n");
        let mut t = TextTable::new(["scenario", "chosen", "best", "regret", "optimal"]);
        for c in &self.cells {
            t.row([
                c.label.clone(),
                c.chosen.clone(),
                c.best.clone(),
                format!("{:.3}x", c.ratio()),
                if c.optimal() { "yes" } else { "NO" }.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "win rate {:.0}% — worst regret {:.3}x\n",
            self.win_rate() * 100.0,
            self.max_ratio()
        ));
        out
    }
}
