//! `figures <name>|all`: regenerates one table or figure of the paper, or
//! with `all` every experiment and claim validation in one pass (the source
//! of EXPERIMENTS.md's measured numbers). Prints the claims the selection
//! validates and exits 1 if any fails.

use wdtg_bench::selector;
use wdtg_core::ablations::{btb_sweep, l2_sweep, prefetch_sweep};
use wdtg_core::dss::DssComparison;
use wdtg_core::figures::{
    ExecModeComparison, FigureCtx, L1iHypotheses, MicrobenchGrid, RecordSizeSweep, SelectivitySweep,
};
use wdtg_core::methodology::{measure_query, Methodology};
use wdtg_core::oltp::{concurrent_tpcc_report, tpcc_report};
use wdtg_core::tables::TextTable;
use wdtg_core::validate::*;
use wdtg_memdb::SystemId;
use wdtg_sim::{measure_memory_latency, Component, Cpu, CpuConfig, InterruptCfg};
use wdtg_workloads::{MicroQuery, TpccScale, TpcdScale};

/// Prints one selection and returns the claims it validates.
type Figure = fn(&FigureCtx) -> Vec<Claim>;

const FIGURES: [(&str, Figure); 16] = [
    ("fig5_1", fig5_1),
    ("fig5_2", fig5_2),
    ("fig5_3", fig5_3),
    ("fig5_4", fig5_4),
    ("fig5_5", fig5_5),
    ("fig5_6", fig5_6),
    ("fig5_7", fig5_7),
    ("table3_1", table3_1),
    ("table4_1", table4_1),
    ("table4_2", table4_2),
    ("record_size", record_size),
    ("l1i_hypotheses", l1i_hypotheses),
    ("ablations", ablations),
    ("exec_compare", exec_compare),
    ("tpcc", tpcc),
    ("all", all),
];

fn main() {
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    let chosen = selector("figures", &names);
    let (_, run) = FIGURES
        .iter()
        .find(|(n, _)| *n == chosen)
        .expect("selector accepts only listed names");
    let ctx = FigureCtx::default_ctx();
    println!(
        "== {chosen} ==\nscale: R={} S={} record={}B (WDTG_SCALE={})\n",
        ctx.scale.r_records,
        ctx.scale.s_records,
        ctx.scale.record_bytes,
        std::env::var("WDTG_SCALE").unwrap_or_else(|_| "dev".into()),
    );
    let claims = run(&ctx);
    if !claims.is_empty() {
        println!("{}", render_claims(&claims));
    }
    std::process::exit(if claims.iter().all(|c| c.pass) { 0 } else { 1 });
}

fn grid(ctx: &FigureCtx) -> MicrobenchGrid {
    MicrobenchGrid::run(ctx).expect("grid runs")
}

fn dss(ctx: &FigureCtx) -> DssComparison {
    DssComparison::run(ctx, TpcdScale::from_env()).expect("comparison runs")
}

/// TPC-C transactions per system: the paper's run length at paper scale.
fn tpcc_txns() -> u64 {
    if std::env::var("WDTG_SCALE").as_deref() == Ok("paper") {
        2_000
    } else {
        400
    }
}

/// Figure 5.1: query execution time breakdown into T_C / T_M / T_B / T_R.
fn fig5_1(ctx: &FigureCtx) -> Vec<Claim> {
    let grid = grid(ctx);
    println!("{}", grid.render_fig5_1());
    validate_grid(&grid)
}

/// Figure 5.2: memory stall time breakdown into its five components.
fn fig5_2(ctx: &FigureCtx) -> Vec<Claim> {
    println!("{}", grid(ctx).render_fig5_2());
    vec![]
}

/// Figure 5.3: instructions retired per record.
fn fig5_3(ctx: &FigureCtx) -> Vec<Claim> {
    println!("{}", grid(ctx).render_fig5_3());
    vec![]
}

/// Figure 5.4: branch misprediction rates (left) and the selectivity sweep
/// coupling T_B to T_L1I (right).
fn fig5_4(ctx: &FigureCtx) -> Vec<Claim> {
    println!("{}", grid(ctx).render_fig5_4_left());
    let sweep = SelectivitySweep::run(ctx).expect("sweep runs");
    println!("{}", sweep.render());
    validate_selectivity(&sweep)
}

/// Figure 5.5: T_DEP and T_FU contributions to execution time.
fn fig5_5(ctx: &FigureCtx) -> Vec<Claim> {
    println!("{}", grid(ctx).render_fig5_5());
    vec![]
}

/// Figure 5.6: CPI breakdown, sequential range selection vs TPC-D.
fn fig5_6(ctx: &FigureCtx) -> Vec<Claim> {
    let cmp = dss(ctx);
    println!("{}", cmp.render_fig5_6());
    validate_dss(&cmp)
}

/// Figure 5.7: cache-related stall breakdown, SRS vs TPC-D.
fn fig5_7(ctx: &FigureCtx) -> Vec<Claim> {
    println!("{}", dss(ctx).render_fig5_7());
    vec![]
}

/// Table 3.1: the execution-time component hierarchy (definitional).
fn table3_1(_: &FigureCtx) -> Vec<Claim> {
    println!("Table 3.1: Execution time components");
    println!("  T_Q = T_C + T_M + T_B + T_R - T_OVL\n");
    for c in Component::ALL {
        let group = if c.is_memory() {
            "memory stall (T_M)"
        } else if c.is_resource() {
            "resource stall (T_R)"
        } else if c == Component::Tb {
            "branch misprediction"
        } else {
            "computation"
        };
        println!("  {:6} {}", c.label(), group);
    }
    vec![]
}

/// Table 4.1: Pentium II Xeon cache characteristics, plus the measured
/// memory latency the paper's formulae depend on.
fn table4_1(_: &FigureCtx) -> Vec<Claim> {
    let cfg = CpuConfig::pentium_ii_xeon();
    println!("Table 4.1: Pentium II Xeon cache characteristics\n");
    println!("  characteristic     L1 (split)                     L2");
    println!(
        "  cache size         {}KB Data / {}KB Instruction     {}KB",
        cfg.l1d.size_bytes / 1024,
        cfg.l1i.size_bytes / 1024,
        cfg.l2.size_bytes / 1024
    );
    println!(
        "  line size          {} bytes                       {} bytes",
        cfg.l1d.line_bytes, cfg.l2.line_bytes
    );
    println!(
        "  associativity      {}-way                          {}-way",
        cfg.l1d.assoc, cfg.l2.assoc
    );
    println!(
        "  miss penalty       {} cycles (w/ L2 hit)            main memory",
        cfg.pipe.l1_miss_penalty
    );
    println!("  non-blocking       yes                            yes");
    println!(
        "  misses outstanding {}                              {}",
        cfg.pipe.outstanding_misses, cfg.pipe.outstanding_misses
    );
    println!("  write policy       L1-D write-back, L1-I read-only  write-back\n");
    let mut cpu = Cpu::new(cfg.with_interrupts(InterruptCfg::disabled()));
    let m = measure_memory_latency(&mut cpu, 8 * 1024 * 1024);
    println!(
        "measured main-memory latency: {:.1} cycles over {} dependent loads\n(paper §5.2.1: \"a memory latency of 60-70 cycles was observed\")",
        m.cycles_per_load, m.loads
    );
    vec![]
}

/// Table 4.2: the measurement method per stall component — emon's
/// count×penalty reconstruction side-by-side with the simulator's ground
/// truth, which the real hardware could never provide.
fn table4_2(ctx: &FigureCtx) -> Vec<Claim> {
    let m = Methodology {
        with_emon: true,
        ..Methodology::default()
    };
    let meas = measure_query(
        SystemId::D,
        MicroQuery::SequentialRangeSelection,
        0.1,
        ctx.scale,
        &ctx.cfg,
        &m,
    )
    .expect("measurement runs");
    let est = meas.estimate.expect("emon requested");
    let t = &meas.truth;
    let mut table = TextTable::new([
        "component",
        "method (Table 4.2)",
        "emon estimate",
        "ground truth",
    ]);
    let row = |n: &str, meth: &str, e: f64, g: f64| {
        [
            n.to_string(),
            meth.to_string(),
            format!("{e:.0}"),
            format!("{g:.0}"),
        ]
    };
    table.row(row("TC", "µops retired / 3", est.tc, t.tc));
    table.row(row("TL1D", "#misses x 4 cycles", est.tl1d, t.tl1d));
    table.row(row(
        "TL1I",
        "actual stall time (IFU_MEM_STALL)",
        est.tl1i,
        t.tl1i,
    ));
    table.row(row("TL2D", "#misses x measured latency", est.tl2d, t.tl2d));
    table.row(row("TL2I", "#misses x measured latency", est.tl2i, t.tl2i));
    table.row([
        "TDTLB".into(),
        "not measured (no event code)".into(),
        "-".into(),
        format!("{:.0}", t.tdtlb.unwrap_or(0.0)),
    ]);
    table.row(row("TITLB", "#misses x 32 cycles", est.titlb, t.titlb));
    table.row(row("TB", "#mispredictions x 17 cycles", est.tb, t.tb));
    table.row(row(
        "TFU",
        "actual stall time (RESOURCE_STALLS)",
        est.tfu,
        t.tfu,
    ));
    table.row(row(
        "TDEP",
        "actual stall time (PARTIAL_RAT_STALLS)",
        est.tdep,
        t.tdep,
    ));
    table.row(row(
        "TILD",
        "actual stall time (ILD_STALL)",
        est.tild,
        t.tild,
    ));
    table.row([
        "TOVL".into(),
        "not measured; = estimates - T_Q".into(),
        format!("{:.0}", est.tovl()),
        "0 (exact attribution)".into(),
    ]);
    println!("{table}");
    println!(
        "cycles: emon {:.0} vs ground truth {:.0} (System D, 10% SRS, per query)",
        est.cycles, t.cycles
    );
    vec![]
}

/// §5.2: record-size sweep — T_L2D and L1I misses grow with record size;
/// execution time per record grows 2.5-4x from 20B to 200B (claims checked
/// on System D).
fn record_size(ctx: &FigureCtx) -> Vec<Claim> {
    let mut claims = vec![];
    for sys in SystemId::ALL {
        let sweep = RecordSizeSweep::run(ctx, sys).expect("sweep runs");
        println!("{}", sweep.render());
        if sys == SystemId::D {
            claims = validate_record_size(&sweep);
        }
    }
    claims
}

/// §5.2.2 / ablation A3: testing the paper's three hypotheses for why larger
/// records cause more L1 instruction misses (OS interrupts, L2 inclusion,
/// page-boundary crossings) — the experiment the authors called for.
fn l1i_hypotheses(ctx: &FigureCtx) -> Vec<Claim> {
    println!(
        "{}",
        L1iHypotheses::run(ctx).expect("hypothesis runs").render()
    );
    vec![]
}

/// Ablations A1/A2/A4: BTB size, L2 capacity, prefetch distance.
fn ablations(ctx: &FigureCtx) -> Vec<Claim> {
    println!("{}", btb_sweep(ctx).expect("btb sweep"));
    println!("{}", l2_sweep(ctx).expect("l2 sweep"));
    println!("{}", prefetch_sweep(ctx).expect("prefetch sweep"));
    vec![]
}

/// The row-vs-batch executor comparison for the three microbenchmark
/// queries (the paper's breakdowns regenerated over the vectorized path
/// next to the original row-at-a-time numbers).
fn exec_compare(ctx: &FigureCtx) -> Vec<Claim> {
    for q in MicroQuery::ALL {
        let cmp = ExecModeComparison::run(ctx, q).expect("comparison runs");
        println!("{}", cmp.render());
    }
    vec![]
}

/// §5.5: the TPC-C contrast (CPI 2.5-4.5, 60-80% memory stalls,
/// L2-dominated), then the concurrent deployment of the same mix:
/// snapshot-isolation transactions over a small node tier, with
/// conflict/retry.
fn tpcc(ctx: &FigureCtx) -> Vec<Claim> {
    let txns = tpcc_txns();
    let (ms, report) = tpcc_report(TpccScale::from_env(), &ctx.cfg, txns).expect("tpcc runs");
    println!("{report}");
    let (oltp, figure) = concurrent_tpcc_report(
        SystemId::C,
        TpccScale::from_env(),
        &ctx.cfg,
        8,
        (txns as usize / 40).max(10),
    )
    .expect("concurrent tpcc runs");
    println!("{figure}");
    assert_eq!(oltp.wrong_answers, 0, "OLTP oracle mismatch");
    assert_eq!(oltp.anomalies, 0, "serialization anomaly");
    assert!(oltp.recovery_ok, "WAL recovery failed");
    validate_tpcc(&ms)
}

/// Every experiment and claim validation in one pass.
fn all(ctx: &FigureCtx) -> Vec<Claim> {
    let grid = grid(ctx);
    println!("{}", grid.render_fig5_1());
    println!("{}", grid.render_fig5_2());
    println!("{}", grid.render_fig5_3());
    println!("{}", grid.render_fig5_4_left());
    println!("{}", grid.render_fig5_5());

    let sweep = SelectivitySweep::run(ctx).expect("selectivity");
    println!("{}", sweep.render());

    let rs = RecordSizeSweep::run(ctx, SystemId::D).expect("record size");
    println!("{}", rs.render());

    let hyp = L1iHypotheses::run(ctx).expect("hypotheses");
    println!("{}", hyp.render());

    let dss = dss(ctx);
    println!("{}", dss.render_fig5_6());
    println!("{}", dss.render_fig5_7());

    let (tpcc_ms, tpcc_out) =
        tpcc_report(TpccScale::from_env(), &ctx.cfg, tpcc_txns()).expect("tpcc");
    println!("{tpcc_out}");

    let mut claims = validate_grid(&grid);
    claims.extend(validate_selectivity(&sweep));
    claims.extend(validate_record_size(&rs));
    claims.extend(validate_dss(&dss));
    claims.extend(validate_tpcc(&tpcc_ms));
    println!("=== paper-claim validation ===");
    claims
}
