//! Macro benchmarks: one Criterion target per paper experiment, at test
//! scale so `cargo bench` finishes quickly. The printable full-scale
//! regenerations are the `figures` binary's selections (`src/bin/figures.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use wdtg_core::dss::measure_tpcd;
use wdtg_core::figures::{FigureCtx, SelectivitySweep};
use wdtg_core::methodology::{measure_query, Methodology};
use wdtg_core::oltp::measure_tpcc;
use wdtg_memdb::SystemId;
use wdtg_sim::CpuConfig;
use wdtg_workloads::{MicroQuery, Scale, TpccScale, TpcdScale};

fn ctx() -> FigureCtx {
    FigureCtx {
        scale: Scale::tiny(),
        cfg: CpuConfig::pentium_ii_xeon(),
        methodology: Methodology::default(),
    }
}

fn bench_fig5_1_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig5_1");
    g.sample_size(10);
    for sys in SystemId::ALL {
        g.bench_function(format!("srs_system_{}", sys.letter()), |b| {
            let ctx = ctx();
            b.iter(|| {
                measure_query(
                    sys,
                    MicroQuery::SequentialRangeSelection,
                    0.1,
                    ctx.scale,
                    &ctx.cfg,
                    &ctx.methodology,
                )
                .unwrap()
                .truth
                .cycles
            })
        });
    }
    g.finish();
}

fn bench_fig5_4_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig5_4");
    g.sample_size(10);
    g.bench_function("selectivity_sweep_system_d", |b| {
        let ctx = ctx();
        b.iter(|| SelectivitySweep::run(&ctx).unwrap().points.len())
    });
    g.finish();
}

fn bench_fig5_6_tpcd(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig5_6");
    g.sample_size(10);
    g.bench_function("tpcd_suite_system_b", |b| {
        b.iter(|| {
            measure_tpcd(
                SystemId::B,
                TpcdScale::tiny(),
                &CpuConfig::pentium_ii_xeon(),
            )
            .unwrap()
            .truth
            .cycles
        })
    });
    g.finish();
}

fn bench_tpcc(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/tpcc");
    g.sample_size(10);
    g.bench_function("mix_100txns_system_c", |b| {
        b.iter(|| {
            measure_tpcc(
                SystemId::C,
                TpccScale::tiny(),
                &CpuConfig::pentium_ii_xeon(),
                100,
            )
            .unwrap()
            .truth
            .cycles
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig5_1_cell,
    bench_fig5_4_sweep,
    bench_fig5_6_tpcd,
    bench_tpcc
);
criterion_main!(benches);
