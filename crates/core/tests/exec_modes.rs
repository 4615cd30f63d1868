//! End-to-end row-vs-batch comparison through the figure harness.

use wdtg_core::figures::{ExecModeComparison, FigureCtx};
use wdtg_core::methodology::{measure_query, Methodology};
use wdtg_memdb::{ExecMode, SystemId};
use wdtg_sim::CpuConfig;
use wdtg_workloads::{MicroQuery, Scale};

fn tiny_ctx() -> FigureCtx {
    FigureCtx {
        scale: Scale::tiny(),
        cfg: CpuConfig::pentium_ii_xeon(),
        methodology: Methodology::default(),
    }
}

#[test]
fn comparison_shows_instruction_collapse_on_srs() {
    let ctx = tiny_ctx();
    let cmp = ExecModeComparison::run(&ctx, MicroQuery::SequentialRangeSelection).unwrap();
    assert_eq!(cmp.pairs.len(), 4, "all systems run the SRS");
    for (row, batch) in &cmp.pairs {
        assert_eq!(row.rows, batch.rows, "{:?}: answers must agree", row.system);
        assert!(
            batch.instructions_per_record() < row.instructions_per_record() / 2.0,
            "{:?}: expected >=2x fewer instructions per record, got {} vs {}",
            row.system,
            row.instructions_per_record(),
            batch.instructions_per_record()
        );
        // Memory stalls survive batching, so their share of time grows
        // (System B exempt: its prefetch timeliness shifts with the faster
        // compute, so tiny-scale shares are noisy).
        if row.system != SystemId::B {
            assert!(
                batch.truth.four_way().memory >= row.truth.four_way().memory * 0.9,
                "{:?}: memory share should not collapse with batching",
                row.system
            );
        }
    }
    let rendered = cmp.render();
    assert!(rendered.contains("collapse"));
    assert!(cmp.collapse_factor(SystemId::C).unwrap() >= 2.0);
}

#[test]
fn batched_methodology_is_plumbed_through_measure_query() {
    let m = Methodology::default().batched();
    assert_eq!(m.physical.exec_mode, ExecMode::Batch);
    let meas = measure_query(
        SystemId::A,
        MicroQuery::SequentialRangeSelection,
        0.1,
        Scale::tiny(),
        &CpuConfig::pentium_ii_xeon(),
        &m,
    )
    .unwrap();
    assert!(meas.rows > 0);
    assert!(meas.truth.cycles > 0.0);
}
