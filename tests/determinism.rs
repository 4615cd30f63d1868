//! End-to-end determinism: identical builds produce cycle-exact results.
//! Determinism is what makes the two-counter multiplexing methodology exact
//! in the simulator (and merely "stddev < 5%" on the real machine, §4.3).

use std::sync::Arc;

use wdtg_core::figures::{ScalingCell, ScalingComparison};
use wdtg_core::methodology::{build_db, build_db_with_layout, measure_query, Methodology};
use wdtg_memdb::{EngineProfile, ExecMode, PageLayout, SystemId};
use wdtg_sim::{CpuConfig, Event, Mode, Snapshot};
use wdtg_workloads::{micro, MicroQuery, Scale};

#[test]
fn identical_measurements_are_cycle_exact() {
    let run = || {
        measure_query(
            SystemId::B,
            MicroQuery::IndexedRangeSelection,
            0.1,
            Scale::tiny(),
            &CpuConfig::pentium_ii_xeon(),
            &Methodology::default(),
        )
        .expect("measurement runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.truth.cycles, b.truth.cycles);
    assert_eq!(a.truth.inst_retired, b.truth.inst_retired);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.truth.tl2d, b.truth.tl2d);
    assert_eq!(a.truth.tb, b.truth.tb);
}

#[test]
fn all_three_queries_run_on_all_systems_deterministically() {
    let scale = Scale::tiny();
    let cfg = CpuConfig::pentium_ii_xeon();
    for query in MicroQuery::ALL {
        for sys in SystemId::ALL {
            if query == MicroQuery::IndexedRangeSelection && sys == SystemId::A {
                // A still answers the query (by scanning); included.
            }
            let mut db = build_db(sys, scale, query, &cfg).expect("build");
            let q = micro::query(scale, query, 0.1);
            let r1 = db.run(&q).expect("first run");
            let c1 = db.cpu().counters().get(Mode::User, Event::InstRetired);
            let r2 = db.run(&q).expect("second run");
            assert_eq!(r1.rows, r2.rows, "{sys:?} {query:?} answers must be stable");
            assert!((r1.value - r2.value).abs() < 1e-9);
            let c2 = db.cpu().counters().get(Mode::User, Event::InstRetired);
            assert!(c2 > c1, "second run retires more instructions");
        }
    }
}

/// System C's SRS cell over `shards` hash-partitioned cores, in row mode
/// on NSM pages: its breakdown sums the per-core work.
fn sharded_cell(shards: usize) -> ScalingCell {
    ScalingComparison::measure_cell(
        SystemId::C,
        Scale::tiny(),
        MicroQuery::SequentialRangeSelection,
        &CpuConfig::pentium_ii_xeon(),
        shards,
        ExecMode::Row,
        PageLayout::Nsm,
    )
    .expect("sharded measurement runs")
}

#[test]
fn sharded_measurements_are_cycle_exact() {
    // The sharded executor must clear the same determinism bar as the
    // single core: identical builds, identical merged measurements. Shards
    // run sequentially (no OS threads), so the only way this fails is a
    // nondeterministic router or merge.
    for shards in [2, 4] {
        let a = sharded_cell(shards);
        let b = sharded_cell(shards);
        assert_eq!(a.truth.cycles, b.truth.cycles, "{shards} shards");
        assert_eq!(a.truth.inst_retired, b.truth.inst_retired);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.truth.tl2d, b.truth.tl2d);
        assert_eq!(a.truth.tb, b.truth.tb);
    }
}

#[test]
fn sharded_answers_match_the_single_core_measurement() {
    let one = sharded_cell(1);
    let four = sharded_cell(4);
    assert_eq!(one.rows, four.rows, "sharding must not change the answer");
    // Total work across 4 cores stays close to the single core's (each
    // extra core pays only its own per-query setup).
    assert!(
        four.truth.cycles < one.truth.cycles * 1.25,
        "sharded total work ballooned: 1-shard {:.0} vs 4-shard {:.0}",
        one.truth.cycles,
        four.truth.cycles
    );
}

#[test]
fn warm_runs_are_faster_than_cold_runs() {
    // The §4.3 methodology warms caches before measuring; the first (cold)
    // execution must cost more cycles than a warmed one.
    let scale = Scale::tiny();
    let cfg = CpuConfig::pentium_ii_xeon();
    let mut db = build_db(
        SystemId::D,
        scale,
        MicroQuery::SequentialRangeSelection,
        &cfg,
    )
    .expect("build");
    let q = micro::query(scale, MicroQuery::SequentialRangeSelection, 0.1);

    let s0 = db.cpu().snapshot();
    db.run(&q).expect("cold run");
    let s1 = db.cpu().snapshot();
    db.run(&q).expect("warm run");
    let s2 = db.cpu().snapshot();
    let cold = s1.cycles - s0.cycles;
    let warm = s2.cycles - s1.cycles;
    assert!(warm < cold, "warm {warm} vs cold {cold}");
}

/// A core's stream is a function of its own work alone. Two databases built
/// from clones of one profile share one `Arc<EngineBlocks>`; running their
/// statements interleaved must leave each core exactly where running that
/// database alone does.
#[test]
fn databases_sharing_one_block_set_do_not_disturb_each_other() {
    let (scale, cfg) = (Scale::tiny(), CpuConfig::pentium_ii_xeon());
    let srs = MicroQuery::SequentialRangeSelection;
    let queries = [micro::query(scale, srs, 0.1), micro::query(scale, srs, 0.5)];
    let build =
        |profile| build_db_with_layout(profile, scale, srs, &cfg, PageLayout::Nsm).expect("build");
    let alone: Vec<Snapshot> = queries
        .iter()
        .map(|q| {
            let mut db = build(EngineProfile::system(SystemId::C));
            for _ in 0..3 {
                db.run(q).expect("runs");
            }
            db.cpu().snapshot()
        })
        .collect();

    let profile = EngineProfile::system(SystemId::C);
    let mut dbs = [build(profile.clone()), build(profile)];
    assert!(Arc::ptr_eq(
        &dbs[0].profile().blocks,
        &dbs[1].profile().blocks
    ));
    for _ in 0..3 {
        for (db, q) in dbs.iter_mut().zip(&queries) {
            db.run(q).expect("runs");
        }
    }
    for (i, (db, want)) in dbs.iter().zip(&alone).enumerate() {
        assert!(db.cpu().snapshot() == *want, "database {i} was disturbed");
    }
}
