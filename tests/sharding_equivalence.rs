//! Sharded-execution equivalence: the same answers at every shard count,
//! and bit-identical merged simulator snapshots across repeated builds.
//!
//! The contract under test is the one `BENCH_scale.json` advertises:
//! hash-partitioning a relation across N cores changes *where* the work
//! runs, never *what* the query answers — the partial-aggregate merge is
//! integer-exact, so even the floating-point AVG is bit-identical — and the
//! whole sharded machine stays as deterministic as the single-core
//! simulator (`tests/determinism.rs`'s bar, extended to the merged view).

use wdtg_core::methodology::build_sharded_db_with_layout;
use wdtg_memdb::exec::PhysicalConfig;
use wdtg_memdb::{EngineProfile, ExecMode, PageLayout, SystemId};
use wdtg_sim::{merge_cores, CpuConfig, Snapshot};
use wdtg_workloads::{micro, MicroQuery, Scale};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg() -> CpuConfig {
    CpuConfig::pentium_ii_xeon()
}

#[test]
fn answers_are_identical_across_shard_counts_modes_and_layouts() {
    let scale = Scale::tiny();
    for query in MicroQuery::ALL {
        for mode in [ExecMode::Row, ExecMode::Batch] {
            for layout in PageLayout::ALL {
                let q = micro::query(scale, query, 0.1);
                let mut expected = None;
                for shards in SHARD_COUNTS {
                    let mut db = build_sharded_db_with_layout(
                        EngineProfile::system(SystemId::C),
                        scale,
                        query,
                        &cfg(),
                        layout,
                        shards,
                    )
                    .expect("sharded build");
                    db.configure(PhysicalConfig {
                        exec_mode: mode,
                        selection_mode: None,
                        join_algo: None,
                    });
                    let got = db.run(&q).expect("sharded run");
                    match expected {
                        None => expected = Some(got),
                        Some(e) => {
                            assert_eq!(
                                e.rows, got.rows,
                                "{query:?} {mode:?} {layout:?} x{shards}: rows diverged"
                            );
                            assert_eq!(
                                e.value, got.value,
                                "{query:?} {mode:?} {layout:?} x{shards}: \
                                 value must be bit-identical, not merely close"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn merged_snapshots_are_bit_identical_across_repeated_builds() {
    // Build the same sharded database twice from scratch, run the same
    // query, and demand the *merged* measurement (summed counters + ledger,
    // max-core wall clock) reproduce exactly — per shard count.
    let scale = Scale::tiny();
    for shards in [1usize, 4, 8] {
        let measure = || {
            let mut db = build_sharded_db_with_layout(
                EngineProfile::system(SystemId::B),
                scale,
                MicroQuery::SequentialRangeSelection,
                &cfg(),
                PageLayout::Nsm,
                shards,
            )
            .expect("sharded build");
            let q = micro::query(scale, MicroQuery::SequentialRangeSelection, 0.1);
            db.run(&q).expect("warm-up");
            let before = db.snapshots();
            db.run(&q).expect("measured run");
            db.merged_delta(&before)
        };
        let a = measure();
        let b = measure();
        assert_eq!(
            a, b,
            "{shards} shards: merged snapshots must be bit-identical across repeats"
        );
        assert_eq!(a.cores, shards);
        assert!(a.wall_cycles > 0.0);
        assert!(
            a.total.cycles >= a.wall_cycles,
            "summed work can never undercut the slowest core"
        );
    }
}

#[test]
fn per_shard_deltas_merge_consistently() {
    // The merged view must be exactly the fold of the per-shard deltas —
    // no hidden cross-shard state.
    let scale = Scale::tiny();
    let mut db = build_sharded_db_with_layout(
        EngineProfile::system(SystemId::D),
        scale,
        MicroQuery::SequentialRangeSelection,
        &cfg(),
        PageLayout::Nsm,
        4,
    )
    .expect("sharded build");
    let q = micro::query(scale, MicroQuery::SequentialRangeSelection, 0.1);
    db.run(&q).expect("warm-up");
    let before = db.snapshots();
    db.run(&q).expect("measured run");
    let merged = db.merged_delta(&before);

    let deltas: Vec<Snapshot> = db
        .snapshots()
        .iter()
        .zip(&before)
        .map(|(now, b)| now.delta(b))
        .collect();
    assert_eq!(merged, merge_cores(&deltas));
    let wall = deltas.iter().map(|d| d.cycles).fold(0.0, f64::max);
    assert_eq!(merged.wall_cycles, wall);
    let sum: f64 = deltas.iter().map(|d| d.cycles).sum();
    assert!((merged.total.cycles - sum).abs() < 1e-9);
}

#[test]
fn sharded_wall_clock_beats_single_core_on_the_sequential_scan() {
    // Even at test scale the scan must parallelize: 4 shards' wall clock
    // (slowest core) well under the 1-shard run's.
    let scale = Scale::tiny();
    let run = |shards: usize| {
        let mut db = build_sharded_db_with_layout(
            EngineProfile::system(SystemId::C),
            scale,
            MicroQuery::SequentialRangeSelection,
            &cfg(),
            PageLayout::Nsm,
            shards,
        )
        .expect("sharded build");
        let q = micro::query(scale, MicroQuery::SequentialRangeSelection, 0.1);
        db.run(&q).expect("warm-up");
        let before = db.snapshots();
        db.run(&q).expect("measured run");
        db.merged_delta(&before).wall_cycles
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four < one / 2.0,
        "4 shards must at least halve the scan's wall clock (1-shard {one:.0}, 4-shard {four:.0})"
    );
}
