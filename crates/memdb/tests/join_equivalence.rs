//! Join-strategy equivalence: every join algorithm is an execution
//! strategy, never a semantics change. The same equijoin must return
//! identical results across {HashJoin, PartitionedHashJoin, IndexNlJoin} ×
//! {Row, Batch} × {Nsm, Pax} — 12 configurations of the same query — for
//! arbitrary data, duplicate keys, skew and empty inputs.
//!
//! The aggregate values are sums of `i32`s accumulated in `f64`, which is
//! exact (integers far below 2^53), so strategies may emit matches in any
//! order and the comparison can still demand bit-identical answers.

use proptest::prelude::*;
use wdtg_memdb::testutil::{build_db_with_indexes, measure, rows_for};
use wdtg_memdb::{ExecMode, JoinAlgo, PageLayout, Query, SystemId};
use wdtg_sim::Event;

const ALGOS: [JoinAlgo; 3] = [
    JoinAlgo::Hash,
    JoinAlgo::PartitionedHash,
    JoinAlgo::IndexNestedLoop,
];

/// Runs R ⋈ S under all 12 (algorithm, mode, layout) configurations and
/// asserts identical row counts and aggregate values.
fn assert_strategies_agree(sys: SystemId, r: &[Vec<i32>], s: &[Vec<i32>]) {
    let q = Query::join_avg("R", "S");
    let mut oracle: Option<(u64, f64, String)> = None;
    for algo in ALGOS {
        for mode in [ExecMode::Row, ExecMode::Batch] {
            for layout in PageLayout::ALL {
                let mut db =
                    build_db_with_indexes(sys, layout, &[("R", r), ("S", s)], &[("S", "a1")]);
                db.set_exec_mode(mode);
                db.set_join_algo(algo);
                let res = db.run(&q).expect("join runs");
                let label = format!("{sys:?} {algo:?} {mode:?} {layout:?}");
                match &oracle {
                    None => oracle = Some((res.rows, res.value, label)),
                    Some((rows, value, base)) => {
                        assert_eq!(res.rows, *rows, "{label}: row count differs from {base}");
                        assert!(
                            (res.value - value).abs() < 1e-9,
                            "{label}: value {} differs from {base}'s {value}",
                            res.value
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn join_strategies_agree_on_paper_shaped_data() {
    // R.a2 uniform over S's key domain, like the paper's SJ: every R row
    // finds matches, chains carry duplicates.
    let r = rows_for(3_000, 29);
    let s: Vec<Vec<i32>> = (0..512).map(|i| vec![i, i * 3, i * 7, 0, 0]).collect();
    for sys in SystemId::ALL {
        assert_strategies_agree(sys, &r, &s);
    }
}

#[test]
fn join_strategies_agree_on_skewed_and_empty_inputs() {
    // Heavy skew: most R rows share one key, so one partition carries
    // nearly everything and chains are long.
    let skewed_r: Vec<Vec<i32>> = (0..2_000)
        .map(|i| vec![i, if i % 10 == 0 { i % 64 } else { 7 }, i * 3, 0, 0])
        .collect();
    let s: Vec<Vec<i32>> = (0..64).map(|i| vec![i, i, i * 5, 0, 0]).collect();
    assert_strategies_agree(SystemId::C, &skewed_r, &s);

    // Empty build side: zero matches everywhere.
    let r = rows_for(500, 31);
    let empty: Vec<Vec<i32>> = Vec::new();
    assert_strategies_agree(SystemId::A, &r, &empty);
    // Empty probe side.
    assert_strategies_agree(SystemId::D, &empty, &s);
}

#[test]
fn partitioned_join_cuts_l2_data_misses_on_a_streaming_join() {
    // The operator's reason to exist: at a scale where the naive join's
    // hash table (build 25 K rows → directory + entry pool ≈ 860 KB,
    // well past the 512 KB L2) makes every probe a cold pointer chase,
    // the partitioned join must take strictly fewer simulated L2 data
    // misses — while charging strictly more retired instructions
    // (partitioning is not free; the simulator must see the trade, not
    // just the win). Like the paper's SJ, R.a2 is uniform over S's whole
    // key domain, so probes land all over the directory.
    const S_ROWS: i32 = 25_000;
    let r: Vec<Vec<i32>> = (0..50_000)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            vec![i, (x % S_ROWS as u64) as i32, (x % 10_000) as i32, 0, 0]
        })
        .collect();
    let s: Vec<Vec<i32>> = (0..S_ROWS).map(|i| vec![i, i * 3, i * 7, 0, 0]).collect();
    let q = Query::join_avg("R", "S");
    let mut results = Vec::new();
    for algo in [JoinAlgo::Hash, JoinAlgo::PartitionedHash] {
        let mut db =
            build_db_with_indexes(SystemId::C, PageLayout::Nsm, &[("R", &r), ("S", &s)], &[]);
        db.set_join_algo(algo);
        let (res, delta) = measure(&mut db, &q);
        results.push((
            res,
            delta.counters.total(Event::SimL2DataMiss),
            delta.counters.total(Event::InstRetired),
        ));
    }
    let (hash, part) = (&results[0], &results[1]);
    assert_eq!(hash.0.rows, part.0.rows, "strategies must agree");
    assert!(
        part.1 < hash.1,
        "partitioned join must cut L2 data misses: hash {} vs partitioned {}",
        hash.1,
        part.1
    );
    assert!(
        part.2 > hash.2,
        "partitioning must charge extra instructions: hash {} vs partitioned {}",
        hash.2,
        part.2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized joins: identical answers across all 12 strategy
    /// configurations on arbitrary data (duplicate keys on both sides,
    /// keys that miss entirely, any of the four systems).
    #[test]
    fn random_joins_agree_across_all_strategies(
        r_rows in proptest::collection::vec(
            proptest::collection::vec(-10i32..10, 5..=5), 1..100),
        s_rows in proptest::collection::vec(
            proptest::collection::vec(-10i32..10, 5..=5), 1..60),
        sys_pick in 0usize..4,
    ) {
        assert_strategies_agree(SystemId::ALL[sys_pick], &r_rows, &s_rows);
    }
}
