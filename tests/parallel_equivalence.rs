//! Parallel-execution equivalence: the morsel-driven OS-thread executor
//! (`ShardedDatabase::run_parallel`) must be a pure *host-side* speedup.
//!
//! The contract under test: for a fixed morsel size, every worker count and
//! every steal schedule produces (a) bit-identical answers and (b)
//! bit-identical merged simulator snapshots (`merge_cores` wall/work views)
//! to the sequential run of the same morsel decomposition — and with one
//! whole-table morsel per shard, to the classic sequential executor
//! (`ShardedDatabase::run`) itself. Faults, budgets and cancellation must
//! surface the *same typed errors* under threads as sequentially.
//!
//! See `crates/memdb/src/parallel.rs` for the determinism argument these
//! tests hold the implementation to.

use wdtg_core::methodology::build_sharded_db_with_layout;
use wdtg_memdb::exec::PhysicalConfig;
use wdtg_memdb::{
    AggSpec, CmpOp, Database, DbError, EngineProfile, ExecMode, Expr, FaultPlan, PageLayout,
    ParallelConfig, Query, QueryPredicate, QueryResult, ResourceBudget, Schema, ShardedDatabase,
    SystemId,
};
use wdtg_sim::{CoreMerge, CpuConfig, InterruptCfg};
use wdtg_workloads::{micro, MicroQuery, Scale};

fn cfg() -> CpuConfig {
    CpuConfig::pentium_ii_xeon()
}

fn build(query: MicroQuery, layout: PageLayout, shards: usize) -> ShardedDatabase {
    build_sharded_db_with_layout(
        EngineProfile::system(SystemId::C),
        Scale::tiny(),
        query,
        &cfg(),
        layout,
        shards,
    )
    .expect("sharded build")
}

fn pcfg(workers: usize, morsel_rows: u32, seed: u64) -> ParallelConfig {
    ParallelConfig::default()
        .with_workers(workers)
        .with_morsel_rows(morsel_rows)
        .with_steal_seed(seed)
}

/// One warmed, measured parallel run: (answer, merged counter delta).
fn measure(db: &mut ShardedDatabase, q: &Query, pc: &ParallelConfig) -> (QueryResult, CoreMerge) {
    db.run_parallel(q, pc).expect("warm-up run");
    let before = db.snapshots();
    let got = db.run_parallel(q, pc).expect("measured run");
    (got, db.merged_delta(&before))
}

fn assert_same(
    label: &str,
    (base_ans, base_merge): &(QueryResult, CoreMerge),
    (got_ans, got_merge): &(QueryResult, CoreMerge),
) {
    assert_eq!(
        base_ans.rows, got_ans.rows,
        "{label}: row count diverged from sequential"
    );
    assert_eq!(
        base_ans.value.to_bits(),
        got_ans.value.to_bits(),
        "{label}: answer must be bit-identical to sequential, not merely close"
    );
    assert_eq!(
        base_merge, got_merge,
        "{label}: merged snapshot must be bit-identical to sequential"
    );
}

/// The tentpole property: across exec modes × layouts, every worker count
/// in {2, 4, 8} reproduces the 1-worker run of the same morsel
/// decomposition — answers and merged counters, bit for bit.
#[test]
fn parallel_equals_sequential_across_modes_layouts_and_workers() {
    let q = micro::query(Scale::tiny(), MicroQuery::SequentialRangeSelection, 0.1);
    for mode in [ExecMode::Row, ExecMode::Batch] {
        let knobs = PhysicalConfig {
            exec_mode: mode,
            selection_mode: None,
            join_algo: None,
        };
        for layout in PageLayout::ALL {
            let baseline = {
                let mut db = build(MicroQuery::SequentialRangeSelection, layout, 4);
                db.configure(knobs);
                measure(&mut db, &q, &pcfg(1, 64, 0))
            };
            for workers in [2usize, 4, 8] {
                let mut db = build(MicroQuery::SequentialRangeSelection, layout, 4);
                db.configure(knobs);
                let got = measure(&mut db, &q, &pcfg(workers, 64, workers as u64));
                assert_same(
                    &format!("{mode:?} {layout:?} x4 shards, {workers} workers"),
                    &baseline,
                    &got,
                );
            }
        }
    }
}

/// Morsel sizes {1, 64, 1024, whole-table} rows: each decomposition is
/// reproduced bit-identically by the threaded pool, at several shard
/// counts; answers are additionally identical *across* morsel sizes
/// (partials merge exactly). The whole-table decomposition also matches
/// the classic sequential executor's answer.
#[test]
fn morsel_size_grid_matches_sequential_at_all_shard_counts() {
    let q = micro::query(Scale::tiny(), MicroQuery::SequentialRangeSelection, 0.1);
    for shards in [2usize, 4] {
        let mut answer_across_morsels: Option<QueryResult> = None;
        for morsel_rows in [1u32, 64, 1024, u32::MAX] {
            let baseline = {
                let mut db = build(
                    MicroQuery::SequentialRangeSelection,
                    PageLayout::Nsm,
                    shards,
                );
                measure(&mut db, &q, &pcfg(1, morsel_rows, 0))
            };
            let got = {
                let mut db = build(
                    MicroQuery::SequentialRangeSelection,
                    PageLayout::Nsm,
                    shards,
                );
                measure(&mut db, &q, &pcfg(4, morsel_rows, 17))
            };
            assert_same(
                &format!("x{shards} shards, morsel {morsel_rows} rows"),
                &baseline,
                &got,
            );
            match &answer_across_morsels {
                None => answer_across_morsels = Some(got.0),
                Some(a) => {
                    assert_eq!(a.rows, got.0.rows);
                    assert_eq!(
                        a.value.to_bits(),
                        got.0.value.to_bits(),
                        "x{shards}: answers must not depend on morsel size"
                    );
                }
            }
        }
        // One whole-table morsel per shard reproduces the classic
        // sequential executor exactly — same answer, same counters.
        let legacy = {
            let mut db = build(
                MicroQuery::SequentialRangeSelection,
                PageLayout::Nsm,
                shards,
            );
            db.run(&q).expect("warm-up");
            let before = db.snapshots();
            let got = db.run(&q).expect("measured");
            (got, db.merged_delta(&before))
        };
        let whole = {
            let mut db = build(
                MicroQuery::SequentialRangeSelection,
                PageLayout::Nsm,
                shards,
            );
            measure(&mut db, &q, &pcfg(4, u32::MAX, 3))
        };
        assert_same(
            &format!("x{shards} shards, whole-table morsel vs ShardedDatabase::run"),
            &legacy,
            &whole,
        );
    }
}

/// The seeded-schedule stress test: permuting the work-stealing deal and
/// victim order (8 shards chasing 3 workers — always-stealing pressure)
/// must not move a single counter bit.
#[test]
fn steal_schedule_permutations_keep_merged_counters_bit_identical() {
    let q = micro::query(Scale::tiny(), MicroQuery::SequentialRangeSelection, 0.1);
    let mut baseline: Option<(QueryResult, CoreMerge)> = None;
    for seed in 0..8u64 {
        let mut db = build(MicroQuery::SequentialRangeSelection, PageLayout::Nsm, 8);
        let got = measure(&mut db, &q, &pcfg(3, 256, seed));
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_same(&format!("steal seed {seed}"), b, &got),
        }
    }
}

/// Non-morselizable plans ride the same pool: the co-partitioned join and
/// the indexed range selection each run as one whole-range morsel per
/// shard and still reproduce the sequential run bit-identically.
#[test]
fn join_and_index_plans_match_sequential_under_threads() {
    for query in [
        MicroQuery::SequentialJoin,
        MicroQuery::IndexedRangeSelection,
    ] {
        let q = micro::query(Scale::tiny(), query, 0.1);
        let baseline = {
            let mut db = build(query, PageLayout::Nsm, 4);
            measure(&mut db, &q, &pcfg(1, 1024, 0))
        };
        let got = {
            let mut db = build(query, PageLayout::Nsm, 4);
            measure(&mut db, &q, &pcfg(8, 1024, 5))
        };
        assert_same(&format!("{query:?} under 8 workers"), &baseline, &got);
    }
}

/// Grouped aggregation through the pool: per-key exact partials must merge
/// to the same ascending-key float vector the sequential router produces,
/// with no predicate and with an expression predicate.
#[test]
fn grouped_aggregation_matches_sequential_under_threads() {
    let agg = AggSpec::avg("a3");
    // a2 >= 100 AND a3 < 5000
    let expr = QueryPredicate::Expr(Expr::And(
        Box::new(Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Col(1)),
            Box::new(Expr::Const(100)),
        )),
        Box::new(Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Col(2)),
            Box::new(Expr::Const(5000)),
        )),
    ));
    for pred in [None, Some(&expr)] {
        let grouped = |workers: usize, morsel: u32| {
            let mut db = build(MicroQuery::SequentialRangeSelection, PageLayout::Nsm, 4);
            db.run_grouped_parallel("R", "a2", pred, &agg, &pcfg(workers, morsel, 11))
                .expect("grouped run")
        };
        let sequential = {
            let mut db = build(MicroQuery::SequentialRangeSelection, PageLayout::Nsm, 4);
            db.run_grouped("R", "a2", pred, &agg).expect("grouped run")
        };
        assert!(!sequential.is_empty());
        for workers in [1usize, 2, 8] {
            let got = grouped(workers, 512);
            assert_eq!(
                sequential.len(),
                got.len(),
                "{workers} workers, {pred:?}: group count diverged"
            );
            for ((ek, ev), (gk, gv)) in sequential.iter().zip(&got) {
                assert_eq!(ek, gk, "{workers} workers, {pred:?}: group keys diverged");
                assert_eq!(
                    ev.to_bits(),
                    gv.to_bits(),
                    "{workers} workers, {pred:?}: group {ek} value must be bit-identical"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Morsel-boundary edge cases (satellite): empty tables, single-row morsels,
// morsel size > table size, worker count > morsel count.
// ---------------------------------------------------------------------------

/// A hand-built sharded database over a table of `rows` rows (shard key
/// `a1`, dense), small enough that edge decompositions are exact.
fn tiny_sharded(rows: i32, shards: usize) -> ShardedDatabase {
    let mut db = Database::new(
        EngineProfile::system(SystemId::C),
        cfg().with_interrupts(InterruptCfg::disabled()),
    );
    db.ctx.instrument = false;
    db.create_table("T", Schema::paper_relation(20)).unwrap();
    db.load_rows("T", (0..rows).map(|i| vec![i, i % 7 + 1, i * 3, 0, 0]))
        .unwrap();
    db.set_shard_key("T", "a1").unwrap();
    let mut sharded = db.shard(shards).unwrap();
    sharded.set_instrument(true);
    sharded
}

#[test]
fn morsel_boundary_edge_cases_produce_identical_answers_and_snapshots() {
    let q = Query::SelectAgg {
        table: "T".into(),
        predicate: None,
        agg: AggSpec::sum("a3"),
    };
    // (rows, shards, morsel_rows, workers) corner grid:
    //  - empty table (morsels over zero pages)
    //  - single-row morsels (one page per morsel, maximal morsel count)
    //  - morsel size > table size (one whole-table morsel per shard)
    //  - worker count > morsel count (workers idle at the deque)
    let corners: [(i32, usize, u32, usize); 4] = [
        (0, 2, 1, 8),
        (500, 2, 1, 8),
        (37, 2, u32::MAX, 4),
        (12, 3, u32::MAX, 8),
    ];
    for (rows, shards, morsel_rows, workers) in corners {
        let baseline = {
            let mut db = tiny_sharded(rows, shards);
            measure(&mut db, &q, &pcfg(1, morsel_rows, 0))
        };
        let got = {
            let mut db = tiny_sharded(rows, shards);
            measure(&mut db, &q, &pcfg(workers, morsel_rows, 23))
        };
        assert_same(
            &format!("{rows} rows x{shards} shards, morsel {morsel_rows}, {workers} workers"),
            &baseline,
            &got,
        );
        let expected_sum: i64 = (0..rows).map(|i| i as i64 * 3).sum();
        assert_eq!(got.0.rows, rows as u64);
        assert_eq!(
            got.0.value, expected_sum as f64,
            "exact sum over {rows} rows"
        );
    }
}

// ---------------------------------------------------------------------------
// Chaos under threads (satellite): faults, budgets and cancellation must
// surface the same typed errors across worker counts.
// ---------------------------------------------------------------------------

/// Budget exhaustion: a cycle budget far below the scan's cost must surface
/// the same typed error (same shard, same resource) at every worker count.
#[test]
fn budget_exhaustion_surfaces_identical_typed_errors_across_worker_counts() {
    // Predicate-free so every row reaches the aggregator's checkpoint.
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::avg("a3"),
    };
    let run = |workers: usize| -> Result<QueryResult, DbError> {
        let mut db = build(MicroQuery::SequentialRangeSelection, PageLayout::Nsm, 4);
        db.set_budget(ResourceBudget::unlimited().with_max_cycles(10_000));
        db.run_parallel(&q, &pcfg(workers, 256, workers as u64))
    };
    let baseline = run(1);
    let err = baseline
        .as_ref()
        .expect_err("10k cycles cannot cover the scan");
    assert!(
        matches!(
            err,
            DbError::BudgetExceeded {
                resource: "cycles",
                ..
            }
        ),
        "expected a cycle-budget breach, got {err:?}"
    );
    for workers in [2usize, 8] {
        assert_eq!(
            baseline,
            run(workers),
            "{workers} workers: budget breach must be schedule-independent"
        );
    }
}

/// Deterministic fault plans: the retry/backoff dance happens on each
/// shard's own core, so outcomes — including which typed error survives
/// retries, and every merged counter — are identical across worker counts.
#[test]
fn injected_faults_surface_identical_outcomes_across_worker_counts() {
    let q = micro::query(Scale::tiny(), MicroQuery::SequentialRangeSelection, 0.1);
    for fault_seed in [3u64, 99] {
        let run = |workers: usize| {
            let mut db = build(MicroQuery::SequentialRangeSelection, PageLayout::Nsm, 4);
            db.set_fault_plan(FaultPlan::uniform(fault_seed, 0.01));
            let before = db.snapshots();
            let r = db.run_parallel(&q, &pcfg(workers, 512, workers as u64));
            (r, db.merged_delta(&before), db.router_stats())
        };
        let (base_r, base_m, base_s) = run(1);
        for workers in [2usize, 8] {
            let (r, m, s) = run(workers);
            assert_eq!(
                base_r, r,
                "seed {fault_seed}, {workers} workers: outcome diverged"
            );
            assert_eq!(
                base_m, m,
                "seed {fault_seed}, {workers} workers: counters diverged"
            );
            assert_eq!(
                base_s, s,
                "seed {fault_seed}, {workers} workers: router stats diverged"
            );
        }
    }
}

/// Concurrent cancellation (satellite): a token flipped from another OS
/// thread mid-query must surface `Cancelled` — and only `Cancelled` — at
/// every worker count, with correct answers before and after.
#[test]
fn cancellation_from_another_thread_surfaces_cancelled_across_worker_counts() {
    let q = micro::query(Scale::tiny(), MicroQuery::SequentialRangeSelection, 0.1);
    for workers in [1usize, 2, 8] {
        let mut db = build(MicroQuery::SequentialRangeSelection, PageLayout::Nsm, 4);
        let pc = pcfg(workers, 64, 0);
        let expected = db.run_parallel(&q, &pc).expect("fault-free answer");

        // Pre-cancelled: refused outright.
        let token = db.cancel_token();
        token.cancel();
        assert_eq!(db.run_parallel(&q, &pc), Err(DbError::Cancelled));
        token.clear();

        // Flipped mid-flight from another thread: every attempt either
        // completes with the exact answer or fails with `Cancelled`; once
        // the flag is set a subsequent attempt *must* report `Cancelled`.
        let cancelled_seen = std::thread::scope(|scope| {
            let token = db.cancel_token();
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(300));
                token.cancel();
            });
            let mut cancelled = false;
            for _ in 0..50 {
                match db.run_parallel(&q, &pc) {
                    Ok(got) => {
                        assert_eq!(got.rows, expected.rows, "{workers} workers");
                        assert_eq!(
                            got.value.to_bits(),
                            expected.value.to_bits(),
                            "{workers} workers: a completed run must be exact"
                        );
                    }
                    Err(DbError::Cancelled) => {
                        cancelled = true;
                        break;
                    }
                    Err(other) => panic!("{workers} workers: unexpected error {other:?}"),
                }
            }
            cancelled
        });
        assert!(
            cancelled_seen,
            "{workers} workers: the cancel flag was set, so a run must observe it"
        );

        // Cleared again: the database is fully usable.
        db.cancel_token().clear();
        let after = db.run_parallel(&q, &pc).expect("post-clear answer");
        assert_eq!(after.rows, expected.rows);
        assert_eq!(after.value.to_bits(), expected.value.to_bits());
    }
}

/// A pending cancellation must imply *zero* mutation: a broadcast update
/// refused with `Cancelled` leaves every shard's data bit-identical, at
/// every worker count.
#[test]
fn cancelled_mutation_applies_nothing_across_worker_counts() {
    let sum_q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::sum("a3"),
    };
    let update = Query::UpdateAdd {
        table: "R".into(),
        key_col: "a2".into(),
        key: 5,
        set_col: "a3".into(),
        delta: 7,
    };
    for workers in [1usize, 2, 8] {
        // IndexedRangeSelection builds the a2 index the update needs.
        let mut db = build(MicroQuery::IndexedRangeSelection, PageLayout::Nsm, 4);
        let pc = pcfg(workers, 1024, 0);
        let before = db.run_parallel(&sum_q, &pc).expect("baseline sum");

        let token = db.cancel_token();
        token.cancel();
        assert_eq!(
            db.run_parallel(&update, &pc),
            Err(DbError::Cancelled),
            "{workers} workers: pending cancellation must refuse the update"
        );
        let after_cancel = db
            .run_parallel(&sum_q, &{
                token.clear();
                pc
            })
            .expect("sum after refused update");
        assert_eq!(
            before.value.to_bits(),
            after_cancel.value.to_bits(),
            "{workers} workers: a Cancelled update must mutate nothing"
        );

        // And with the token cleared the same update applies exactly.
        let applied = db.run_parallel(&update, &pc).expect("update applies");
        assert!(applied.rows > 0, "key 5 must match rows at tiny scale");
        let after_apply = db.run_parallel(&sum_q, &pc).expect("sum after update");
        assert_eq!(
            after_apply.value as i64,
            before.value as i64 + 7 * applied.rows as i64,
            "{workers} workers: the update's effect must be exact"
        );
    }
}
