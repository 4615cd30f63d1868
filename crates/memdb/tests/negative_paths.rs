//! Negative-path regression tests: malformed queries must come back as
//! `Err(DbError)`, never as a process-killing panic. The planner used to
//! resolve scan column positions with `.expect("present")` — fine until a
//! plan references a column the scan projected away, at which point a
//! release build dies instead of reporting the query as unplannable.

use wdtg_memdb::testutil::{build_db_layout, rows_for};
use wdtg_memdb::{
    AggSpec, DbError, Expr, FaultPlan, FaultSite, JoinAlgo, PageLayout, Query, QueryPredicate,
    ResourceBudget, Session, SystemId,
};

fn db() -> wdtg_memdb::Database {
    let rows = rows_for(500, 7);
    build_db_layout(SystemId::C, PageLayout::Nsm, &[("R", &rows)], true)
}

#[test]
fn unknown_aggregate_column_is_an_error() {
    let mut db = db();
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::avg("no_such_col"),
    };
    assert_eq!(
        db.run(&q),
        Err(DbError::ColumnNotFound("no_such_col".into()))
    );
}

#[test]
fn unknown_predicate_column_is_an_error() {
    let mut db = db();
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: Some(QueryPredicate::Range {
            col: "ghost".into(),
            lo: 0,
            hi: 100,
        }),
        agg: AggSpec::avg("a3"),
    };
    assert_eq!(db.run(&q), Err(DbError::ColumnNotFound("ghost".into())));
}

#[test]
fn out_of_range_expression_column_is_an_error_not_a_panic() {
    let mut db = db();
    // Column 99 does not exist in the 5-column schema; the planner must
    // reject the expression instead of indexing past the scan set.
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: Some(QueryPredicate::Expr(Expr::col(99).gt(Expr::lit(0)))),
        agg: AggSpec::avg("a3"),
    };
    match db.run(&q) {
        Err(DbError::PlanError(_)) => {}
        other => panic!("expected PlanError, got {other:?}"),
    }
}

#[test]
fn unknown_join_columns_are_errors() {
    let rows = rows_for(200, 3);
    let srows = rows_for(50, 5);
    let mut db = build_db_layout(
        SystemId::C,
        PageLayout::Nsm,
        &[("R", &rows), ("S", &srows)],
        false,
    );
    let q = Query::JoinAgg {
        left: "R".into(),
        right: "S".into(),
        left_col: "nope".into(),
        right_col: "a1".into(),
        agg: AggSpec::avg("a3"),
    };
    assert_eq!(db.run(&q), Err(DbError::ColumnNotFound("nope".into())));
    let q = Query::JoinAgg {
        left: "R".into(),
        right: "S".into(),
        left_col: "a2".into(),
        right_col: "nope".into(),
        agg: AggSpec::avg("a3"),
    };
    assert_eq!(db.run(&q), Err(DbError::ColumnNotFound("nope".into())));
}

#[test]
fn unknown_group_and_agg_columns_in_run_grouped_are_errors() {
    let mut db = db();
    assert_eq!(
        db.run_grouped("R", "ghost", None, &AggSpec::avg("a3")),
        Err(DbError::ColumnNotFound("ghost".into()))
    );
    assert_eq!(
        db.run_grouped("R", "a4", None, &AggSpec::avg("ghost")),
        Err(DbError::ColumnNotFound("ghost".into()))
    );
}

#[test]
fn cancelled_queries_return_cancelled_until_cleared() {
    let mut db = db();
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::avg("a3"),
    };
    let token = db.cancel_token();
    token.cancel();
    assert_eq!(db.run(&q), Err(DbError::Cancelled));
    token.clear();
    assert!(db.run(&q).is_ok(), "cleared token must unblock queries");
}

#[test]
fn cycle_budget_breach_is_a_typed_error() {
    let rows = rows_for(4000, 7);
    let mut db = build_db_layout(SystemId::C, PageLayout::Nsm, &[("R", &rows)], false);
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::avg("a3"),
    };
    assert!(db.run(&q).is_ok(), "unlimited run must succeed");

    db.set_budget(ResourceBudget::unlimited().with_max_cycles(1_000));
    match db.run(&q) {
        Err(DbError::BudgetExceeded {
            resource: "cycles",
            used,
            limit,
        }) => assert!(used > limit),
        other => panic!("expected a cycles budget breach, got {other:?}"),
    }
    assert!(db.robustness_stats().budget_stops >= 1);

    db.set_budget(ResourceBudget::unlimited());
    assert!(db.run(&q).is_ok(), "disarming the budget must recover");
}

#[test]
fn injected_io_and_checksum_faults_are_typed_and_recoverable() {
    let mut db = db();
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::avg("a3"),
    };

    db.set_fault_plan(FaultPlan::disabled().with_rate(FaultSite::BufpoolFetch, 1.0));
    match db.run(&q) {
        Err(e @ DbError::IoFault { .. }) => assert!(e.is_transient()),
        other => panic!("expected IoFault, got {other:?}"),
    }
    assert!(db.robustness_stats().bufpool_fetch_faults >= 1);

    db.set_fault_plan(FaultPlan::disabled().with_rate(FaultSite::PageChecksum, 1.0));
    match db.run(&q) {
        Err(e @ DbError::PageCorrupt { .. }) => assert!(e.is_transient()),
        other => panic!("expected PageCorrupt, got {other:?}"),
    }
    assert!(db.robustness_stats().page_checksum_faults >= 1);

    db.set_fault_plan(FaultPlan::disabled());
    assert!(db.run(&q).is_ok(), "disabling faults must recover");
}

#[test]
fn exhausted_shard_retries_surface_shard_failed() {
    let rows = rows_for(2000, 7);
    let db = build_db_layout(SystemId::C, PageLayout::Nsm, &[("R", &rows)], false);
    let mut sharded = db.shard(2).unwrap();
    sharded.set_fault_plan(FaultPlan::disabled().with_rate(FaultSite::ShardExec, 1.0));
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: None,
        agg: AggSpec::avg("a3"),
    };
    match sharded.run(&q) {
        Err(DbError::ShardFailed {
            shard: 0,
            attempts: 3,
            cause,
        }) => assert!(cause.is_transient()),
        other => panic!("expected ShardFailed after exhausted retries, got {other:?}"),
    }
    let rs = sharded.router_stats();
    assert_eq!(rs.retries, 2, "two retries before giving up");
    assert_eq!(rs.failed, 1);
    assert_eq!(rs.recovered, 0);

    sharded.set_fault_plan(FaultPlan::disabled());
    assert!(sharded.run(&q).is_ok(), "disabling faults must recover");
}

#[test]
fn shard_mutations_under_faults_fail_without_retry() {
    let rows = rows_for(100, 7);
    let db = build_db_layout(SystemId::C, PageLayout::Nsm, &[("R", &rows)], false);
    let mut sharded = db.shard(2).unwrap();
    sharded.set_fault_plan(FaultPlan::disabled().with_rate(FaultSite::ShardExec, 1.0));
    let q = Query::InsertRow {
        table: "R".into(),
        values: vec![5000, 1, 2, 3, 0],
    };
    match sharded.run(&q) {
        Err(DbError::ShardFailed { attempts: 1, .. }) => {}
        other => panic!("mutations must fail on the first fault, got {other:?}"),
    }
    assert_eq!(
        sharded.router_stats().retries,
        0,
        "mutations are never retried (a re-run could double-apply)"
    );
}

/// The session twin of the two tests above: a session answers the way the
/// shard router does at every shard count, and `Session::open(db)` is the
/// one-shard case, not a second backend.
#[test]
fn sessions_answer_the_way_the_router_does_at_every_shard_count() {
    const AGG: &str = "SELECT SUM(a3) FROM R";
    let rows = rows_for(2000, 7);
    let build = || build_db_layout(SystemId::C, PageLayout::Nsm, &[("R", &rows)], false);
    let clean = Session::open(build()).sql(AGG).unwrap();
    // `None` opens the database itself; `Some(n)` opens it split n ways.
    let open = |shards: Option<usize>, plan: FaultPlan| {
        let mut db = build();
        db.set_fault_plan(plan);
        match shards {
            None => Session::open(db),
            Some(n) => Session::open_sharded(db.shard(n).unwrap()),
        }
    };
    for shards in [None, Some(1), Some(2), Some(4)] {
        let one_shard = shards.unwrap_or(1) == 1;

        let always = FaultPlan::disabled().with_rate(FaultSite::ShardExec, 1.0);
        match open(shards, always).sql(AGG) {
            Err(DbError::ShardFailed { attempts: 3, .. }) => {}
            other => panic!("{shards:?}: expected ShardFailed after 3 attempts, got {other:?}"),
        }

        // This seed faults the first attempt of one shard sub-query in
        // every row; the retry recovers it.
        let transient = FaultPlan::disabled()
            .with_rate(FaultSite::BufpoolFetch, 0.1)
            .with_seed(255);
        let mut sess = open(shards, transient);
        assert_eq!(sess.sql(AGG), Ok(clean), "{shards:?}: retried answer");
        if let Some(db) = sess.db() {
            assert!(
                db.robustness_stats().bufpool_fetch_faults >= 1,
                "{shards:?}"
            );
        }

        let mut sess = open(shards, FaultPlan::disabled());
        match sess.begin() {
            Ok(_) if one_shard => sess.commit().map(|_| ()).unwrap(),
            Err(DbError::PlanError(_)) if !one_shard => {}
            other => panic!("{shards:?}: begin returned {other:?}"),
        }
    }
}

#[test]
fn tight_arena_budget_downgrades_partitioned_join_instead_of_failing() {
    let rows = rows_for(2000, 3);
    let srows = rows_for(400, 5);
    let mut db = build_db_layout(
        SystemId::C,
        PageLayout::Nsm,
        &[("R", &rows), ("S", &srows)],
        false,
    );
    db.set_join_algo(JoinAlgo::PartitionedHash);
    let q = Query::join_avg("R", "S");

    let baseline = db.run(&q).expect("unbudgeted partitioned join");
    assert_eq!(db.robustness_stats().join_downgrades, 0);

    db.set_budget(ResourceBudget::unlimited().with_max_arena_bytes(16 * 1024));
    let degraded = db.run(&q).expect("budgeted join must degrade, not die");
    assert_eq!(
        degraded.value.to_bits(),
        baseline.value.to_bits(),
        "the degraded plan must produce a bit-identical answer"
    );
    assert_eq!(degraded.rows, baseline.rows);
    assert_eq!(db.robustness_stats().join_downgrades, 1);
    assert!(db.robustness_stats().budget_stops >= 1);
}

// ---------------------------------------------------------------------------
// SQL frontend: malformed statements come back as typed errors with byte
// spans and a source snippet, never as a panic.

mod sql_errors {
    use super::db;
    use wdtg_memdb::sql::Session;
    use wdtg_memdb::DbError;

    fn compile_err(sql: &str) -> DbError {
        wdtg_memdb::sql::compile(&db(), sql).expect_err(sql)
    }

    #[test]
    fn syntax_errors_carry_span_and_snippet() {
        match compile_err("SELECT AVG(a3) FROM R WHERE") {
            DbError::ParseError { span, snippet, .. } => {
                // The error points at the end of the truncated input.
                assert_eq!(span.0, 27, "span: {span:?}");
                assert!(snippet.contains("WHERE"), "snippet: {snippet}");
            }
            other => panic!("expected ParseError, got {other:?}"),
        }
    }

    #[test]
    fn disjunctions_are_rejected_as_unsupported() {
        match compile_err("SELECT AVG(a3) FROM R WHERE a2 > 1 OR a2 < 9") {
            DbError::ParseError { msg, .. } => {
                assert!(msg.contains("conjunctive"), "msg: {msg}")
            }
            other => panic!("expected ParseError, got {other:?}"),
        }
    }

    #[test]
    fn unknown_table_is_a_bind_error_at_the_table_name() {
        let sql = "SELECT AVG(a3) FROM ghost";
        match compile_err(sql) {
            DbError::BindError { span, snippet, msg } => {
                assert_eq!(&sql[span.0..span.1], "ghost");
                assert!(msg.contains("ghost"), "msg: {msg}");
                assert!(snippet.contains("ghost"), "snippet: {snippet}");
            }
            other => panic!("expected BindError, got {other:?}"),
        }
    }

    #[test]
    fn unknown_column_is_a_bind_error_at_the_column_name() {
        let sql = "SELECT AVG(nope) FROM R";
        match compile_err(sql) {
            DbError::BindError { span, .. } => assert_eq!(&sql[span.0..span.1], "nope"),
            other => panic!("expected BindError, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_literals_are_bind_errors() {
        match compile_err("SELECT AVG(a3) FROM R WHERE a2 >= 3000000000") {
            DbError::BindError { msg, .. } => {
                assert!(msg.contains("32-bit"), "msg: {msg}")
            }
            other => panic!("expected BindError, got {other:?}"),
        }
    }

    #[test]
    fn insert_arity_mismatch_is_a_bind_error() {
        match compile_err("INSERT INTO R VALUES (1, 2)") {
            DbError::BindError { msg, .. } => {
                assert!(msg.contains("2 values"), "msg: {msg}")
            }
            other => panic!("expected BindError, got {other:?}"),
        }
    }

    #[test]
    fn grouped_statements_are_refused_by_the_scalar_entry_point() {
        let mut sess = Session::open(db());
        match sess.sql("SELECT a4, AVG(a3) FROM R GROUP BY a4") {
            Err(DbError::PlanError(msg)) => {
                assert!(msg.contains("sql_grouped"), "msg: {msg}")
            }
            other => panic!("expected PlanError, got {other:?}"),
        }
    }

    #[test]
    fn frontend_errors_do_not_poison_the_session() {
        let mut sess = Session::open(db());
        assert!(sess.sql("SELEC TYPO").is_err());
        assert!(sess.sql("SELECT AVG(ghost) FROM R").is_err());
        let ok = sess
            .sql("SELECT COUNT(*) FROM R")
            .expect("session still usable after frontend errors");
        assert_eq!(ok.rows, 500);
    }
}
