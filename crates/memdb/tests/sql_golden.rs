//! Golden SQL tests: the frontend must compile each statement to exactly the
//! hand-built [`Query`] the classic API takes, and executing through
//! [`Session`] must return bit-identical answers to executing the hand-built
//! query — across exec modes, page layouts and shard counts. A property
//! test sweeps random range bounds and aggregates over the same contract.

use proptest::prelude::*;
use wdtg_memdb::sql::{compile, BoundStatement, Session};
use wdtg_memdb::testutil::{build_db_layout, build_db_with_indexes, rows_for};
use wdtg_memdb::{
    AggKind, AggSpec, CmpOp, ExecMode, Expr, PageLayout, Query, QueryPredicate, SystemId,
};

fn db(layout: PageLayout) -> wdtg_memdb::Database {
    let rows = rows_for(600, 7);
    build_db_layout(SystemId::C, layout, &[("R", &rows)], true)
}

/// R joined with S on R.a2 = S.a1, point-indexed on R.a1, shardable.
fn join_db(sys: SystemId) -> wdtg_memdb::Database {
    let r = rows_for(2_000, 11);
    let s: Vec<Vec<i32>> = (0..512).map(|i| vec![i, i * 2, i % 5, 0, 0]).collect();
    let mut db = build_db_with_indexes(
        sys,
        PageLayout::Nsm,
        &[("R", &r), ("S", &s)],
        &[("R", "a1")],
    );
    db.set_shard_key("R", "a2").unwrap();
    db.set_shard_key("S", "a1").unwrap();
    db
}

fn scalar(db: &wdtg_memdb::Database, sql: &str) -> Query {
    match compile(db, sql).expect(sql) {
        BoundStatement::Scalar(q) => q,
        other => panic!("{sql}: expected scalar statement, got {other:?}"),
    }
}

#[test]
fn range_selection_compiles_to_the_native_range_predicate() {
    let db = db(PageLayout::Nsm);
    let want = Query::SelectAgg {
        table: "R".into(),
        predicate: Some(QueryPredicate::Range {
            col: "a2".into(),
            lo: 100,
            hi: 400,
        }),
        agg: AggSpec::avg("a3"),
    };
    // Both conjunct orders (and lower-case keywords) collapse to the same
    // exclusive range.
    for sql in [
        "SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 400",
        "SELECT AVG(a3) FROM R WHERE a2 < 400 AND a2 > 100",
        "select avg(a3) from R where a2 > 100 and a2 < 400;",
    ] {
        assert_eq!(scalar(&db, sql), want, "{sql}");
    }
}

#[test]
fn non_range_conjunctions_compile_to_expression_predicates() {
    let db = db(PageLayout::Nsm);
    let q = scalar(&db, "SELECT SUM(a3) FROM R WHERE a2 >= 100 AND a4 <> 3");
    let want = Query::SelectAgg {
        table: "R".into(),
        predicate: Some(QueryPredicate::Expr(Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Ge,
                Box::new(Expr::Col(1)),
                Box::new(Expr::Const(100)),
            )),
            Box::new(Expr::Cmp(
                CmpOp::Ne,
                Box::new(Expr::Col(3)),
                Box::new(Expr::Const(3)),
            )),
        ))),
        agg: AggSpec::sum("a3"),
    };
    assert_eq!(q, want);
}

#[test]
fn count_star_compiles_to_the_bare_count() {
    let db = db(PageLayout::Nsm);
    assert_eq!(
        scalar(&db, "SELECT COUNT(*) FROM R"),
        Query::SelectAgg {
            table: "R".into(),
            predicate: None,
            agg: AggSpec::count(),
        }
    );
}

#[test]
fn joins_compile_with_the_aggregate_side_as_probe() {
    let db = join_db(SystemId::C);
    let want = Query::JoinAgg {
        left: "R".into(),
        right: "S".into(),
        left_col: "a2".into(),
        right_col: "a1".into(),
        agg: AggSpec::avg("a3"),
    };
    // Comma and JOIN..ON spellings, and both condition orders, are one plan.
    for sql in [
        "SELECT AVG(R.a3) FROM R, S WHERE R.a2 = S.a1",
        "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1",
        "SELECT AVG(R.a3) FROM R INNER JOIN S ON S.a1 = R.a2",
    ] {
        assert_eq!(scalar(&db, sql), want, "{sql}");
    }
    // Aggregating the other table flips probe/build orientation.
    assert_eq!(
        scalar(&db, "SELECT MAX(S.a2) FROM R, S WHERE R.a2 = S.a1"),
        Query::JoinAgg {
            left: "S".into(),
            right: "R".into(),
            left_col: "a1".into(),
            right_col: "a2".into(),
            agg: AggSpec {
                kind: AggKind::Max,
                col: "a2".into(),
            },
        }
    );
    // COUNT(*) counts matches via the always-read probe key.
    assert_eq!(
        scalar(&db, "SELECT COUNT(*) FROM R, S WHERE R.a2 = S.a1"),
        Query::JoinAgg {
            left: "R".into(),
            right: "S".into(),
            left_col: "a2".into(),
            right_col: "a1".into(),
            agg: AggSpec {
                kind: AggKind::Count,
                col: "a2".into(),
            },
        }
    );
}

#[test]
fn point_ops_and_mutations_compile_to_their_native_forms() {
    let db = join_db(SystemId::C);
    assert_eq!(
        scalar(&db, "SELECT a3 FROM R WHERE a1 = 42"),
        Query::PointSelect {
            table: "R".into(),
            key_col: "a1".into(),
            key: 42,
            read_col: "a3".into(),
        }
    );
    assert_eq!(
        scalar(&db, "INSERT INTO S VALUES (600, 7, -1, 0, 0)"),
        Query::InsertRow {
            table: "S".into(),
            values: vec![600, 7, -1, 0, 0],
        }
    );
    assert_eq!(
        scalar(&db, "UPDATE R SET a3 = a3 + 5 WHERE a1 = 42"),
        Query::UpdateAdd {
            table: "R".into(),
            key_col: "a1".into(),
            key: 42,
            set_col: "a3".into(),
            delta: 5,
        }
    );
}

#[test]
fn grouped_statements_bind_to_the_grouped_entry_point() {
    let db = db(PageLayout::Nsm);
    match compile(
        &db,
        "SELECT a4, AVG(a3) FROM R WHERE a2 > 10 AND a2 < 200 GROUP BY a4",
    ) {
        Ok(BoundStatement::Grouped {
            table,
            group_col,
            predicate,
            agg,
        }) => {
            assert_eq!((table.as_str(), group_col.as_str()), ("R", "a4"));
            assert_eq!(
                predicate,
                Some(QueryPredicate::Range {
                    col: "a2".into(),
                    lo: 10,
                    hi: 200
                })
            );
            assert_eq!(agg, AggSpec::avg("a3"));
        }
        other => panic!("expected grouped statement, got {other:?}"),
    }
}

/// SQL answers must be bit-identical to hand-built answers whatever the
/// session's planner chooses, across exec modes and page layouts.
#[test]
fn session_answers_match_hand_built_queries_across_modes_and_layouts() {
    let sql = "SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 400";
    for layout in PageLayout::ALL {
        let hand = scalar(&db(layout), sql);
        for mode in [ExecMode::Row, ExecMode::Batch] {
            let mut direct = db(layout);
            direct.set_exec_mode(mode);
            let want = direct.run(&hand).unwrap();

            let mut sess = Session::open(db(layout));
            sess.db_mut().unwrap().set_exec_mode(mode);
            let got = sess.sql(sql).unwrap();
            assert_eq!(
                (got.rows, got.value),
                (want.rows, want.value),
                "{layout:?}/{mode:?}: SQL answer diverged from hand-built"
            );
        }
    }
}

/// Same contract over the shard router, at several shard counts.
#[test]
fn sharded_session_answers_match_hand_built_queries() {
    for sql in [
        "SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 400",
        "SELECT AVG(R.a3) FROM R, S WHERE R.a2 = S.a1",
    ] {
        let hand = scalar(&join_db(SystemId::C), sql);
        for n in [1usize, 2, 4] {
            let mut direct = join_db(SystemId::C).shard(n).unwrap();
            let want = direct.run(&hand).unwrap();

            let mut sess = Session::open_sharded(join_db(SystemId::C).shard(n).unwrap());
            let got = sess.sql(sql).unwrap();
            assert_eq!(
                (got.rows, got.value),
                (want.rows, want.value),
                "{n} shards: SQL answer diverged for {sql}"
            );
        }
    }
}

/// Grouped SQL — with no WHERE, a range, an expression, and `COUNT(*)` —
/// answers what a naive group-and-fold over the loaded rows does, through a
/// one-shard and a four-shard session and the grouped entry point alike.
#[test]
fn grouped_sql_matches_the_grouped_entry_point() {
    let rows = rows_for(600, 7);
    // (statement, rows kept, folded column: `None` counts rows)
    type Case = (&'static str, fn(&[i32]) -> bool, Option<usize>);
    let cases: [Case; 4] = [
        ("SELECT a4, SUM(a3) FROM R GROUP BY a4", |_| true, Some(2)),
        (
            "SELECT a4, SUM(a3) FROM R WHERE a2 >= 100 AND a3 <> 7 GROUP BY a4",
            |r| r[1] >= 100 && r[2] != 7,
            Some(2),
        ),
        ("SELECT a4, COUNT(*) FROM R GROUP BY a4", |_| true, None),
        (
            "SELECT a4, COUNT(*) FROM R WHERE a2 > 100 AND a2 < 400 GROUP BY a4",
            |r| r[1] > 100 && r[1] < 400,
            None,
        ),
    ];
    for (sql, keep, col) in cases {
        let mut oracle = std::collections::BTreeMap::<i32, i64>::new();
        for r in rows.iter().filter(|r| keep(r)) {
            *oracle.entry(r[3]).or_default() += col.map_or(1, |c| r[c] as i64);
        }
        let want: Vec<(i32, f64)> = oracle.into_iter().map(|(k, v)| (k, v as f64)).collect();
        assert!(!want.is_empty(), "{sql}");

        let mut direct = db(PageLayout::Nsm);
        let Ok(BoundStatement::Grouped {
            table,
            group_col,
            predicate,
            agg,
        }) = compile(&direct, sql)
        else {
            panic!("{sql}: expected a grouped statement");
        };
        let got = direct
            .run_grouped(&table, &group_col, predicate.as_ref(), &agg)
            .unwrap();
        assert_eq!(got, want, "{sql}: run_grouped");
        let mut one = Session::open(db(PageLayout::Nsm));
        assert_eq!(one.sql_grouped(sql).unwrap(), want, "{sql}: one shard");
        let mut four = Session::open_sharded(db(PageLayout::Nsm).shard(4).unwrap());
        assert_eq!(four.sql_grouped(sql).unwrap(), want, "{sql}: four shards");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary range bounds and aggregate functions: the SQL must compile
    /// to exactly the hand-built query, and both must return bit-identical
    /// answers in both exec modes.
    #[test]
    fn sql_equals_hand_built_for_random_ranges(
        lo in -100i32..600,
        span in 0i32..400,
        agg_i in 0usize..4,
        batch in 0usize..2,
    ) {
        let hi = lo.saturating_add(span);
        let (kind, name) = [
            (AggKind::Avg, "AVG"),
            (AggKind::Sum, "SUM"),
            (AggKind::Min, "MIN"),
            (AggKind::Max, "MAX"),
        ][agg_i];
        let sql = format!("SELECT {name}(a3) FROM R WHERE a2 > {lo} AND a2 < {hi}");
        let want_q = Query::SelectAgg {
            table: "R".into(),
            predicate: Some(QueryPredicate::Range { col: "a2".into(), lo, hi }),
            agg: AggSpec { kind, col: "a3".into() },
        };
        let mode = if batch == 1 { ExecMode::Batch } else { ExecMode::Row };

        let mut direct = db(PageLayout::Nsm);
        prop_assert_eq!(&scalar(&direct, &sql), &want_q, "{}", sql);
        direct.set_exec_mode(mode);
        let want = direct.run(&want_q).unwrap();

        let mut sess = Session::open(db(PageLayout::Nsm));
        sess.db_mut().unwrap().set_exec_mode(mode);
        let got = sess.sql(&sql).unwrap();
        prop_assert_eq!((got.rows, got.value), (want.rows, want.value), "{}", sql);
    }
}
