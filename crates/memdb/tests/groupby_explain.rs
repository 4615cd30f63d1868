//! Grouped aggregation and plan explanation.

use wdtg_memdb::sql::BoundStatement;
use wdtg_memdb::testutil::quiet;
use wdtg_memdb::{
    AggKind, AggSpec, Database, EngineProfile, Query, QueryPredicate, Schema, SystemId,
};

fn cell(i: u64, c: usize) -> i32 {
    let x = i.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(c as u64);
    ((x >> 33) as i32).rem_euclid(1000)
}

fn load(db: &mut Database, rows: u64) {
    db.create_table("T", Schema::paper_relation(40)).unwrap();
    db.load_rows(
        "T",
        (0..rows).map(|i| {
            let mut r: Vec<i32> = (0..10).map(|c| cell(i, c)).collect();
            r[1] = (i % 7) as i32; // group key: 7 groups
            r
        }),
    )
    .unwrap();
}

#[test]
fn grouped_avg_matches_oracle() {
    const N: u64 = 3_000;
    let mut db = Database::new(EngineProfile::system(SystemId::C), quiet());
    load(&mut db, N);
    let got = db
        .run_grouped("T", "a2", None, &AggSpec::avg("a3"))
        .unwrap();
    assert_eq!(got.len(), 7, "seven groups");
    // Oracle.
    for (key, value) in &got {
        let members: Vec<i64> = (0..N)
            .filter(|i| (*i % 7) as i32 == *key)
            .map(|i| cell(i, 2) as i64)
            .collect();
        let want = members.iter().sum::<i64>() as f64 / members.len() as f64;
        assert!((value - want).abs() < 1e-9, "group {key}");
    }
    // Keys ascend.
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn grouped_with_range_predicate_and_counts() {
    const N: u64 = 2_000;
    let mut db = Database::new(EngineProfile::system(SystemId::A), quiet());
    load(&mut db, N);
    let pred = QueryPredicate::Range {
        col: "a3".into(),
        lo: 100,
        hi: 600,
    };
    let got = db
        .run_grouped(
            "T",
            "a2",
            Some(&pred),
            &AggSpec {
                kind: AggKind::Count,
                col: "a3".into(),
            },
        )
        .unwrap();
    let total: f64 = got.iter().map(|(_, v)| v).sum();
    let want = (0..N)
        .filter(|i| {
            let v = cell(*i, 2);
            v > 100 && v < 600
        })
        .count() as f64;
    assert_eq!(total, want, "group counts partition the filtered rows");
}

#[test]
fn grouped_aggregation_is_instrumented() {
    const N: u64 = 1_000;
    let mut db = Database::new(EngineProfile::system(SystemId::D), quiet());
    load(&mut db, N);
    let before = db.cpu().snapshot();
    db.run_grouped("T", "a2", None, &AggSpec::sum("a3"))
        .unwrap();
    let delta = db.cpu().snapshot().delta(&before);
    assert!(delta.cycles > 0.0);
    assert!(
        delta.counters.total(wdtg_sim::Event::InstRetired) > N,
        "per-row aggregation work must be charged"
    );
}

#[test]
fn explain_reflects_engine_strategy() {
    let mut a = Database::new(EngineProfile::system(SystemId::A), quiet());
    let mut d = Database::new(EngineProfile::system(SystemId::D), quiet());
    load(&mut a, 10);
    load(&mut d, 10);
    a.create_index("T", "a2").unwrap();
    d.create_index("T", "a2").unwrap();

    let range = QueryPredicate::Range {
        col: "a2".into(),
        lo: 1,
        hi: 5,
    };
    let scalar = BoundStatement::Scalar(Query::SelectAgg {
        table: "T".into(),
        predicate: Some(range.clone()),
        agg: AggSpec::avg("a3"),
    });
    let grouped = BoundStatement::Grouped {
        table: "T".into(),
        group_col: "a2".into(),
        predicate: Some(range.clone()),
        agg: AggSpec::avg("a3"),
    };
    // A ignores the index; D uses it — grouped or not, under the same head.
    for (stmt, head) in [
        (&scalar, "Agg[Avg(a3)]\n"),
        (&grouped, "GroupBy[a2: Avg(a3)]\n"),
    ] {
        let ea = a.explain(stmt).unwrap();
        let ed = d.explain(stmt).unwrap();
        assert!(
            ea.starts_with(head) && ea.contains("SeqScan") && !ea.contains("IndexRangeScan"),
            "System A must scan: {ea}"
        );
        assert!(
            ed.starts_with(head) && ed.contains("\n  IndexRangeScan"),
            "System D must use the index: {ed}"
        );
    }
    // D's grouped plan really runs on the index, and answers as A's scan does.
    let want = a
        .run_grouped("T", "a2", Some(&range), &AggSpec::avg("a3"))
        .unwrap();
    assert!(!want.is_empty());
    assert_eq!(
        d.run_grouped("T", "a2", Some(&range), &AggSpec::avg("a3"))
            .unwrap(),
        want
    );

    let j = BoundStatement::Scalar(Query::join_avg("T", "T"));
    assert!(a.explain(&j).unwrap().contains("HashJoin"));

    let p = BoundStatement::Scalar(Query::PointSelect {
        table: "T".into(),
        key_col: "a2".into(),
        key: 3,
        read_col: "a3".into(),
    });
    assert!(d.explain(&p).unwrap().contains("B+tree"));
    let nope = BoundStatement::Scalar(Query::range_select_avg("NOPE", 0, 1));
    assert!(a.explain(&nope).is_err());
}
