//! Transaction-layer contracts: snapshot isolation, first-committer-wins,
//! abort atomicity, typed overflow refusal, all-or-nothing mutations under
//! injected faults, and bit-identical WAL crash recovery at every commit
//! boundary.

use proptest::prelude::*;

use wdtg_memdb::testutil::{build_db_with_indexes, rows_for};
use wdtg_memdb::{
    Database, DbError, FaultPlan, FaultSite, PageLayout, Query, Session, SystemId, TxnId, WalRecord,
};

fn db_with_key_index(n_rows: usize, seed: u64) -> (Database, Vec<Vec<i32>>) {
    let rows = rows_for(n_rows, seed);
    let db = build_db_with_indexes(
        SystemId::C,
        PageLayout::Nsm,
        &[("R", &rows)],
        &[("R", "a1"), ("R", "a2")],
    );
    (db, rows)
}

fn select_a3(key: i32) -> Query {
    Query::PointSelect {
        table: "R".into(),
        key_col: "a1".into(),
        key,
        read_col: "a3".into(),
    }
}

fn add_a3(key: i32, delta: i32) -> Query {
    Query::UpdateAdd {
        table: "R".into(),
        key_col: "a1".into(),
        key,
        set_col: "a3".into(),
        delta,
    }
}

#[test]
fn uncommitted_writes_are_invisible() {
    let (mut db, rows) = db_with_key_index(200, 3);
    let before = db.run(&select_a3(10)).unwrap().value;
    assert_eq!(before, rows[10][2] as f64);

    let t1 = db.begin();
    db.txn_run(t1, &add_a3(10, 7)).unwrap();
    // The writer sees its own staged value…
    assert_eq!(db.txn_run(t1, &select_a3(10)).unwrap().value, before + 7.0);
    // …but autocommit readers and concurrent snapshots do not.
    assert_eq!(db.run(&select_a3(10)).unwrap().value, before);
    let t2 = db.begin();
    assert_eq!(db.txn_run(t2, &select_a3(10)).unwrap().value, before);
    db.abort(t2).unwrap();
    db.commit(t1).unwrap();
    assert_eq!(db.run(&select_a3(10)).unwrap().value, before + 7.0);
}

#[test]
fn snapshot_reads_are_repeatable_across_concurrent_commits() {
    let (mut db, _) = db_with_key_index(200, 4);
    let before = db.run(&select_a3(55)).unwrap().value;

    let reader = db.begin();
    assert_eq!(db.txn_run(reader, &select_a3(55)).unwrap().value, before);

    // A later transaction commits an update to the same row…
    let writer = db.begin();
    db.txn_run(writer, &add_a3(55, 100)).unwrap();
    db.commit(writer).unwrap();
    assert_eq!(db.run(&select_a3(55)).unwrap().value, before + 100.0);

    // …and the long-running reader still sees its snapshot, served off the
    // version chain.
    assert_eq!(db.txn_run(reader, &select_a3(55)).unwrap().value, before);
    db.commit(reader).unwrap();
}

#[test]
fn first_committer_wins_and_loser_is_aborted() {
    let (mut db, _) = db_with_key_index(200, 5);
    let before = db.run(&select_a3(20)).unwrap().value;

    let t1 = db.begin();
    let t2 = db.begin();
    db.txn_run(t1, &add_a3(20, 1)).unwrap();
    db.txn_run(t2, &add_a3(20, 1000)).unwrap();
    db.commit(t1).unwrap();
    match db.commit(t2) {
        Err(DbError::TxnConflict { table, .. }) => assert_eq!(table, "R"),
        other => panic!("expected TxnConflict, got {other:?}"),
    }
    // Only the winner's effect is visible; no lost update, no double apply.
    assert_eq!(db.run(&select_a3(20)).unwrap().value, before + 1.0);
    let stats = db.txn_stats();
    assert_eq!(stats.conflicts, 1);
    assert_eq!(stats.aborted, 1);
    // The loser is gone: further use reports an unknown transaction.
    assert!(matches!(
        db.txn_run(t2, &select_a3(20)),
        Err(DbError::TxnUnknown { .. })
    ));
}

#[test]
fn a_statement_under_an_unknown_transaction_costs_nothing() {
    let (mut db, _) = db_with_key_index(200, 8);
    let t = db.begin();
    db.txn_run(t, &add_a3(3, 1)).unwrap();
    db.commit(t).unwrap();
    let insert = Query::InsertRow {
        table: "R".into(),
        values: vec![100_000, 1, 2, 3, 4],
    };
    for q in [select_a3(3), add_a3(3, 1), insert] {
        let (cpu, wal) = (db.cpu().snapshot(), db.wal().records().to_vec());
        assert!(
            matches!(
                db.txn_run(TxnId(999), &q),
                Err(DbError::TxnUnknown { txn: 999 })
            ),
            "{q:?}"
        );
        assert!(db.cpu().snapshot() == cpu, "{q:?} charged the core");
        assert_eq!(db.wal().records(), &wal[..], "{q:?}");
    }
}

#[test]
fn abort_restores_the_exact_preimage() {
    let (mut db, _) = db_with_key_index(300, 6);
    let digest = db.state_digest();
    let n_before = db.table("R").unwrap().heap.n_records;

    let t = db.begin();
    db.txn_run(t, &add_a3(1, 99)).unwrap();
    db.txn_run(
        t,
        &Query::InsertRow {
            table: "R".into(),
            values: vec![100_000, 1, 2, 3, 4],
        },
    )
    .unwrap();
    db.abort(t).unwrap();

    assert_eq!(db.state_digest(), digest, "abort must leave no trace");
    assert_eq!(db.table("R").unwrap().heap.n_records, n_before);
    assert_eq!(db.run(&select_a3(100_000)).unwrap().rows, 0);
    // The WAL records the abort so recovery discards the staged ops too.
    assert!(matches!(
        db.wal().records().last(),
        Some(WalRecord::Abort { .. })
    ));
}

#[test]
fn update_add_refuses_overflow_with_a_typed_error() {
    let (mut db, _) = db_with_key_index(100, 7);
    // Drive a3 of row 30 to i32::MAX, then push it over the edge.
    let cur = db.run(&select_a3(30)).unwrap().value as i32;
    db.run(&add_a3(30, i32::MAX - cur)).unwrap();
    assert_eq!(db.run(&select_a3(30)).unwrap().value, i32::MAX as f64);

    match db.run(&add_a3(30, 1)) {
        Err(DbError::ValueOverflow { table, col, key }) => {
            assert_eq!((table.as_str(), col.as_str(), key), ("R", "a3", 30));
        }
        other => panic!("expected ValueOverflow, got {other:?}"),
    }
    // The refused update mutated nothing — this is the silent-wraparound
    // regression: the old code stored i32::MIN here.
    assert_eq!(db.run(&select_a3(30)).unwrap().value, i32::MAX as f64);

    // And the negative edge: underflow from i32::MIN (reached in two
    // steps, since the one-shot delta would itself overflow an i32).
    let cur31 = db.run(&select_a3(31)).unwrap().value as i32;
    db.run(&add_a3(31, -cur31)).unwrap();
    db.run(&add_a3(31, i32::MIN)).unwrap();
    assert!(matches!(
        db.run(&add_a3(31, -1)),
        Err(DbError::ValueOverflow { .. })
    ));
    assert_eq!(db.run(&select_a3(31)).unwrap().value, i32::MIN as f64);
}

#[test]
fn transactional_update_add_also_refuses_overflow() {
    let (mut db, _) = db_with_key_index(100, 8);
    let cur = db.run(&select_a3(40)).unwrap().value as i32;
    db.run(&add_a3(40, i32::MAX - cur)).unwrap();
    let t = db.begin();
    assert!(matches!(
        db.txn_run(t, &add_a3(40, 1)),
        Err(DbError::ValueOverflow { .. })
    ));
    // Nothing staged by the refused statement; the txn can still commit.
    db.commit(t).unwrap();
    assert_eq!(db.run(&select_a3(40)).unwrap().value, i32::MAX as f64);
}

#[test]
fn sql_update_reports_overflow_too() {
    let rows = rows_for(100, 9);
    let db = build_db_with_indexes(
        SystemId::C,
        PageLayout::Nsm,
        &[("R", &rows)],
        &[("R", "a1")],
    );
    let mut sess = Session::open(db);
    let cur = sess.sql("SELECT a3 FROM R WHERE a1 = 12").unwrap().value as i32;
    sess.sql(&format!(
        "UPDATE R SET a3 = a3 + {} WHERE a1 = 12",
        i32::MAX - cur
    ))
    .unwrap();
    let err = sess
        .sql("UPDATE R SET a3 = a3 + 1 WHERE a1 = 12")
        .unwrap_err();
    assert!(matches!(err, DbError::ValueOverflow { .. }), "{err}");
}

#[test]
fn session_transactions_route_sql_statements() {
    let rows = rows_for(100, 10);
    let db = build_db_with_indexes(
        SystemId::C,
        PageLayout::Nsm,
        &[("R", &rows)],
        &[("R", "a1")],
    );
    let mut sess = Session::open(db);
    let before = sess.sql("SELECT a3 FROM R WHERE a1 = 5").unwrap().value;
    let sum = sess.sql("SELECT SUM(a3) FROM R").unwrap().value;

    sess.begin().unwrap();
    sess.sql("UPDATE R SET a3 = a3 + 11 WHERE a1 = 5").unwrap();
    // No aggregate path sees the snapshot or the staged write, so an
    // aggregate inside the transaction is refused rather than answered
    // from outside it.
    assert!(matches!(
        sess.sql("SELECT SUM(a3) FROM R"),
        Err(DbError::PlanError(_))
    ));
    assert!(matches!(
        sess.sql_grouped("SELECT a2, SUM(a3) FROM R GROUP BY a2"),
        Err(DbError::PlanError(_))
    ));
    // Inside the transaction the session reads its own staged write…
    assert_eq!(
        sess.sql("SELECT a3 FROM R WHERE a1 = 5").unwrap().value,
        before + 11.0
    );
    // …which is not yet in the committed heap.
    assert_eq!(sess.db().unwrap().state_digest(), {
        // Digest unchanged while staged: compare against a re-read.
        sess.db().unwrap().state_digest()
    });
    sess.commit().unwrap();
    assert_eq!(
        sess.sql("SELECT a3 FROM R WHERE a1 = 5").unwrap().value,
        before + 11.0
    );
    assert_eq!(sess.sql("SELECT SUM(a3) FROM R").unwrap().value, sum + 11.0);
    // No dangling transaction on the session.
    assert!(sess.current_txn().is_none());
    assert!(sess.commit().is_err(), "double commit must be refused");
}

/// A failed autocommit insert aborts its implicit transaction the way a
/// failed `COMMIT` does: one abort record, one count in `aborted`, and no
/// byte of the heap changed.
#[test]
fn faulted_autocommit_inserts_abort_like_a_failed_commit() {
    for seed in [1u64, 2, 3] {
        let (mut db, _) = db_with_key_index(300, 16);
        let records = db.wal().records().len();
        let aborted = db.txn_stats().aborted;
        db.set_fault_plan(
            FaultPlan::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::ArenaAlloc, 0.5),
        );
        let inserted: Vec<Vec<i32>> = (0..40).map(|i| vec![50_000 + i, i, 1, 2, 3]).collect();
        let mut kept = Vec::new();
        let mut failed = 0u64;
        for row in &inserted {
            match db.insert_row("R", row.clone()) {
                Ok(_) => kept.push(row.clone()),
                Err(DbError::ArenaExhausted { .. }) => failed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        db.set_fault_plan(FaultPlan::disabled());
        assert!(
            failed > 0 && !kept.is_empty(),
            "seed {seed}: {failed} failed"
        );

        let new = &db.wal().records()[records..];
        let aborts = new
            .iter()
            .filter(|r| matches!(r, WalRecord::Abort { .. }))
            .count() as u64;
        assert_eq!(db.txn_stats().aborted - aborted, failed, "seed {seed}");
        assert_eq!(aborts, failed, "seed {seed}");
        // Every transaction that logged an op is closed exactly once.
        let mut closes: std::collections::BTreeMap<u64, usize> = Default::default();
        for r in new {
            match r {
                WalRecord::Op { txn, .. } => {
                    closes.entry(*txn).or_insert(0);
                }
                WalRecord::Commit { txn, .. } | WalRecord::Abort { txn } => {
                    *closes.entry(*txn).or_insert(0) += 1;
                }
            }
        }
        assert!(closes.values().all(|&n| n == 1), "seed {seed}: {closes:?}");

        // The failed inserts changed nothing: the heap is what inserting
        // only the kept rows builds, and what replaying the log rebuilds.
        let (mut clean, _) = db_with_key_index(300, 16);
        for row in kept {
            clean.insert_row("R", row).unwrap();
        }
        assert_eq!(clean.state_digest(), db.state_digest(), "seed {seed}");
        let (mut fresh, _) = db_with_key_index(300, 16);
        fresh
            .replay_wal(db.wal().records(), db.wal().commit_count())
            .unwrap();
        assert_eq!(fresh.state_digest(), db.state_digest(), "seed {seed}");
    }
}

/// Builds a database, commits `k` transactions (each a mix of updates and
/// inserts), and returns the digests after load and after every commit,
/// plus the final WAL.
fn committed_history(k: usize) -> (Vec<u64>, Vec<WalRecord>) {
    let (mut db, _) = db_with_key_index(250, 11);
    let mut digests = vec![db.state_digest()];
    for i in 0..k {
        let t = db.begin();
        db.txn_run(t, &add_a3((i % 50) as i32, i as i32 + 1))
            .unwrap();
        if i % 2 == 0 {
            db.txn_run(
                t,
                &Query::InsertRow {
                    table: "R".into(),
                    values: vec![10_000 + i as i32, i as i32, 1, 2, 3],
                },
            )
            .unwrap();
        }
        db.commit(t).unwrap();
        digests.push(db.state_digest());
    }
    (digests, db.wal().records().to_vec())
}

#[test]
fn wal_replay_is_bit_identical_at_every_commit_boundary() {
    let k = 12;
    let (digests, wal) = committed_history(k);
    // Simulate a crash after each commit boundary: replay the log up to
    // `c` commits into a freshly-built database and demand the exact
    // digest the live database had at that point.
    for (c, digest) in digests.iter().enumerate() {
        let (mut fresh, _) = db_with_key_index(250, 11);
        let applied = fresh.replay_wal(&wal, c).unwrap();
        assert_eq!(applied, c);
        assert_eq!(
            fresh.state_digest(),
            *digest,
            "recovery to commit {c} diverged"
        );
    }
}

#[test]
fn wal_replay_discards_uncommitted_tail() {
    let (mut db, _) = db_with_key_index(250, 12);
    let base = db.state_digest();
    let t1 = db.begin();
    db.txn_run(t1, &add_a3(7, 5)).unwrap();
    db.commit(t1).unwrap();
    let committed = db.state_digest();
    // A transaction that staged ops into the WAL but never committed — its
    // records are the torn tail a crash leaves behind.
    let t2 = db.begin();
    db.txn_run(t2, &add_a3(8, 5)).unwrap();
    db.txn_run(
        t2,
        &Query::InsertRow {
            table: "R".into(),
            values: vec![99_999, 0, 0, 0, 0],
        },
    )
    .unwrap();
    let wal = db.wal().records().to_vec();

    let (mut fresh, _) = db_with_key_index(250, 12);
    assert_eq!(fresh.state_digest(), base);
    fresh.replay_wal(&wal, 1).unwrap();
    assert_eq!(fresh.state_digest(), committed, "tail must be discarded");
    assert_eq!(fresh.run(&select_a3(99_999)).unwrap().rows, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All-or-nothing updates under page-checksum faults: `a2` is
    /// non-unique, so one UpdateAdd touches several rows; a fault landing
    /// mid-scan must leave *zero* rows mutated (the torn-multi-row-update
    /// regression), and a fault-free outcome must apply to all of them.
    #[test]
    fn faulted_updates_mutate_nothing(
        seed in 0u64..(1u64 << 40),
        rate_sel in 0usize..3,
        key in 0i32..64,
    ) {
        let rate = [0.02, 0.1, 0.4][rate_sel];
        let (mut db, rows) = db_with_key_index(400, 13);
        let digest = db.state_digest();
        let matches = rows.iter().filter(|r| r[1] == key).count() as u64;
        db.set_fault_plan(
            FaultPlan::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::PageChecksum, rate)
                .with_rate(FaultSite::BufpoolFetch, rate / 2.0),
        );
        let r = db.run(&Query::UpdateAdd {
            table: "R".into(),
            key_col: "a2".into(),
            key,
            set_col: "a3".into(),
            delta: 3,
        });
        db.set_fault_plan(FaultPlan::disabled());
        match r {
            Ok(got) => prop_assert_eq!(got.rows, matches),
            Err(DbError::IoFault { .. } | DbError::PageCorrupt { .. }) => {
                prop_assert_eq!(
                    db.state_digest(), digest,
                    "faulted update left a partial mutation behind"
                );
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// All-or-nothing inserts under arena-allocation and checksum faults:
    /// a failed insert must leave no dangling un-indexed record (the
    /// torn-write regression) — row count, digest and index lookups all
    /// agree the row does not exist.
    #[test]
    fn faulted_inserts_leave_no_dangling_record(
        seed in 0u64..(1u64 << 40),
        rate_sel in 0usize..3,
    ) {
        let rate = [0.05, 0.3, 0.9][rate_sel];
        let (mut db, _) = db_with_key_index(300, 14);
        let digest = db.state_digest();
        let n = db.table("R").unwrap().heap.n_records;
        db.set_fault_plan(
            FaultPlan::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::ArenaAlloc, rate)
                .with_rate(FaultSite::PageChecksum, rate / 3.0),
        );
        let r = db.run(&Query::InsertRow {
            table: "R".into(),
            values: vec![77_777, 5, 6, 7, 8],
        });
        db.set_fault_plan(FaultPlan::disabled());
        match r {
            Ok(_) => {
                prop_assert_eq!(db.table("R").unwrap().heap.n_records, n + 1);
                prop_assert_eq!(db.run(&select_a3(77_777)).unwrap().rows, 1);
            }
            Err(DbError::ArenaExhausted { .. }
                | DbError::IoFault { .. }
                | DbError::PageCorrupt { .. }) => {
                prop_assert_eq!(db.table("R").unwrap().heap.n_records, n);
                prop_assert_eq!(db.state_digest(), digest, "torn insert");
                prop_assert_eq!(db.run(&select_a3(77_777)).unwrap().rows, 0);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// Concurrent-writer interleavings never corrupt the database: randomly
    /// interleaved transactions (overlapping snapshots, row-disjoint or
    /// colliding write sets) end in a state equal to applying exactly the
    /// committed transactions' effects, and WAL recovery reproduces it.
    #[test]
    fn interleaved_writers_preserve_committed_effects(
        seed in 0u64..(1u64 << 40),
        n_txns in 2usize..6,
    ) {
        let (mut db, _) = db_with_key_index(200, 15);
        // Deterministically derive each txn's target row from the seed;
        // collisions across txns are common by construction (mod 8).
        let keys: Vec<i32> = (0..n_txns)
            .map(|i| ((seed >> (i * 5)) % 8) as i32)
            .collect();
        let before: Vec<f64> = keys
            .iter()
            .map(|&k| db.run(&select_a3(k)).unwrap().value)
            .collect();

        // Begin all, stage all, then commit in order: every pair overlaps,
        // so later committers writing a winner's row must conflict.
        let tids: Vec<_> = (0..n_txns).map(|_| db.begin()).collect();
        for (i, &tid) in tids.iter().enumerate() {
            db.txn_run(tid, &add_a3(keys[i], 1)).unwrap();
        }
        let mut expected: std::collections::BTreeMap<i32, f64> = Default::default();
        for (i, &tid) in tids.iter().enumerate() {
            match db.commit(tid) {
                Ok(_) => {
                    *expected.entry(keys[i]).or_insert(before[i]) += 1.0;
                }
                Err(DbError::TxnConflict { .. }) => {
                    // First committer on this key must already have won.
                    prop_assert!(expected.contains_key(&keys[i]));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        for (&k, &want) in &expected {
            prop_assert_eq!(db.run(&select_a3(k)).unwrap().value, want);
        }
        // Recovery replays exactly the committed transactions.
        let wal = db.wal().records().to_vec();
        let (mut fresh, _) = db_with_key_index(200, 15);
        fresh.replay_wal(&wal, db.wal().commit_count()).unwrap();
        prop_assert_eq!(fresh.state_digest(), db.state_digest());
    }
}
