//! The engine's one entry gate and one shard router, pinned from outside:
//!
//! * every public execution entry crosses the same gate — a pending
//!   cancellation is honored before *any* work, on every entry alike;
//! * the router's two schedulers differ in exactly one way — what happens
//!   to the shards after a failed one.

use wdtg_memdb::testutil::{build_db_with_indexes, rows_for};
use wdtg_memdb::{
    AggSpec, Database, DbError, DbResult, FaultPlan, FaultSite, PageLayout, ParallelConfig, Query,
    QueryPredicate, QueryResult, RobustnessStats, RouterStats, ShardedDatabase, SystemId, TxnId,
};
use wdtg_sim::Snapshot;

/// 1 200 rows of R, indexed on the unique `a1` (the point-operation key).
fn base_db() -> Database {
    let rows = rows_for(1_200, 11);
    build_db_with_indexes(
        SystemId::C,
        PageLayout::Nsm,
        &[("R", &rows)],
        &[("R", "a1")],
    )
}

fn scan() -> Query {
    Query::SelectAgg {
        table: "R".into(),
        predicate: Some(QueryPredicate::Range {
            col: "a2".into(),
            lo: 100,
            hi: 400,
        }),
        agg: AggSpec::avg("a3"),
    }
}

fn four_workers() -> ParallelConfig {
    ParallelConfig::default().with_workers(4)
}

/// A single-core database with an open transaction, and a 4-shard one.
struct Fixture {
    single: Database,
    tid: TxnId,
    sharded: ShardedDatabase,
}

impl Fixture {
    /// Every simulated core's full counter state, every heap's digest and
    /// the single database's WAL length.
    fn observe(&self) -> (Vec<Snapshot>, Vec<u64>, usize) {
        let mut cores = vec![self.single.cpu().snapshot()];
        cores.extend(self.sharded.snapshots());
        let mut digests = vec![self.single.state_digest()];
        digests.extend(self.sharded.shards().iter().map(|s| s.state_digest()));
        (cores, digests, self.single.wal().records().len())
    }
}

type ScalarEntry = fn(&mut Fixture, &Query) -> DbResult<QueryResult>;
type GroupedEntry = fn(&mut Fixture, &AggSpec) -> DbResult<Vec<(i32, f64)>>;

#[test]
fn every_entry_honors_a_pending_cancel_before_any_work() {
    let mut single = base_db();
    let tid = single.begin();
    let mut fx = Fixture {
        single,
        tid,
        sharded: base_db().shard(4).unwrap(),
    };
    let scalar: [(&str, ScalarEntry); 4] = [
        ("Database::run", |fx, q| fx.single.run(q)),
        ("Database::txn_run", |fx, q| fx.single.txn_run(fx.tid, q)),
        ("ShardedDatabase::run", |fx, q| fx.sharded.run(q)),
        ("ShardedDatabase::run_parallel", |fx, q| {
            fx.sharded.run_parallel(q, &four_workers())
        }),
    ];
    let grouped: [(&str, GroupedEntry); 3] = [
        ("Database::run_grouped", |fx, agg| {
            fx.single.run_grouped("R", "a4", None, agg)
        }),
        ("ShardedDatabase::run_grouped", |fx, agg| {
            fx.sharded.run_grouped("R", "a4", None, agg)
        }),
        ("ShardedDatabase::run_grouped_parallel", |fx, agg| {
            fx.sharded
                .run_grouped_parallel("R", "a4", None, agg, &four_workers())
        }),
    ];

    // A read, a broadcast mutation and a routed mutation through each
    // scalar entry (`txn_run` would refuse the scan with a `PlanError` —
    // after the gate, so the cancel still wins).
    let queries = [
        scan(),
        Query::UpdateAdd {
            table: "R".into(),
            key_col: "a1".into(),
            key: 137,
            set_col: "a3".into(),
            delta: 5,
        },
        Query::InsertRow {
            table: "R".into(),
            values: vec![9_001, 1, 2, 3, 0],
        },
    ];

    fx.single.cancel_token().cancel();
    fx.sharded.cancel_token().cancel();
    let before = fx.observe();
    for (name, entry) in scalar {
        for q in &queries {
            assert_eq!(entry(&mut fx, q), Err(DbError::Cancelled), "{name}: {q:?}");
            assert!(fx.observe() == before, "{name} did work on {q:?}");
        }
    }
    for (name, entry) in grouped {
        assert_eq!(
            entry(&mut fx, &AggSpec::avg("a3")),
            Err(DbError::Cancelled),
            "{name}"
        );
        assert!(fx.observe() == before, "{name} did work");
    }

    // Nothing was staged in the open transaction either: once the token
    // clears, committing it changes no byte.
    fx.single.cancel_token().clear();
    fx.single.commit(fx.tid).unwrap();
    assert_eq!(
        fx.observe().1,
        before.1,
        "a cancelled txn_run staged a write"
    );
}

/// What one shard's retry loop must have counted, given how many
/// `ShardExec` faults it drew (the only armed site): three hits exhaust
/// the attempts, fewer recover.
fn router_stats_for(shards: &[RobustnessStats]) -> RouterStats {
    let mut total = RouterStats::default();
    for s in shards {
        let hits = s.shard_exec_faults;
        total.absorb(&if hits >= 3 {
            RouterStats {
                retries: 2,
                recovered: 0,
                failed: 1,
            }
        } else {
            RouterStats {
                retries: hits,
                recovered: (hits > 0) as u64,
                failed: 0,
            }
        });
    }
    total
}

/// One run of the failing query: its result, every shard's core before and
/// after, every shard's fault counters, and the router's own counters.
struct Outcome {
    result: DbResult<QueryResult>,
    before: Vec<Snapshot>,
    after: Vec<Snapshot>,
    faults: Vec<RobustnessStats>,
    router: RouterStats,
}

#[test]
fn schedulers_differ_only_in_what_follows_a_failed_shard() {
    let q = scan();
    let build = |seed: u64| {
        let mut db = base_db().shard(4).unwrap();
        db.set_fault_plan(
            FaultPlan::disabled()
                .with_rate(FaultSite::ShardExec, 0.5)
                .with_seed(seed),
        );
        db
    };
    // The first seed under which an *interior* shard k exhausts its
    // retries, so there are shards on both sides of it.
    let (seed, k) = (0..512u64)
        .find_map(|seed| match build(seed).run(&q) {
            Err(DbError::ShardFailed { shard, .. }) if shard == 1 || shard == 2 => {
                Some((seed, shard))
            }
            _ => None,
        })
        .expect("some seed fails an interior shard");

    // One whole-table morsel per shard, so the pool's per-shard stream is
    // the sequential router's.
    let whole = ParallelConfig::default().with_morsel_rows(u32::MAX);
    let outcome = |workers: Option<usize>| {
        let mut db = build(seed);
        let before = db.snapshots();
        let result = match workers {
            None => db.run(&q),
            Some(w) => db.run_parallel(&q, &whole.with_workers(w)),
        };
        Outcome {
            result,
            before,
            after: db.snapshots(),
            faults: db.shards().iter().map(|s| s.robustness_stats()).collect(),
            router: db.router_stats(),
        }
    };
    let seq = outcome(None);
    let one = outcome(Some(1));
    let four = outcome(Some(4));

    // Same typed error from all three.
    assert!(
        matches!(&seq.result, Err(DbError::ShardFailed { shard, attempts: 3, .. }) if *shard == k),
        "{:?}",
        seq.result
    );
    assert_eq!(seq.result, one.result);
    assert_eq!(seq.result, four.result);

    // Shards <= k: identical cores, fault draws and router counters.
    for par in [&one, &four] {
        assert!(
            seq.after[..=k] == par.after[..=k],
            "cores of shards <= {k} diverged"
        );
        assert_eq!(seq.faults[..=k], par.faults[..=k]);
    }
    assert_eq!(seq.router, router_stats_for(&seq.faults[..=k]));
    assert_eq!(seq.router.failed, 1);

    // Shards > k: the sequential router never touched them; the pool ran
    // every one, identically at 1 and 4 workers.
    assert!(
        seq.after[k + 1..] == seq.before[k + 1..],
        "run() went past shard {k}"
    );
    assert!(seq.faults[k + 1..]
        .iter()
        .all(|s| *s == RobustnessStats::default()));
    for par in [&one, &four] {
        for i in k + 1..4 {
            assert!(
                par.after[i] != par.before[i],
                "run_parallel skipped shard {i} after shard {k} failed"
            );
        }
        assert_eq!(par.router, router_stats_for(&par.faults));
    }
    assert!(one.after == four.after, "worker count moved a counter");
    assert_eq!(one.router, four.router);
}
