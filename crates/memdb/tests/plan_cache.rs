//! `Session`'s plan cache is invalidated by what changes a plan's inputs —
//! a bulk load, a new index — and by nothing else.

use wdtg_memdb::prelude::*;
use wdtg_memdb::{EngineProfile, Schema, SystemId};
use wdtg_sim::{CpuConfig, InterruptCfg};

const JOIN: &str = "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1";
const SCAN: &str = "SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 300";

fn mix(i: usize) -> i32 {
    ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as i32
}

fn s_rows(range: std::ops::Range<usize>) -> impl Iterator<Item = Vec<i32>> {
    range.map(|i| vec![i as i32, mix(i) % 4096, 0, 0, 0])
}

/// A 4 096-row probe table R joined to a 128-row build table S, on a
/// 32 KB L2 so the partitioned-join crossover sits at test-friendly sizes
/// (the `tests/planner_selftune.rs` scenario).
fn session() -> Session {
    let cfg = CpuConfig::pentium_ii_xeon()
        .with_interrupts(InterruptCfg::disabled())
        .with_l2_size(32 * 1024);
    let mut db = Database::new(EngineProfile::system(SystemId::A), cfg);
    db.ctx.instrument = false;
    db.create_table("R", Schema::paper_relation(20)).unwrap();
    db.create_table("S", Schema::paper_relation(20)).unwrap();
    db.load_rows(
        "R",
        (0..4096).map(|i| vec![i as i32, mix(i) % 4096, mix(i) % 10_007, 0, 0]),
    )
    .unwrap();
    db.load_rows("S", s_rows(0..128)).unwrap();
    db.ctx.instrument = true;
    Session::open(db)
}

/// Runs the join after planning an unrelated statement, and reports
/// whether the join was planned again (cache hits leave `last_plan` on the
/// unrelated statement).
fn join_replans(sess: &mut Session) -> bool {
    sess.sql(SCAN).unwrap();
    sess.explain(SCAN).unwrap();
    sess.sql(JOIN).unwrap();
    sess.last_plan().unwrap().sql == JOIN
}

fn applied_join_algo(sess: &Session) -> JoinAlgo {
    sess.db().unwrap().profile().join_algo
}

#[test]
fn cached_join_choice_is_replanned_after_bulk_changes_only() {
    let mut sess = session();
    sess.sql(JOIN).unwrap();
    assert_eq!(sess.last_plan().unwrap().sql, JOIN);
    assert_eq!(applied_join_algo(&sess), JoinAlgo::Hash);
    assert!(!join_replans(&mut sess), "a repeat must hit the cache");

    // Single-row SQL inserts move no crossover and keep the cache.
    for i in 0..8 {
        sess.sql(&format!("INSERT INTO S VALUES ({}, 7, 0, 0, 0)", 5_000 + i))
            .unwrap();
    }
    assert!(!join_replans(&mut sess), "INSERTs must not drop the cache");
    assert_eq!(applied_join_algo(&sess), JoinAlgo::Hash);

    // Growing the build side past L2 must cost the join afresh — and the
    // fresh costing lands on the other side of the crossover.
    let db = sess.db_mut().unwrap();
    db.ctx.instrument = false;
    db.load_rows("S", s_rows(128..4096)).unwrap();
    db.ctx.instrument = true;
    assert!(join_replans(&mut sess), "load_rows must drop the cache");
    assert_eq!(applied_join_algo(&sess), JoinAlgo::PartitionedHash);
    assert!(!join_replans(&mut sess));

    // So must a new index (it adds a candidate the old plan never saw).
    sess.db_mut().unwrap().create_index("S", "a1").unwrap();
    assert!(join_replans(&mut sess), "create_index must drop the cache");
    assert!(!join_replans(&mut sess));
}
