//! The paper's microbenchmark: relations R and S plus the three queries
//! (sequential range selection, indexed range selection, sequential join).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_memdb::{Database, DbResult, PageLayout, Query, Schema, ShardedDatabase};

use crate::scale::Scale;

/// Deterministic seed used for all dataset generation unless overridden.
pub const DEFAULT_SEED: u64 = 0x5744_5447; // "WDTG"

/// The three microbenchmark queries of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroQuery {
    /// Sequential range selection (SRS).
    SequentialRangeSelection,
    /// Indexed range selection (IRS) — same query with an index on `a2`.
    IndexedRangeSelection,
    /// Sequential join (SJ).
    SequentialJoin,
}

impl MicroQuery {
    /// Paper's abbreviations.
    pub fn label(self) -> &'static str {
        match self {
            MicroQuery::SequentialRangeSelection => "SRS",
            MicroQuery::IndexedRangeSelection => "IRS",
            MicroQuery::SequentialJoin => "SJ",
        }
    }

    /// All three, in paper order.
    pub const ALL: [MicroQuery; 3] = [
        MicroQuery::SequentialRangeSelection,
        MicroQuery::IndexedRangeSelection,
        MicroQuery::SequentialJoin,
    ];
}

/// A selectivity-sweep specification: the x-axis of a T_B experiment.
///
/// The paper's Fig 5.4 samples {0, 1, 5, 10, 50, 100}% — dense at the low
/// end where the DSS queries live. A *branch-stall* sweep needs the
/// interior instead: misprediction probability on the qualify branch peaks
/// where the direction is least predictable, near 50%, so the branch sweep
/// samples 1% → 99% with extra points around the middle.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Selectivities to measure, ascending, each in `[0.0, 1.0]`.
    pub selectivities: Vec<f64>,
}

impl SweepSpec {
    /// The branch-stall sweep: 1% → 99%, dense around the 50% misprediction
    /// peak (`bench branch`, `SelectivityComparison`).
    pub fn branch_sweep() -> SweepSpec {
        SweepSpec {
            selectivities: vec![0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99],
        }
    }

    /// A shorter interior sweep for CI-sized assertions: keeps the ±10-point
    /// band around 50% resolvable at a fraction of the measurement count.
    pub fn branch_sweep_coarse() -> SweepSpec {
        SweepSpec {
            selectivities: vec![0.01, 0.25, 0.4, 0.5, 0.6, 0.75, 0.99],
        }
    }
}

/// Generates R's rows: `a1` sequential unique, `a2` uniform over the domain
/// (1..=|S|), `a3` uniform values to aggregate, the rest filler (§3.3:
/// "`<rest of fields>` stands for a list of integers that is not used by any
/// of the queries").
pub fn r_rows(scale: Scale, seed: u64) -> impl Iterator<Item = Vec<i32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ncols = (scale.record_bytes / 4) as usize;
    let domain = scale.a2_domain();
    (0..scale.r_records).map(move |i| {
        let mut row = vec![0i32; ncols];
        row[0] = i as i32;
        row[1] = rng.random_range(1..=domain);
        row[2] = rng.random_range(0..10_000);
        for c in row.iter_mut().skip(3) {
            *c = rng.random_range(0..1_000_000);
        }
        row
    })
}

/// Generates S's rows: `a1` is the primary key 1..=|S| (every R row joins
/// with exactly the rows sharing its `a2` value — ~30 on average).
pub fn s_rows(scale: Scale, seed: u64) -> impl Iterator<Item = Vec<i32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5353_5353);
    let ncols = (scale.record_bytes / 4) as usize;
    (0..scale.s_records).map(move |i| {
        let mut row = vec![0i32; ncols];
        row[0] = i as i32 + 1;
        for c in row.iter_mut().skip(1) {
            *c = rng.random_range(0..1_000_000);
        }
        row
    })
}

/// Loads R (and S) into `db` at the given scale, uninstrumented, in
/// `layout` pages (the layout knob the NSM-vs-PAX comparisons turn).
pub fn load_microbench(
    db: &mut Database,
    scale: Scale,
    with_s: bool,
    layout: PageLayout,
) -> DbResult<()> {
    let schema = Schema::paper_relation(scale.record_bytes);
    db.create_table_with_layout("R", schema.clone(), layout)?;
    db.load_rows("R", r_rows(scale, DEFAULT_SEED))?;
    if with_s {
        db.create_table_with_layout("S", schema, layout)?;
        db.load_rows("S", s_rows(scale, DEFAULT_SEED))?;
    }
    Ok(())
}

/// Builds the paper query at the requested selectivity.
/// For [`MicroQuery::IndexedRangeSelection`], the caller must have created
/// the index on `R.a2` (see [`prepare`]).
pub fn query(scale: Scale, q: MicroQuery, selectivity: f64) -> Query {
    match q {
        MicroQuery::SequentialRangeSelection | MicroQuery::IndexedRangeSelection => {
            let (lo, hi) = scale.selectivity_range(selectivity);
            Query::range_select_avg("R", lo, hi)
        }
        MicroQuery::SequentialJoin => Query::join_avg("R", "S"),
    }
}

/// The paper query at the requested selectivity as SQL text — the form the
/// [`wdtg_memdb::sql`] frontend takes. Compiling the returned string against
/// a prepared database yields exactly [`query`]'s hand-built plan (the
/// golden contract `sql_matches_hand_built_queries` pins), so benches can
/// state their workloads in SQL without changing a single measured cycle.
pub fn query_sql(scale: Scale, q: MicroQuery, selectivity: f64) -> String {
    match q {
        MicroQuery::SequentialRangeSelection | MicroQuery::IndexedRangeSelection => {
            let (lo, hi) = scale.selectivity_range(selectivity);
            format!("SELECT AVG(a3) FROM R WHERE a2 > {lo} AND a2 < {hi}")
        }
        MicroQuery::SequentialJoin => "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1".into(),
    }
}

/// Prepares a database for one microbenchmark query: loads R (and S for the
/// join) in `layout` pages and creates the `a2` index for the indexed
/// selection.
pub fn prepare(db: &mut Database, scale: Scale, q: MicroQuery, layout: PageLayout) -> DbResult<()> {
    load_microbench(db, scale, q == MicroQuery::SequentialJoin, layout)?;
    if q == MicroQuery::IndexedRangeSelection {
        db.create_index("R", "a2")?;
    }
    Ok(())
}

/// Declares the microbenchmark's shard keys: R on `a2` — the column every
/// §3.3 query selects or joins on — and S on its `a1` primary key. Because
/// the join is `R.a2 = S.a1`, sharding both sides on their join column with
/// the same hash co-partitions them: matching rows land on the same shard
/// and each shard's join is local ([`wdtg_memdb::Database::shard`]).
pub fn declare_shard_keys(db: &mut Database) -> DbResult<()> {
    db.set_shard_key("R", "a2")?;
    if db.table("S").is_ok() {
        db.set_shard_key("S", "a1")?;
    }
    Ok(())
}

/// [`prepare`] split across `shards` hash-partitioned cores:
/// loads the microbenchmark into `db`, declares the co-partitioning keys
/// ([`declare_shard_keys`]) and re-partitions via
/// [`wdtg_memdb::Database::shard`]. `shards = 1` produces a trivially
/// sharded database with single-core behaviour.
pub fn prepare_sharded_with_layout(
    mut db: Database,
    scale: Scale,
    q: MicroQuery,
    layout: PageLayout,
    shards: usize,
) -> DbResult<ShardedDatabase> {
    prepare(&mut db, scale, q, layout)?;
    declare_shard_keys(&mut db)?;
    db.shard(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdtg_memdb::{EngineProfile, SystemId};
    use wdtg_sim::{CpuConfig, InterruptCfg};

    fn tiny_db() -> Database {
        Database::new(
            EngineProfile::system(SystemId::B),
            CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
        )
    }

    #[test]
    fn selectivity_is_hit_within_tolerance() {
        let scale = Scale::tiny();
        let mut db = tiny_db();
        prepare(
            &mut db,
            scale,
            MicroQuery::SequentialRangeSelection,
            PageLayout::Nsm,
        )
        .unwrap();
        for sel in [0.01, 0.1, 0.5] {
            let q = query(scale, MicroQuery::SequentialRangeSelection, sel);
            let res = db.run(&q).unwrap();
            let got = res.rows as f64 / scale.r_records as f64;
            assert!(
                (got - sel).abs() < 0.02,
                "target {sel}, got {got} ({} rows)",
                res.rows
            );
        }
    }

    #[test]
    fn join_fanout_matches_paper_shape() {
        let scale = Scale::tiny();
        let mut db = tiny_db();
        prepare(&mut db, scale, MicroQuery::SequentialJoin, PageLayout::Nsm).unwrap();
        let res = db
            .run(&query(scale, MicroQuery::SequentialJoin, 0.1))
            .unwrap();
        // Every R row joins exactly once with S's primary key.
        assert_eq!(res.rows, scale.r_records);
    }

    #[test]
    fn pax_layout_gives_identical_answers() {
        let scale = Scale::tiny();
        for q in MicroQuery::ALL {
            let mut nsm = tiny_db();
            prepare(&mut nsm, scale, q, PageLayout::Nsm).unwrap();
            let mut pax = tiny_db();
            prepare(&mut pax, scale, q, PageLayout::Pax).unwrap();
            let query = query(scale, q, 0.1);
            let a = nsm.run(&query).unwrap();
            let b = pax.run(&query).unwrap();
            assert_eq!(a.rows, b.rows, "{q:?}: row counts differ across layouts");
            assert!(
                (a.value - b.value).abs() < 1e-9,
                "{q:?}: values differ across layouts"
            );
        }
    }

    #[test]
    fn sharded_prepare_answers_match_single_core() {
        let scale = Scale::tiny();
        for q in MicroQuery::ALL {
            let mut whole = tiny_db();
            prepare(&mut whole, scale, q, PageLayout::Nsm).unwrap();
            let query = query(scale, q, 0.1);
            let expect = whole.run(&query).unwrap();
            for shards in [1usize, 4] {
                let mut sharded =
                    prepare_sharded_with_layout(tiny_db(), scale, q, PageLayout::Nsm, shards)
                        .unwrap();
                let got = sharded.run(&query).unwrap();
                assert_eq!(expect.rows, got.rows, "{q:?} x{shards}: rows diverged");
                assert_eq!(
                    expect.value, got.value,
                    "{q:?} x{shards}: value must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn sql_matches_hand_built_queries() {
        let scale = Scale::tiny();
        for q in MicroQuery::ALL {
            let mut db = tiny_db();
            prepare(&mut db, scale, q, PageLayout::Nsm).unwrap();
            for sel in [0.01, 0.1, 0.5] {
                let sql = query_sql(scale, q, sel);
                let compiled = match wdtg_memdb::sql::compile(&db, &sql).expect(&sql) {
                    wdtg_memdb::sql::BoundStatement::Scalar(c) => c,
                    other => panic!("{sql}: expected scalar, got {other:?}"),
                };
                assert_eq!(compiled, query(scale, q, sel), "{q:?} sel={sel}: {sql}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let scale = Scale::tiny();
        let a: Vec<Vec<i32>> = r_rows(scale, 42).take(10).collect();
        let b: Vec<Vec<i32>> = r_rows(scale, 42).take(10).collect();
        assert_eq!(a, b);
        let c: Vec<Vec<i32>> = r_rows(scale, 43).take(10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn a2_stays_in_domain() {
        let scale = Scale::tiny();
        for row in r_rows(scale, DEFAULT_SEED).take(2000) {
            assert!(row[1] >= 1 && row[1] <= scale.a2_domain());
        }
    }
}
