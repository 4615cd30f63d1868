//! TPC-D-like decision-support suite (§5.5).
//!
//! The paper runs "the 17 TPC-D selection queries and a 100-MB database"
//! against systems A, B and D and finds the execution-time breakdown
//! substantially similar to the sequential range selection's. This module
//! provides a lineitem/orders-style database and 17 selection-flavoured
//! queries of varying predicate complexity: range selections, multi-clause
//! expression predicates, arithmetic in predicates, full-table aggregates
//! and three joins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_memdb::{AggKind, AggSpec, Database, DbResult, Expr, Query, QueryPredicate, Schema};

use crate::scale::{resolve_scale_name, scale_from_env};

/// Scale of the DSS database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcdScale {
    /// Rows in `lineitem`.
    pub lineitems: u64,
    /// Rows in `orders` (≈ lineitems / 4).
    pub orders: u64,
}

impl TpcdScale {
    /// ≈100 MB of 100-byte records, like the paper's TPC-D database.
    pub fn paper() -> TpcdScale {
        TpcdScale {
            lineitems: 800_000,
            orders: 200_000,
        }
    }

    /// Default experiment scale (seconds per suite run).
    pub fn dev() -> TpcdScale {
        TpcdScale {
            lineitems: 80_000,
            orders: 20_000,
        }
    }

    /// Test scale.
    pub fn tiny() -> TpcdScale {
        TpcdScale {
            lineitems: 8_000,
            orders: 2_000,
        }
    }

    /// Resolves a scale name like [`crate::Scale::from_name`].
    pub fn from_name(name: Option<&str>) -> Result<TpcdScale, String> {
        resolve_scale_name(
            name,
            [TpcdScale::paper(), TpcdScale::dev(), TpcdScale::tiny()],
        )
    }

    /// Reads `WDTG_SCALE` like [`crate::Scale::from_env`], panicking on an
    /// unrecognized value.
    pub fn from_env() -> TpcdScale {
        scale_from_env(TpcdScale::from_name)
    }
}

/// lineitem schema: named columns plus filler to 100 bytes (25 ints).
pub fn lineitem_schema() -> Schema {
    let mut names: Vec<String> = [
        "l_orderkey",
        "l_partkey",
        "l_suppkey",
        "l_linenumber",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_returnflag",
        "l_linestatus",
        "l_shipdate",
        "l_commitdate",
        "l_receiptdate",
        "l_shipmode",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for i in names.len()..25 {
        names.push(format!("l_f{i}"));
    }
    Schema::new(names)
}

/// orders schema: named columns plus filler to 100 bytes.
pub fn orders_schema() -> Schema {
    let mut names: Vec<String> = [
        "o_orderkey",
        "o_custkey",
        "o_orderstatus",
        "o_totalprice",
        "o_orderdate",
        "o_orderpriority",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for i in names.len()..25 {
        names.push(format!("o_f{i}"));
    }
    Schema::new(names)
}

/// Loads the DSS database (uninstrumented).
pub fn load(db: &mut Database, scale: TpcdScale, seed: u64) -> DbResult<()> {
    db.create_table("lineitem", lineitem_schema())?;
    db.create_table("orders", orders_schema())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let norders = scale.orders.max(1);
    db.load_rows(
        "lineitem",
        (0..scale.lineitems).map(|i| {
            let mut row = vec![0i32; 25];
            row[0] = (i / 4) as i32 % norders as i32 + 1; // orderkey
            row[1] = rng.random_range(1..=200_000); // partkey
            row[2] = rng.random_range(1..=10_000); // suppkey
            row[3] = (i % 4) as i32 + 1; // linenumber
            row[4] = rng.random_range(1..=50); // quantity
            row[5] = rng.random_range(100..100_000); // extendedprice (cents)
            row[6] = rng.random_range(0..=10); // discount (%)
            row[7] = rng.random_range(0..=8); // tax (%)
            row[8] = rng.random_range(0..3); // returnflag
            row[9] = rng.random_range(0..2); // linestatus
            row[10] = rng.random_range(0..2556); // shipdate (day)
            row[11] = row[10] + rng.random_range(0..90); // commitdate
            row[12] = row[10] + rng.random_range(1..30); // receiptdate
            row[13] = rng.random_range(0..7); // shipmode
            for c in row.iter_mut().skip(14) {
                *c = rng.random_range(0..1_000_000);
            }
            row
        }),
    )?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd5);
    db.load_rows(
        "orders",
        (0..norders).map(|i| {
            let mut row = vec![0i32; 25];
            row[0] = i as i32 + 1;
            row[1] = rng.random_range(1..=30_000);
            row[2] = rng.random_range(0..3);
            row[3] = rng.random_range(1_000..500_000);
            row[4] = rng.random_range(0..2556);
            row[5] = rng.random_range(0..5);
            for c in row.iter_mut().skip(6) {
                *c = rng.random_range(0..1_000_000);
            }
            row
        }),
    )?;
    Ok(())
}

fn li(pred: Option<QueryPredicate>, agg: AggSpec) -> Query {
    Query::SelectAgg {
        table: "lineitem".into(),
        predicate: pred,
        agg,
    }
}

fn range(col: &str, lo: i32, hi: i32) -> Option<QueryPredicate> {
    Some(QueryPredicate::Range {
        col: col.into(),
        lo,
        hi,
    })
}

fn expr(e: Expr) -> Option<QueryPredicate> {
    Some(QueryPredicate::Expr(e))
}

/// The 17 queries (labels Q1..Q17). Column indexes used in expressions refer
/// to the lineitem schema above.
pub fn queries() -> Vec<(String, Query)> {
    // Column indexes for expression predicates.
    const QTY: usize = 4;
    const PRICE: usize = 5;
    const DISC: usize = 6;
    const TAX: usize = 7;
    const RFLAG: usize = 8;
    const LSTATUS: usize = 9;
    const SHIP: usize = 10;
    const COMMIT: usize = 11;
    const RECEIPT: usize = 12;
    const MODE: usize = 13;

    let qs: Vec<Query> = vec![
        // Q1: pricing summary — full scan, aggregate.
        li(
            range("l_shipdate", -1, 2400),
            AggSpec::sum("l_extendedprice"),
        ),
        // Q2: small shipdate window.
        li(
            range("l_shipdate", 1000, 1090),
            AggSpec::avg("l_extendedprice"),
        ),
        // Q3: quantity band.
        li(range("l_quantity", 10, 20), AggSpec::avg("l_extendedprice")),
        // Q4: commit vs receipt lateness (expression).
        li(
            expr(Expr::col(COMMIT).lt(Expr::col(RECEIPT))),
            AggSpec {
                kind: AggKind::Count,
                col: String::new(),
            },
        ),
        // Q5: discount window + quantity cap (the TPC-D Q6 shape).
        li(
            expr(
                Expr::col(DISC)
                    .ge(Expr::lit(2))
                    .and(Expr::col(DISC).le(Expr::lit(4)))
                    .and(Expr::col(QTY).lt(Expr::lit(24)))
                    .and(Expr::col(SHIP).ge(Expr::lit(365)))
                    .and(Expr::col(SHIP).lt(Expr::lit(730))),
            ),
            AggSpec::sum("l_extendedprice"),
        ),
        // Q6: returned items.
        li(
            expr(Expr::col(RFLAG).eq(Expr::lit(2))),
            AggSpec::sum("l_quantity"),
        ),
        // Q7: shipmode in {5,6} and late commit.
        li(
            expr(
                Expr::col(MODE)
                    .ge(Expr::lit(5))
                    .and(Expr::col(COMMIT).lt(Expr::col(RECEIPT)))
                    .and(Expr::col(SHIP).lt(Expr::col(COMMIT))),
            ),
            AggSpec::count(),
        ),
        // Q8: revenue expression predicate — price * (10 - discount), the
        // "extendedprice * (1 - discount)" arithmetic of the original.
        li(
            expr(
                Expr::col(PRICE)
                    .mul(Expr::lit(10).sub(Expr::col(DISC)))
                    .gt(Expr::lit(500_000)),
            ),
            AggSpec::avg("l_discount"),
        ),
        // Q9: open line status in a date window.
        li(
            expr(
                Expr::col(LSTATUS)
                    .eq(Expr::lit(0))
                    .and(Expr::col(SHIP).ge(Expr::lit(1500)))
                    .and(Expr::col(SHIP).lt(Expr::lit(2000))),
            ),
            AggSpec::avg("l_quantity"),
        ),
        // Q10: tax band or high discount.
        li(
            expr(
                Expr::col(TAX)
                    .ge(Expr::lit(6))
                    .or(Expr::col(DISC).ge(Expr::lit(9))),
            ),
            AggSpec::avg("l_extendedprice"),
        ),
        // Q11: full-table max.
        li(
            None,
            AggSpec {
                kind: AggKind::Max,
                col: "l_extendedprice".into(),
            },
        ),
        // Q12: full-table count.
        li(None, AggSpec::count()),
        // Q13: partkey hot range.
        li(
            range("l_partkey", 1_000, 21_000),
            AggSpec::avg("l_quantity"),
        ),
        // Q14: suppkey range with quantity filter.
        li(
            expr(
                Expr::col(2)
                    .lt(Expr::lit(2_000))
                    .and(Expr::col(QTY).ge(Expr::lit(25))),
            ),
            AggSpec::sum("l_quantity"),
        ),
        // Q15-Q17: joins with orders.
        Query::JoinAgg {
            left: "lineitem".into(),
            right: "orders".into(),
            left_col: "l_orderkey".into(),
            right_col: "o_orderkey".into(),
            agg: AggSpec::avg("l_extendedprice"),
        },
        Query::JoinAgg {
            left: "lineitem".into(),
            right: "orders".into(),
            left_col: "l_orderkey".into(),
            right_col: "o_orderkey".into(),
            agg: AggSpec::sum("l_quantity"),
        },
        Query::JoinAgg {
            left: "lineitem".into(),
            right: "orders".into(),
            left_col: "l_orderkey".into(),
            right_col: "o_orderkey".into(),
            agg: AggSpec::avg("l_discount"),
        },
    ];
    qs.into_iter()
        .enumerate()
        .map(|(i, q)| (format!("Q{}", i + 1), q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdtg_memdb::{EngineProfile, SystemId};
    use wdtg_sim::{CpuConfig, InterruptCfg};

    #[test]
    fn seventeen_queries() {
        let qs = queries();
        assert_eq!(qs.len(), 17, "the paper runs the 17 TPC-D queries");
        assert_eq!(qs[0].0, "Q1");
        assert_eq!(qs[16].0, "Q17");
    }

    #[test]
    fn suite_runs_and_returns_plausible_counts() {
        let mut db = Database::new(
            EngineProfile::system(SystemId::B),
            CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
        );
        let scale = TpcdScale::tiny();
        load(&mut db, scale, 7).unwrap();
        let mut nonzero = 0;
        for (label, q) in queries() {
            let res = db.run(&q).unwrap_or_else(|e| panic!("{label}: {e}"));
            if res.rows > 0 {
                nonzero += 1;
            }
            assert!(res.rows <= scale.lineitems, "{label} rows {0}", res.rows);
        }
        assert!(
            nonzero >= 15,
            "almost all queries select something: {nonzero}"
        );
    }

    #[test]
    fn join_queries_match_fanout() {
        let mut db = Database::new(
            EngineProfile::system(SystemId::A),
            CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
        );
        let scale = TpcdScale::tiny();
        load(&mut db, scale, 7).unwrap();
        let (_, q15) = &queries()[14];
        let res = db.run(q15).unwrap();
        // Every lineitem row has a matching order.
        assert_eq!(res.rows, scale.lineitems);
    }
}
