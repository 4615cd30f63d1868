//! TPC-C-like OLTP workload (§5.5).
//!
//! The paper runs "a 10-user, 1-warehouse TPC-C workload" and reports a very
//! different profile from DSS: CPI of 2.5–4.5, 60–80% of time in memory
//! stalls dominated by L2 data *and* instruction misses, and higher resource
//! stalls. This module provides a single-warehouse schema, the five
//! transaction types in their standard mix, and a deterministic 10-client
//! driver issuing a single interleaved command stream (the paper's setup is
//! also one command stream — no concurrency control is exercised).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_memdb::{Database, DbResult, Query, Schema};

use crate::scale::{resolve_scale_name, scale_from_env};

/// Scale knobs for the OLTP database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccScale {
    /// Items (and stock rows).
    pub items: u64,
    /// Customers per district (10 districts).
    pub customers_per_district: u64,
}

impl TpccScale {
    /// Near-standard single-warehouse sizing.
    pub fn paper() -> TpccScale {
        TpccScale {
            items: 100_000,
            customers_per_district: 3_000,
        }
    }

    /// Default experiment scale: the data working set (stock + customers +
    /// growing orders) is several MB — far beyond the 512 KB L2, so random
    /// point accesses miss like the paper's TPC-C does.
    pub fn dev() -> TpccScale {
        TpccScale {
            items: 40_000,
            customers_per_district: 1_000,
        }
    }

    /// Test scale.
    pub fn tiny() -> TpccScale {
        TpccScale {
            items: 1_000,
            customers_per_district: 50,
        }
    }

    /// Resolves a scale name: `None` (variable unset) means [`TpccScale::dev`];
    /// `"paper"`, `"dev"` and `"tiny"` name their scales; anything else is
    /// reported as an error rather than silently mapped to a default — a
    /// typo like `WDTG_SCALE=papr` used to run the dev scale and publish its
    /// numbers as paper-scale results.
    pub fn from_name(name: Option<&str>) -> Result<TpccScale, String> {
        resolve_scale_name(
            name,
            [TpccScale::paper(), TpccScale::dev(), TpccScale::tiny()],
        )
    }

    /// Reads `WDTG_SCALE` (`paper`/`dev`/`tiny`; unset means `dev`).
    ///
    /// # Panics
    /// Panics on an unrecognized value instead of silently falling back to
    /// `dev` — see [`TpccScale::from_name`].
    pub fn from_env() -> TpccScale {
        scale_from_env(TpccScale::from_name)
    }

    fn customers(&self) -> u64 {
        self.customers_per_district * 10
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TxnKind {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

fn small_schema(key_cols: &[&str], filler_to: usize) -> Schema {
    let mut names: Vec<String> = key_cols.iter().map(|s| s.to_string()).collect();
    for i in names.len()..filler_to {
        names.push(format!("f{i}"));
    }
    Schema::new(names)
}

/// Loads the single-warehouse database and its indexes (uninstrumented).
pub fn load(db: &mut Database, scale: TpccScale, seed: u64) -> DbResult<()> {
    let mut rng = StdRng::seed_from_u64(seed);

    // warehouse(w_id, w_ytd, ...) — 1 row.
    db.create_table("warehouse", small_schema(&["w_id", "w_ytd"], 10))?;
    db.load_rows(
        "warehouse",
        std::iter::once({
            let mut r = vec![0i32; 10];
            r[0] = 1;
            r
        }),
    )?;
    db.create_index("warehouse", "w_id")?;

    // district(d_id, d_next_o_id, d_ytd, ...) — 10 rows.
    db.create_table(
        "district",
        small_schema(&["d_id", "d_next_o_id", "d_ytd"], 15),
    )?;
    db.load_rows(
        "district",
        (0..10).map(|d| {
            let mut r = vec![0i32; 15];
            r[0] = d + 1;
            r[1] = 1;
            r
        }),
    )?;
    db.create_index("district", "d_id")?;

    // customer(c_id, c_d_id, c_balance, c_ytd, c_cnt, ...) — 100-byte rows.
    db.create_table(
        "customer",
        small_schema(&["c_id", "c_d_id", "c_balance", "c_ytd", "c_cnt"], 25),
    )?;
    let cpd = scale.customers_per_district;
    db.load_rows(
        "customer",
        (0..scale.customers()).map(|c| {
            let mut r = vec![0i32; 25];
            r[0] = c as i32 + 1;
            r[1] = (c / cpd) as i32 + 1;
            r[2] = rng.random_range(-500..5_000);
            r
        }),
    )?;
    db.create_index("customer", "c_id")?;

    // item(i_id, i_price, ...).
    db.create_table("item", small_schema(&["i_id", "i_price"], 15))?;
    db.load_rows(
        "item",
        (0..scale.items).map(|i| {
            let mut r = vec![0i32; 15];
            r[0] = i as i32 + 1;
            r[1] = rng.random_range(100..10_000);
            r
        }),
    )?;
    db.create_index("item", "i_id")?;

    // stock(s_i_id, s_quantity, s_ytd, s_cnt, ...) — 100-byte rows.
    db.create_table(
        "stock",
        small_schema(&["s_i_id", "s_quantity", "s_ytd", "s_cnt"], 25),
    )?;
    db.load_rows(
        "stock",
        (0..scale.items).map(|i| {
            let mut r = vec![0i32; 25];
            r[0] = i as i32 + 1;
            r[1] = rng.random_range(10..100);
            r
        }),
    )?;
    db.create_index("stock", "s_i_id")?;

    // orders(o_id, o_c_id, o_d_id, o_ol_cnt, ...) — grows at run time.
    db.create_table(
        "orders",
        small_schema(&["o_id", "o_c_id", "o_d_id", "o_ol_cnt"], 15),
    )?;
    db.create_index("orders", "o_id")?;

    // order_line(ol_key, ol_o_id, ol_i_id, ol_qty, ...) — grows at run time.
    db.create_table(
        "order_line",
        small_schema(&["ol_key", "ol_o_id", "ol_i_id", "ol_qty"], 15),
    )?;
    db.create_index("order_line", "ol_o_id")?;

    // history(h_key, h_c_id, h_amount, ...) — insert-only.
    db.create_table(
        "history",
        small_schema(&["h_key", "h_c_id", "h_amount"], 15),
    )?;
    Ok(())
}

/// Deterministic 10-client transaction driver.
#[derive(Debug)]
pub struct TpccDriver {
    scale: TpccScale,
    rng: StdRng,
    next_order_id: i64,
    next_ol_key: i64,
    next_history_key: i64,
    txns_run: u64,
}

impl TpccDriver {
    /// Creates a driver for a database loaded with [`load`].
    pub fn new(scale: TpccScale, seed: u64) -> TpccDriver {
        TpccDriver {
            scale,
            rng: StdRng::seed_from_u64(seed ^ 0x7070),
            next_order_id: 1,
            next_ol_key: 1,
            next_history_key: 1,
            txns_run: 0,
        }
    }

    /// Total transactions executed.
    pub fn txns_run(&self) -> u64 {
        self.txns_run
    }

    /// Picks the next transaction type per the standard mix
    /// (45/43/4/4/4 — NewOrder/Payment/OrderStatus/Delivery/StockLevel).
    fn pick(&mut self) -> TxnKind {
        match self.rng.random_range(0..100) {
            0..=44 => TxnKind::NewOrder,
            45..=87 => TxnKind::Payment,
            88..=91 => TxnKind::OrderStatus,
            92..=95 => TxnKind::Delivery,
            _ => TxnKind::StockLevel,
        }
    }

    /// Runs `n` transactions (10 logical clients interleaved round-robin in
    /// one command stream). Returns per-kind counts
    /// `[new_order, payment, order_status, delivery, stock_level]`.
    pub fn run(&mut self, db: &mut Database, n: u64) -> DbResult<[u64; 5]> {
        let mut counts = [0u64; 5];
        for _ in 0..n {
            let kind = self.pick();
            self.run_one(db, kind)?;
            counts[match kind {
                TxnKind::NewOrder => 0,
                TxnKind::Payment => 1,
                TxnKind::OrderStatus => 2,
                TxnKind::Delivery => 3,
                TxnKind::StockLevel => 4,
            }] += 1;
            self.txns_run += 1;
        }
        Ok(counts)
    }

    /// Runs one transaction of the given kind.
    pub fn run_one(&mut self, db: &mut Database, kind: TxnKind) -> DbResult<()> {
        db.txn_overhead();
        // Each of the 10 clients drags its session working memory (sort
        // area, private SQL area, network buffers) through the caches.
        db.session_touch((self.txns_run % 10) as u32, 72 * 1024);
        let customers = self.scale.customers() as i32;
        let items = self.scale.items as i32;
        match kind {
            TxnKind::NewOrder => {
                let c_id = self.rng.random_range(1..=customers);
                let d_id = self.rng.random_range(1..=10);
                db.run(&Query::PointSelect {
                    table: "customer".into(),
                    key_col: "c_id".into(),
                    key: c_id,
                    read_col: "c_balance".into(),
                })?;
                db.run(&Query::UpdateAdd {
                    table: "district".into(),
                    key_col: "d_id".into(),
                    key: d_id,
                    set_col: "d_next_o_id".into(),
                    delta: 1,
                })?;
                let o_id = self.next_order_id as i32;
                self.next_order_id += 1;
                let ol_cnt = self.rng.random_range(5..=15);
                let mut order = vec![0i32; 15];
                order[0] = o_id;
                order[1] = c_id;
                order[2] = d_id;
                order[3] = ol_cnt;
                db.run(&Query::InsertRow {
                    table: "orders".into(),
                    values: order,
                })?;
                for _ in 0..ol_cnt {
                    let i_id = self.rng.random_range(1..=items);
                    db.run(&Query::PointSelect {
                        table: "item".into(),
                        key_col: "i_id".into(),
                        key: i_id,
                        read_col: "i_price".into(),
                    })?;
                    db.run(&Query::UpdateAdd {
                        table: "stock".into(),
                        key_col: "s_i_id".into(),
                        key: i_id,
                        set_col: "s_quantity".into(),
                        delta: -1,
                    })?;
                    let mut ol = vec![0i32; 15];
                    ol[0] = self.next_ol_key as i32;
                    self.next_ol_key += 1;
                    ol[1] = o_id;
                    ol[2] = i_id;
                    ol[3] = self.rng.random_range(1..=10);
                    db.run(&Query::InsertRow {
                        table: "order_line".into(),
                        values: ol,
                    })?;
                }
            }
            TxnKind::Payment => {
                let c_id = self.rng.random_range(1..=customers);
                let d_id = self.rng.random_range(1..=10);
                let amount = self.rng.random_range(100..5_000);
                db.run(&Query::UpdateAdd {
                    table: "warehouse".into(),
                    key_col: "w_id".into(),
                    key: 1,
                    set_col: "w_ytd".into(),
                    delta: amount,
                })?;
                db.run(&Query::UpdateAdd {
                    table: "district".into(),
                    key_col: "d_id".into(),
                    key: d_id,
                    set_col: "d_ytd".into(),
                    delta: amount,
                })?;
                db.run(&Query::UpdateAdd {
                    table: "customer".into(),
                    key_col: "c_id".into(),
                    key: c_id,
                    set_col: "c_balance".into(),
                    delta: -amount,
                })?;
                let mut h = vec![0i32; 15];
                h[0] = self.next_history_key as i32;
                self.next_history_key += 1;
                h[1] = c_id;
                h[2] = amount;
                db.run(&Query::InsertRow {
                    table: "history".into(),
                    values: h,
                })?;
            }
            TxnKind::OrderStatus => {
                let c_id = self.rng.random_range(1..=customers);
                db.run(&Query::PointSelect {
                    table: "customer".into(),
                    key_col: "c_id".into(),
                    key: c_id,
                    read_col: "c_balance".into(),
                })?;
                if self.next_order_id > 1 {
                    let o_id = self.rng.random_range(1..self.next_order_id) as i32;
                    db.run(&Query::PointSelect {
                        table: "orders".into(),
                        key_col: "o_id".into(),
                        key: o_id,
                        read_col: "o_ol_cnt".into(),
                    })?;
                    db.run(&Query::PointSelect {
                        table: "order_line".into(),
                        key_col: "ol_o_id".into(),
                        key: o_id,
                        read_col: "ol_qty".into(),
                    })?;
                }
            }
            TxnKind::Delivery => {
                // Deliver one order per district: read it, credit the
                // customer's balance.
                for _ in 0..10 {
                    if self.next_order_id <= 1 {
                        break;
                    }
                    let o_id = self.rng.random_range(1..self.next_order_id) as i32;
                    let got = db.run(&Query::PointSelect {
                        table: "orders".into(),
                        key_col: "o_id".into(),
                        key: o_id,
                        read_col: "o_c_id".into(),
                    })?;
                    if got.rows > 0 {
                        db.run(&Query::UpdateAdd {
                            table: "customer".into(),
                            key_col: "c_id".into(),
                            key: got.value as i32,
                            set_col: "c_balance".into(),
                            delta: 10,
                        })?;
                    }
                }
            }
            TxnKind::StockLevel => {
                let d_id = self.rng.random_range(1..=10);
                db.run(&Query::PointSelect {
                    table: "district".into(),
                    key_col: "d_id".into(),
                    key: d_id,
                    read_col: "d_next_o_id".into(),
                })?;
                for _ in 0..20 {
                    let i_id = self.rng.random_range(1..=items);
                    db.run(&Query::PointSelect {
                        table: "stock".into(),
                        key_col: "s_i_id".into(),
                        key: i_id,
                        read_col: "s_quantity".into(),
                    })?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdtg_memdb::{EngineProfile, SystemId};
    use wdtg_sim::{CpuConfig, InterruptCfg};

    fn db() -> Database {
        Database::new(
            EngineProfile::system(SystemId::C),
            CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
        )
    }

    #[test]
    fn load_and_run_mix() {
        let mut db = db();
        let scale = TpccScale::tiny();
        load(&mut db, scale, 1).unwrap();
        let mut driver = TpccDriver::new(scale, 1);
        let counts = driver.run(&mut db, 200).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 200);
        // Mix roughly 45/43/4/4/4.
        assert!(
            counts[0] > 60 && counts[1] > 60,
            "NewOrder/Payment dominate: {counts:?}"
        );
        assert!(counts[2] < 30 && counts[3] < 30 && counts[4] < 30);
    }

    #[test]
    fn new_order_inserts_are_readable() {
        let mut db = db();
        let scale = TpccScale::tiny();
        load(&mut db, scale, 2).unwrap();
        let mut driver = TpccDriver::new(scale, 2);
        driver.run_one(&mut db, TxnKind::NewOrder).unwrap();
        let got = db
            .run(&Query::PointSelect {
                table: "orders".into(),
                key_col: "o_id".into(),
                key: 1,
                read_col: "o_ol_cnt".into(),
            })
            .unwrap();
        assert_eq!(got.rows, 1);
        assert!(got.value >= 5.0 && got.value <= 15.0);
    }

    #[test]
    fn payment_updates_balance() {
        let mut db = db();
        let scale = TpccScale::tiny();
        load(&mut db, scale, 3).unwrap();
        let before: f64 = db
            .run(&Query::PointSelect {
                table: "warehouse".into(),
                key_col: "w_id".into(),
                key: 1,
                read_col: "w_ytd".into(),
            })
            .unwrap()
            .value;
        let mut driver = TpccDriver::new(scale, 3);
        driver.run_one(&mut db, TxnKind::Payment).unwrap();
        let after: f64 = db
            .run(&Query::PointSelect {
                table: "warehouse".into(),
                key_col: "w_id".into(),
                key: 1,
                read_col: "w_ytd".into(),
            })
            .unwrap()
            .value;
        assert!(after > before, "payment must add to w_ytd");
    }

    #[test]
    fn scale_names_resolve_and_typos_are_refused() {
        // All four branches of the resolver: unset, the three valid names,
        // and the regression case — a typo must NOT silently become dev.
        assert_eq!(TpccScale::from_name(None).unwrap(), TpccScale::dev());
        assert_eq!(
            TpccScale::from_name(Some("paper")).unwrap(),
            TpccScale::paper()
        );
        assert_eq!(TpccScale::from_name(Some("dev")).unwrap(), TpccScale::dev());
        assert_eq!(
            TpccScale::from_name(Some("tiny")).unwrap(),
            TpccScale::tiny()
        );
        let err = TpccScale::from_name(Some("papr")).unwrap_err();
        assert!(err.contains("papr") && err.contains("paper"), "{err}");
    }

    #[test]
    fn driver_is_deterministic() {
        let run = |seed| {
            let mut db = db();
            let scale = TpccScale::tiny();
            load(&mut db, scale, seed).unwrap();
            let mut driver = TpccDriver::new(scale, seed);
            driver.run(&mut db, 100).unwrap();
            db.cpu().cycles()
        };
        assert_eq!(run(5), run(5));
    }
}
