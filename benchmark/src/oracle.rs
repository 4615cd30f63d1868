//! The independent oracle: every expected answer is computed here, naively,
//! from the rows the benchmark generated — never by asking the engine.
//! Row counts must match exactly and values to 1e-9 relative.

use std::collections::{BTreeMap, HashMap};

use wdtg_memdb::{AggKind, QueryResult};

pub type Row = Vec<i32>;

/// An expected scalar answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    pub rows: u64,
    pub value: f64,
}

/// Exact accumulator behind every aggregate kind.
#[derive(Debug, Clone, Copy)]
struct Acc {
    sum: i64,
    count: u64,
    min: i32,
    max: i32,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            sum: 0,
            count: 0,
            min: i32::MAX,
            max: i32::MIN,
        }
    }

    fn add(&mut self, v: i32, times: u64) {
        self.sum += v as i64 * times as i64;
        self.count += times;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Avg if self.count == 0 => 0.0,
            AggKind::Avg => self.sum as f64 / self.count as f64,
            AggKind::Sum => self.sum as f64,
            AggKind::Count => self.count as f64,
            AggKind::Min => self.min as f64,
            AggKind::Max => self.max as f64,
        }
    }

    fn expect(&self, kind: AggKind) -> Expect {
        Expect {
            rows: self.count,
            value: self.value(kind),
        }
    }
}

/// `SELECT kind(col) FROM rows WHERE keep(row)`.
pub fn agg(rows: &[Row], keep: impl Fn(&Row) -> bool, kind: AggKind, col: usize) -> Expect {
    let mut acc = Acc::new();
    for r in rows.iter().filter(|r| keep(r)) {
        acc.add(r[col], 1);
    }
    acc.expect(kind)
}

/// `SELECT group_col, kind(col) FROM rows WHERE keep(row) GROUP BY group_col`,
/// ascending by key.
pub fn group_agg(
    rows: &[Row],
    keep: impl Fn(&Row) -> bool,
    group_col: usize,
    kind: AggKind,
    col: usize,
) -> Vec<(i32, f64)> {
    let mut groups: BTreeMap<i32, Acc> = BTreeMap::new();
    for r in rows.iter().filter(|r| keep(r)) {
        groups
            .entry(r[group_col])
            .or_insert_with(Acc::new)
            .add(r[col], 1);
    }
    groups
        .into_iter()
        .map(|(k, acc)| (k, acc.value(kind)))
        .collect()
}

/// `SELECT kind(left.col) FROM left, right WHERE left.lcol = right.rcol`:
/// counts each right key, then weighs every left row by its match count.
pub fn join_agg(
    left: &[Row],
    lcol: usize,
    right: &[Row],
    rcol: usize,
    kind: AggKind,
    col: usize,
) -> Expect {
    let mut matches: HashMap<i32, u64> = HashMap::new();
    for r in right {
        *matches.entry(r[rcol]).or_default() += 1;
    }
    let mut acc = Acc::new();
    for l in left {
        if let Some(&n) = matches.get(&l[lcol]) {
            acc.add(l[col], n);
        }
    }
    acc.expect(kind)
}

pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

pub fn scalar_ok(got: &QueryResult, want: &Expect) -> bool {
    got.rows == want.rows && close(got.value, want.value)
}

pub fn groups_ok(got: &[(i32, f64)], want: &[(i32, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && close(g.1, w.1))
}

/// Shadow of the OLTP database: `a3` by `a1` key (keys are `0..n`), plus
/// the history table's row count. The driver applies to it exactly what it
/// commits to the engine, so reads inside transactions (read-your-writes),
/// the long reader's snapshot and the final `SUM(a3)` all have an expected
/// value that never came from the engine.
#[derive(Debug, Clone)]
pub struct OltpModel {
    a3: Vec<i64>,
    pub h_rows: u64,
    /// While a long reader is open: the first eight keys written since it
    /// began, with the value its snapshot must still see.
    reader: Option<Vec<(i32, i64)>>,
}

/// Keys a long reader checks when it closes.
pub const READER_KEYS: usize = 8;

impl OltpModel {
    pub fn new(r: &[Row]) -> OltpModel {
        OltpModel {
            a3: r.iter().map(|row| row[2] as i64).collect(),
            h_rows: 0,
            reader: None,
        }
    }

    pub fn get(&self, key: i32) -> i64 {
        self.a3[key as usize]
    }

    /// A committed `UPDATE R SET a3 = a3 + delta WHERE a1 = key`.
    pub fn add(&mut self, key: i32, delta: i32) {
        let old = self.a3[key as usize];
        if let Some(seen) = &mut self.reader {
            if seen.len() < READER_KEYS && seen.iter().all(|(k, _)| *k != key) {
                seen.push((key, old));
            }
        }
        self.a3[key as usize] = old + delta as i64;
    }

    pub fn open_reader(&mut self) {
        self.reader = Some(Vec::with_capacity(READER_KEYS));
    }

    /// Ends the long reader, returning what each key it watched must read as.
    pub fn close_reader(&mut self) -> Vec<(i32, i64)> {
        self.reader.take().unwrap_or_default()
    }

    pub fn sum(&self) -> Expect {
        Expect {
            rows: self.a3.len() as u64,
            value: self.a3.iter().sum::<i64>() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use wdtg_memdb::Session;

    fn tables() -> data::Tables {
        data::generate(
            7,
            data::Sizes {
                r: 3_000,
                s: 100,
                t: 400,
            },
        )
    }

    #[test]
    fn naive_operators_agree_with_hand_counts() {
        let rows: Vec<Row> = vec![vec![0, 1, 10], vec![1, 2, 20], vec![2, 2, 60]];
        let e = agg(&rows, |r| r[1] > 1 && r[1] < 3, AggKind::Avg, 2);
        assert_eq!((e.rows, e.value), (2, 40.0));
        assert_eq!(agg(&rows, |_| true, AggKind::Count, 0).value, 3.0);
        assert_eq!(
            group_agg(&rows, |_| true, 1, AggKind::Sum, 2),
            vec![(1, 10.0), (2, 80.0)]
        );
        let right: Vec<Row> = vec![vec![2], vec![2], vec![9]];
        let j = join_agg(&rows, 1, &right, 0, AggKind::Max, 2);
        assert_eq!((j.rows, j.value), (4, 60.0));
    }

    #[test]
    fn a_single_corrupted_row_is_caught() {
        let t = tables();
        let want_avg = agg(&t.r, |r| r[1] > 10 && r[1] < 60, AggKind::Avg, 2);
        let want_join = join_agg(&t.r, 1, &t.s, 0, AggKind::Sum, 2);
        let avg = "SELECT AVG(a3) FROM R WHERE a2 > 10 AND a2 < 60";
        let join = "SELECT SUM(R.a3) FROM R JOIN S ON R.a2 = S.a1";

        let mut good = Session::open(data::build_olap(&t));
        assert!(scalar_ok(&good.sql(avg).unwrap(), &want_avg));
        assert!(scalar_ok(&good.sql(join).unwrap(), &want_join));

        let mut bad = t.clone();
        let victim = bad.r.iter().position(|r| r[1] > 10 && r[1] < 60).unwrap();
        bad.r[victim][2] += 1;
        let mut bad = Session::open(data::build_olap(&bad));
        assert!(!scalar_ok(&bad.sql(avg).unwrap(), &want_avg));
        assert!(!scalar_ok(&bad.sql(join).unwrap(), &want_join));
    }

    #[test]
    fn a_dropped_committed_update_is_caught() {
        let t = tables();
        let mut sess = Session::open(data::build_oltp(&t));
        let mut model = OltpModel::new(&t.r);
        for (key, delta) in [(5, 3), (17, -2), (5, 11)] {
            sess.begin().unwrap();
            sess.sql(&format!("UPDATE R SET a3 = a3 + {delta} WHERE a1 = {key}"))
                .unwrap();
            sess.commit().unwrap();
            model.add(key, delta);
        }
        let sum = "SELECT SUM(a3) FROM R";
        assert!(scalar_ok(&sess.sql(sum).unwrap(), &model.sum()));
        let read = sess.sql("SELECT a3 FROM R WHERE a1 = 5").unwrap();
        assert!(close(read.value, model.get(5) as f64));

        // The model hears of a commit the engine never made.
        model.add(17, 1);
        assert!(!scalar_ok(&sess.sql(sum).unwrap(), &model.sum()));
    }

    #[test]
    fn long_reader_remembers_pre_images() {
        let mut model = OltpModel::new(&[vec![0, 0, 100], vec![1, 0, 200]]);
        model.add(0, 5);
        model.open_reader();
        model.add(0, 1);
        model.add(0, 1);
        model.add(1, -7);
        assert_eq!(model.close_reader(), vec![(0, 105), (1, 200)]);
        assert_eq!(model.get(0), 107);
    }
}
