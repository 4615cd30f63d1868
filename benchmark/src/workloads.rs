//! The four workloads. Each is a fixed, seed-derived list of operations run
//! one pass at a time by a single closed-loop client; every answer is
//! checked against [`crate::oracle`] as it arrives.
//!
//! * `paper_grid` — the paper's Fig 5.1 grid through `Database::run`: row
//!   operators and the simulator's per-access paths do the work.
//! * `olap_warm` — eight statement shapes through `Session::sql` with every
//!   plan cached: batch operators and the join/arena code do the work.
//! * `adhoc_plan` — the same shapes on a session that has never seen them:
//!   pilot builds and row-mode candidate runs do the work.
//! * `oltp_txn` — SQL transactions on an indexed table: begin/commit, the
//!   WAL, version chains and per-statement lex/parse/bind do the work.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_core::breakdown::TimeBreakdown;
use wdtg_core::figures::{systems_for, MicrobenchGrid};
use wdtg_core::methodology::{build_db, QueryMeasurement, Rates};
use wdtg_core::validate::{validate_grid, Claim};
use wdtg_memdb::sql::{bind, parser, token, BoundStatement, PhysicalConfig};
use wdtg_memdb::{AggKind, Database, DbError, DbResult, Query, QueryResult, Session, SystemId};
use wdtg_sim::{CpuConfig, Mode, Snapshot};
use wdtg_workloads::{micro, MicroQuery, Scale};

use crate::data::{self, Sizes, Tables};
use crate::json::Json;
use crate::oracle::{self, Expect, OltpModel, Row};
use crate::trace::Tracer;

/// Checks made once, after the timed passes.
#[derive(Debug, Default, Clone, Copy)]
pub struct FinalChecks {
    pub attempted: u64,
    pub failed: u64,
}

/// The transaction machinery's counters so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxnCounts {
    pub conflicts: u64,
    pub aborted: u64,
    pub wal_records: u64,
    pub wal_commits: u64,
}

pub trait Workload {
    fn ops_per_pass(&self) -> usize;

    /// Fills caches and plan caches before timing, where first-sight cost
    /// is not the thing measured.
    fn warm(&mut self);

    /// Runs the op list once, pushing each op's host latency in ms, and
    /// returns how many ops erred or disagreed with the oracle. With a
    /// tracer, each op goes through the layers' public calls one by one,
    /// each under a span; the simulated work is the same.
    fn pass(&mut self, tracer: Option<&mut Tracer>, lat_ms: &mut Vec<f64>) -> u64;

    /// Every simulated processor this workload drives, summed.
    fn sim(&self) -> Snapshot;

    fn txn(&self) -> TxnCounts {
        TxnCounts::default()
    }

    fn finish(&mut self) -> FinalChecks;

    /// Makes the oracle expect one wrong answer, to show the run then fails.
    fn inject_wrong_answer(&mut self);

    /// Workload-specific facts for the results file.
    fn notes(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }
}

/// Builds `name` for `seed`, returning it with the host seconds its set-up
/// took (generation, loading, indexing, `Session::open`; oracle work excluded).
pub fn setup(name: &str, seed: u64) -> (Box<dyn Workload>, f64) {
    match name {
        "paper_grid" => {
            let (w, s) = PaperGrid::setup();
            (Box::new(w), s)
        }
        "olap_warm" => {
            let (w, s) = SqlShapes::setup(seed, false);
            (Box::new(w), s)
        }
        "adhoc_plan" => {
            let (w, s) = SqlShapes::setup(seed, true);
            (Box::new(w), s)
        }
        "oltp_txn" => {
            let (w, s) = OltpTxn::setup(seed);
            (Box::new(w), s)
        }
        other => unreachable!("`{other}` is not in metrics::WORKLOADS"),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------------

/// The grid's data: a quarter of the dev scale so a 22-op pass takes a few
/// seconds; R (2.4 MB) is still 4.7× the simulated L2 and every ratio of
/// the paper's database is kept.
pub const GRID_SCALE: Scale = Scale {
    r_records: 24_000,
    s_records: 800,
    record_bytes: 100,
};
const GRID_SELECTIVITY: f64 = 0.1;

/// The grid's processor is the paper's, timer interrupts included: the BTB
/// claim of §5.3 only holds with the kernel's share of the branch table.
/// Every other workload runs with interrupts off.
pub fn grid_cpu_config() -> CpuConfig {
    CpuConfig::pentium_ii_xeon()
}

struct Cell {
    system: SystemId,
    query: MicroQuery,
    db: Database,
    q: Query,
    want: Expect,
}

/// Systems A–D × {SRS, IRS, SJ} at 10 % selectivity under the default
/// methodology: per cell one warm-up run and one measured run, both timed.
pub struct PaperGrid {
    cells: Vec<Cell>,
    /// The paper's claims as judged on the measured runs of the first pass.
    claims: Option<Vec<Claim>>,
}

impl PaperGrid {
    fn setup() -> (PaperGrid, f64) {
        let cfg = grid_cpu_config();
        let mut build_s = 0.0;
        let mut cells = Vec::new();
        // The paper's fixed data: the grid is the fidelity reference, so it
        // does not move with `--seed`.
        let r: Vec<Row> = micro::r_rows(GRID_SCALE, micro::DEFAULT_SEED).collect();
        let s: Vec<Row> = micro::s_rows(GRID_SCALE, micro::DEFAULT_SEED).collect();
        let (lo, hi) = GRID_SCALE.selectivity_range(GRID_SELECTIVITY);
        let select = oracle::agg(&r, |row| row[1] > lo && row[1] < hi, AggKind::Avg, 2);
        let join = oracle::join_agg(&r, 1, &s, 0, AggKind::Avg, 2);
        for query in MicroQuery::ALL {
            for &system in systems_for(query) {
                let t = Instant::now();
                let db = build_db(system, GRID_SCALE, query, &cfg).expect("grid cell builds");
                build_s += t.elapsed().as_secs_f64();
                cells.push(Cell {
                    system,
                    query,
                    db,
                    q: micro::query(GRID_SCALE, query, GRID_SELECTIVITY),
                    want: if query == MicroQuery::SequentialJoin {
                        join
                    } else {
                        select
                    },
                });
            }
        }
        (
            PaperGrid {
                cells,
                claims: None,
            },
            build_s,
        )
    }
}

fn traced_run(
    db: &mut Database,
    q: &Query,
    tracer: Option<&mut Tracer>,
    op_id: u32,
) -> DbResult<QueryResult> {
    match tracer {
        None => db.run(q),
        Some(t) => {
            let op = t.open_op("grid.run", op_id);
            let res = t.child("exec.run", op, || db.run(q));
            t.close(op);
            res
        }
    }
}

impl Workload for PaperGrid {
    fn ops_per_pass(&self) -> usize {
        self.cells.len() * 2
    }

    /// Nothing: the methodology's own warm-up run is part of the pass, and
    /// the first pass must start from freshly built databases to be
    /// comparable with `measure_query`.
    fn warm(&mut self) {}

    fn pass(&mut self, mut tracer: Option<&mut Tracer>, lat_ms: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        let mut measured = Vec::new();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            for run in 0..2u32 {
                let before = cell.db.cpu().snapshot();
                let t = Instant::now();
                let res = traced_run(
                    &mut cell.db,
                    &cell.q,
                    tracer.as_deref_mut(),
                    i as u32 * 2 + run,
                );
                lat_ms.push(ms_since(t));
                let rows = match res {
                    Ok(r) if oracle::scalar_ok(&r, &cell.want) => r.rows,
                    _ => {
                        failed += 1;
                        0
                    }
                };
                if run == 1 && self.claims.is_none() {
                    let delta = cell.db.cpu().snapshot().delta(&before);
                    measured.push(QueryMeasurement {
                        system: cell.system,
                        query: cell.query,
                        selectivity: GRID_SELECTIVITY,
                        truth: TimeBreakdown::from_snapshot(&delta, Mode::User),
                        estimate: None,
                        rows,
                        // Fig 5.3's denominator: R rows for the sequential
                        // queries, selected rows for the indexed selection.
                        denominator: if cell.query == MicroQuery::IndexedRangeSelection {
                            rows.max(1)
                        } else {
                            GRID_SCALE.r_records
                        },
                        rates: Rates::from_delta(&delta),
                        rel_stddev: 0.0,
                    });
                }
            }
        }
        if self.claims.is_none() {
            self.claims = Some(validate_grid(&MicrobenchGrid { cells: measured }));
        }
        failed
    }

    fn sim(&self) -> Snapshot {
        let mut cells = self.cells.iter();
        let mut total = cells.next().expect("grid has cells").db.cpu().snapshot();
        for c in cells {
            total.absorb(&c.db.cpu().snapshot());
        }
        total
    }

    /// Each paper claim that does not hold on the first pass is a failure.
    fn finish(&mut self) -> FinalChecks {
        let claims = self.claims.as_ref().expect("a pass ran");
        FinalChecks {
            attempted: claims.len() as u64,
            failed: claims.iter().filter(|c| !c.pass).count() as u64,
        }
    }

    fn inject_wrong_answer(&mut self) {
        self.cells[0].want.value += 1.0;
    }

    fn notes(&self) -> Vec<(&'static str, Json)> {
        let mut notes = vec![(
            "seed",
            Json::str("ignored: the grid runs on the paper's fixed data (micro::DEFAULT_SEED)"),
        )];
        if let Some(claims) = &self.claims {
            let held = claims.iter().filter(|c| c.pass).count();
            notes.push(("paper_claims_held", Json::Num(held as f64)));
            notes.push(("paper_claims", Json::Num(claims.len() as f64)));
            let failed = claims.iter().filter(|c| !c.pass);
            notes.push((
                "paper_claims_failed",
                Json::Arr(
                    failed
                        .map(|c| Json::str(format!("{}: {}", c.id, c.detail)))
                        .collect(),
                ),
            ));
        }
        notes
    }
}

// ---------------------------------------------------------------------------
// olap_warm and adhoc_plan
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Want {
    Scalar(Expect),
    Groups(Vec<(i32, f64)>),
}

#[derive(Clone)]
struct Stmt {
    text: String,
    want: Want,
}

/// The eight statement shapes, bounds and join spelling jittered by `rng`.
fn shapes(t: &Tables, rng: &mut StdRng) -> Vec<Stmt> {
    let mut out = Vec::new();
    let window = |share: f64, rng: &mut StdRng| {
        t.sizes
            .a2_window(share, rng.random_range(0..=1000) as f64 / 1000.0)
    };
    for share in [0.01, 0.1, 0.5] {
        let (lo, hi) = window(share, rng);
        out.push(Stmt {
            text: format!("SELECT AVG(a3) FROM R WHERE a2 > {lo} AND a2 < {hi}"),
            want: Want::Scalar(oracle::agg(
                &t.r,
                |r| r[1] > lo && r[1] < hi,
                AggKind::Avg,
                2,
            )),
        });
    }
    let (lo, hi) = window(0.1, rng);
    let cut = rng.random_range(4_000..6_000);
    out.push(Stmt {
        text: format!("SELECT COUNT(*) FROM R WHERE a2 > {lo} AND a2 < {hi} AND a3 < {cut}"),
        want: Want::Scalar(oracle::agg(
            &t.r,
            |r| r[1] > lo && r[1] < hi && r[2] < cut,
            AggKind::Count,
            0,
        )),
    });
    out.push(Stmt {
        text: "SELECT a4, AVG(a3) FROM R GROUP BY a4".into(),
        want: Want::Groups(oracle::group_agg(&t.r, |_| true, 3, AggKind::Avg, 2)),
    });
    let (lo, hi) = window(0.1, rng);
    out.push(Stmt {
        text: format!("SELECT a4, AVG(a3) FROM R WHERE a2 > {lo} AND a2 < {hi} GROUP BY a4"),
        want: Want::Groups(oracle::group_agg(
            &t.r,
            |r| r[1] > lo && r[1] < hi,
            3,
            AggKind::Avg,
            2,
        )),
    });
    // S fits the simulated L2; T is six times it.
    for (name, build) in [("S", &t.s), ("T", &t.t)] {
        let (kind, func) = [
            (AggKind::Avg, "AVG"),
            (AggKind::Sum, "SUM"),
            (AggKind::Min, "MIN"),
            (AggKind::Max, "MAX"),
        ][rng.random_range(0..4usize)];
        let col = rng.random_range(2..8usize);
        let from = if rng.random_range(0..2) == 0 {
            format!("FROM R JOIN {name} ON R.a2 = {name}.a1")
        } else {
            format!("FROM R, {name} WHERE R.a2 = {name}.a1")
        };
        out.push(Stmt {
            text: format!("SELECT {func}(R.a{}) {from}", col + 1),
            want: Want::Scalar(oracle::join_agg(&t.r, 1, build, 0, kind, col)),
        });
    }
    out
}

/// `olap_warm` (`replan = false`): each shape twice per pass, plans cached.
/// `adhoc_plan` (`replan = true`): each shape once per pass on a session
/// re-opened at the start of the pass, so every statement is planned.
pub struct SqlShapes {
    /// Always `Some` between calls; taken only to re-open the session.
    sess: Option<Session>,
    stmts: Vec<Stmt>,
    replan: bool,
    /// The planner's choice per statement text, as the traced pass needs it
    /// to run a cached statement through `Database::run` itself.
    configs: HashMap<String, PhysicalConfig>,
}

impl SqlShapes {
    fn setup(seed: u64, replan: bool) -> (SqlShapes, f64) {
        let t = Instant::now();
        let tables = data::generate(seed, Sizes::FULL);
        let sess = Session::open(data::build_olap(&tables));
        let setup_s = t.elapsed().as_secs_f64();
        let mut stmts = shapes(&tables, &mut StdRng::seed_from_u64(seed ^ 0x01a9));
        if !replan {
            stmts.extend(stmts.clone());
        }
        (
            SqlShapes {
                sess: Some(sess),
                stmts,
                replan,
                configs: HashMap::new(),
            },
            setup_s,
        )
    }

    fn reopen(&mut self) {
        let db = self.sess.take().expect("session present").into_db();
        self.sess = Some(Session::open(db));
        self.configs.clear();
    }
}

/// Runs one statement and checks it. Untraced, that is `Session::sql`.
/// Traced, the same statement goes lex → parse → bind → `explain` (when the
/// session has not planned it) → `Database::run` under the chosen knobs.
fn run_stmt(
    sess: &mut Session,
    st: &Stmt,
    configs: &mut HashMap<String, PhysicalConfig>,
    tracer: Option<(&mut Tracer, u32)>,
) -> DbResult<bool> {
    let Some((t, op_id)) = tracer else {
        return Ok(match &st.want {
            Want::Scalar(e) => oracle::scalar_ok(&sess.sql(&st.text)?, e),
            Want::Groups(g) => oracle::groups_ok(&sess.sql_grouped(&st.text)?, g),
        });
    };
    let op = t.open_op("session.sql", op_id);
    let mut go = || -> DbResult<bool> {
        t.child("sql.lex", op, || token::lex(&st.text))?;
        let ast = t.child("sql.parse", op, || parser::parse(&st.text))?;
        let bound = t.child("sql.bind", op, || {
            bind::bind(sess.db().expect("single-core session"), &st.text, &ast)
        })?;
        let config = match configs.get(&st.text) {
            Some(c) => *c,
            None => {
                t.child("sql.plan", op, || sess.explain(&st.text))?;
                let c = sess
                    .last_plan()
                    .expect("aggregate statements are planned")
                    .chosen()
                    .config;
                configs.insert(st.text.clone(), c);
                c
            }
        };
        let db = sess.db_mut().expect("single-core session");
        t.child("exec.run", op, || -> DbResult<bool> {
            config.apply(db);
            Ok(match (&bound, &st.want) {
                (BoundStatement::Scalar(q), Want::Scalar(e)) => oracle::scalar_ok(&db.run(q)?, e),
                (
                    BoundStatement::Grouped {
                        table,
                        group_col,
                        predicate,
                        agg,
                    },
                    Want::Groups(g),
                ) => oracle::groups_ok(
                    &db.run_grouped(table, group_col, predicate.as_ref(), agg)?,
                    g,
                ),
                _ => false,
            })
        })
    };
    let res = go();
    t.close(op);
    res
}

impl Workload for SqlShapes {
    fn ops_per_pass(&self) -> usize {
        self.stmts.len()
    }

    /// One untimed pass: it plans every statement (remembering each choice
    /// for the traced pass) and fills the simulated and host caches.
    fn warm(&mut self) {
        let sess = self.sess.as_mut().expect("session present");
        for st in &self.stmts {
            let _ = run_stmt(sess, st, &mut self.configs, None);
            if let Some(plan) = sess.last_plan().filter(|p| p.sql == st.text) {
                self.configs.insert(st.text.clone(), plan.chosen().config);
            }
        }
    }

    fn pass(&mut self, mut tracer: Option<&mut Tracer>, lat_ms: &mut Vec<f64>) -> u64 {
        if self.replan {
            self.reopen();
        }
        let sess = self.sess.as_mut().expect("session present");
        let mut failed = 0;
        for (i, st) in self.stmts.iter().enumerate() {
            let t = Instant::now();
            let tr = tracer.as_deref_mut().map(|t| (t, i as u32));
            let ok = run_stmt(sess, st, &mut self.configs, tr);
            lat_ms.push(ms_since(t));
            failed += !matches!(ok, Ok(true)) as u64;
        }
        failed
    }

    fn sim(&self) -> Snapshot {
        let sess = self.sess.as_ref().expect("session present");
        sess.db().expect("single-core session").cpu().snapshot()
    }

    fn finish(&mut self) -> FinalChecks {
        FinalChecks::default()
    }

    fn inject_wrong_answer(&mut self) {
        match &mut self.stmts[0].want {
            Want::Scalar(e) => e.value += 1.0,
            Want::Groups(g) => g[0].1 += 1.0,
        }
    }
}

// ---------------------------------------------------------------------------
// oltp_txn
// ---------------------------------------------------------------------------

/// Transactions per pass.
const TXNS_PER_PASS: usize = 2_000;
/// A long reader is opened every this many ops and held across as many commits.
const READER_EVERY: usize = 64;
/// Every this many ops a rival transaction commits first, so the op's
/// first commit must report `TxnConflict` and the op is retried.
const RIVAL_EVERY: usize = 128;

enum Step {
    /// `SELECT a3 FROM R WHERE a1 = key`
    Read { key: i32 },
    /// `UPDATE R SET a3 = a3 + delta WHERE a1 = key`
    Update { key: i32, delta: i32 },
    /// `INSERT INTO H VALUES (...)`
    Insert,
}

struct TxnOp {
    steps: Vec<(String, Step)>,
    /// `(key, delta)` a rival transaction commits before this op's first commit.
    rival: Option<(i32, i32)>,
}

fn read_step(key: i32) -> (String, Step) {
    (
        format!("SELECT a3 FROM R WHERE a1 = {key}"),
        Step::Read { key },
    )
}

fn update_step(key: i32, delta: i32) -> (String, Step) {
    let sign = if delta < 0 { '-' } else { '+' };
    (
        format!(
            "UPDATE R SET a3 = a3 {sign} {} WHERE a1 = {key}",
            delta.abs()
        ),
        Step::Update { key, delta },
    )
}

/// 60 % read-modify-write (a point read and two updates), 15 % insert into
/// H plus one update, 25 % four point reads; 80 % of keys from a hot 5 %.
fn txn_ops(n_keys: i32, rng: &mut StdRng) -> Vec<TxnOp> {
    let hot = (n_keys / 20).max(1);
    let hot_base = rng.random_range(0..n_keys);
    let key = |rng: &mut StdRng| {
        if rng.random_range(0..100) < 80 {
            (hot_base + rng.random_range(0..hot)) % n_keys
        } else {
            rng.random_range(0..n_keys)
        }
    };
    let delta = |rng: &mut StdRng| rng.random_range(-9..=9);
    (0..TXNS_PER_PASS)
        .map(|i| {
            let rival = (i % RIVAL_EVERY == RIVAL_EVERY / 2).then(|| delta(rng));
            let mix = rng.random_range(0..100);
            let steps = if mix < 60 || rival.is_some() {
                let k = key(rng);
                vec![
                    read_step(k),
                    update_step(k, delta(rng)),
                    update_step(key(rng), delta(rng)),
                ]
            } else if mix < 75 {
                let k = key(rng);
                let d = delta(rng);
                vec![
                    (
                        format!("INSERT INTO H VALUES ({i}, {k}, {d}, 0, 0)"),
                        Step::Insert,
                    ),
                    update_step(k, d),
                ]
            } else {
                (0..4).map(|_| read_step(key(rng))).collect()
            };
            let rival = rival.map(|d| match steps[1].1 {
                Step::Update { key, .. } => (key, d),
                _ => unreachable!("rival ops are read-modify-write"),
            });
            TxnOp { steps, rival }
        })
        .collect()
}

pub struct OltpTxn {
    sess: Session,
    tables: Tables,
    ops: Vec<TxnOp>,
    model: OltpModel,
    /// The open long reader, if any.
    reader: Option<wdtg_memdb::TxnId>,
}

/// Runs `f` under a child span when tracing, bare otherwise.
fn spanned<T>(
    tracer: &mut Option<(&mut Tracer, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some((t, op)) => t.child(name, *op, f),
        None => f(),
    }
}

impl OltpTxn {
    fn setup(seed: u64) -> (OltpTxn, f64) {
        let t = Instant::now();
        let tables = data::generate(seed, Sizes::FULL);
        let sess = Session::open(data::build_oltp(&tables));
        let setup_s = t.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0717);
        let ops = txn_ops(tables.sizes.r as i32, &mut rng);
        let model = OltpModel::new(&tables.r);
        (
            OltpTxn {
                sess,
                tables,
                ops,
                model,
                reader: None,
            },
            setup_s,
        )
    }

    fn db(&mut self) -> &mut Database {
        self.sess.db_mut().expect("single-core session")
    }

    /// Closes the long reader: every key written since it began must still
    /// read as it did then (a version-chain walk), not as it does now.
    fn close_reader(&mut self) -> bool {
        let Some(tid) = self.reader.take() else {
            return true;
        };
        let mut ok = true;
        for (key, want) in self.model.close_reader() {
            let q = Query::PointSelect {
                table: "R".into(),
                key_col: "a1".into(),
                key,
                read_col: "a3".into(),
            };
            ok &= self
                .db()
                .txn_run(tid, &q)
                .is_ok_and(|r| r.rows == 1 && oracle::close(r.value, want as f64));
        }
        ok & self.db().commit(tid).is_ok()
    }

    fn open_reader(&mut self) {
        self.reader = Some(self.db().begin());
        self.model.open_reader();
    }

    /// One statement inside the session's open transaction.
    fn stmt(
        sess: &mut Session,
        sql: &str,
        tracer: &mut Option<(&mut Tracer, usize)>,
    ) -> DbResult<QueryResult> {
        let Some((t, op)) = tracer else {
            return sess.sql(sql);
        };
        t.child("sql.lex", *op, || token::lex(sql))?;
        let ast = t.child("sql.parse", *op, || parser::parse(sql))?;
        let bound = t.child("sql.bind", *op, || {
            bind::bind(sess.db().expect("single-core session"), sql, &ast)
        })?;
        let BoundStatement::Scalar(q) = bound else {
            return Err(DbError::Internal(
                "transaction statements are scalar".into(),
            ));
        };
        let tid = sess.current_txn().expect("a transaction is open");
        let db = sess.db_mut().expect("single-core session");
        t.child("txn.stmt", *op, || db.txn_run(tid, &q))
    }

    /// One attempt at `ops[i]`: `Ok(true)` if it committed with every
    /// answer right, `Err(TxnConflict)` if the commit lost to the rival.
    fn attempt(
        &mut self,
        i: usize,
        with_rival: bool,
        tracer: &mut Option<(&mut Tracer, usize)>,
    ) -> DbResult<bool> {
        let OltpTxn {
            sess, ops, model, ..
        } = self;
        let op = &ops[i];
        let mut ok = true;
        // This transaction's own uncommitted deltas, which its reads must see.
        let mut staged: Vec<(i32, i32)> = Vec::new();
        let mut inserts = 0;
        let seen = |model: &OltpModel, staged: &[(i32, i32)], key: i32| {
            model.get(key)
                + staged
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, d)| *d as i64)
                    .sum::<i64>()
        };
        spanned(tracer, "txn.begin", || sess.begin())?;
        for (sql, step) in &op.steps {
            let res = Self::stmt(sess, sql, tracer)?;
            match *step {
                Step::Read { key } => {
                    ok &=
                        res.rows == 1 && oracle::close(res.value, seen(model, &staged, key) as f64);
                }
                Step::Update { key, delta } => {
                    staged.push((key, delta));
                    ok &=
                        res.rows == 1 && oracle::close(res.value, seen(model, &staged, key) as f64);
                }
                Step::Insert => {
                    inserts += 1;
                    ok &= res.rows == 1;
                }
            }
        }
        if let (true, Some((key, delta))) = (with_rival, op.rival) {
            spanned(tracer, "txn.rival", || -> DbResult<()> {
                let db = sess.db_mut().expect("single-core session");
                let rival = db.begin();
                db.txn_run(
                    rival,
                    &Query::UpdateAdd {
                        table: "R".into(),
                        key_col: "a1".into(),
                        key,
                        set_col: "a3".into(),
                        delta,
                    },
                )?;
                db.commit(rival).map(|_| ())
            })?;
            model.add(key, delta);
        }
        spanned(tracer, "txn.commit", || sess.commit())?;
        for (key, delta) in staged {
            model.add(key, delta);
        }
        model.h_rows += inserts;
        Ok(ok)
    }

    fn run_op(&mut self, i: usize, mut tracer: Option<(&mut Tracer, usize)>) -> bool {
        let mut ok = true;
        if i.is_multiple_of(READER_EVERY) {
            ok &= spanned(&mut tracer, "txn.long_reader", || {
                let ok = self.close_reader();
                self.open_reader();
                ok
            });
        }
        if self.ops[i].rival.is_some() {
            // The rival commits first, so this attempt must lose; a deliberate
            // conflict is a retry, not a failure.
            ok &= matches!(
                self.attempt(i, true, &mut tracer),
                Err(DbError::TxnConflict { .. })
            );
        }
        ok &= matches!(self.attempt(i, false, &mut tracer), Ok(true));
        // An attempt that erred mid-way must not leave its transaction open.
        if self.sess.current_txn().is_some() {
            let _ = self.sess.abort();
        }
        ok
    }
}

impl Workload for OltpTxn {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn warm(&mut self) {
        self.pass(None, &mut Vec::new());
    }

    fn pass(&mut self, mut tracer: Option<&mut Tracer>, lat_ms: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for i in 0..self.ops.len() {
            let t = Instant::now();
            let ok = match tracer.as_deref_mut() {
                None => self.run_op(i, None),
                Some(tr) => {
                    let op = tr.open_op("session.txn", i as u32);
                    let ok = self.run_op(i, Some((tr, op)));
                    tr.close(op);
                    ok
                }
            };
            lat_ms.push(ms_since(t));
            failed += !ok as u64;
        }
        failed += !self.close_reader() as u64;
        failed
    }

    fn sim(&self) -> Snapshot {
        self.sess
            .db()
            .expect("single-core session")
            .cpu()
            .snapshot()
    }

    fn txn(&self) -> TxnCounts {
        let db = self.sess.db().expect("single-core session");
        let stats = db.txn_stats();
        TxnCounts {
            conflicts: stats.conflicts,
            aborted: stats.aborted,
            wal_records: db.wal().records().len() as u64,
            wal_commits: db.wal().commit_count() as u64,
        }
    }

    /// `SUM(a3)` and H's row count against the model, then the WAL replayed
    /// onto a fresh load: a digest that differs from the live database's
    /// fails every committed transaction.
    fn finish(&mut self) -> FinalChecks {
        let mut checks = FinalChecks {
            attempted: 3,
            failed: 0,
        };
        let sum = self.sess.sql("SELECT SUM(a3) FROM R");
        checks.failed += !sum.is_ok_and(|r| oracle::scalar_ok(&r, &self.model.sum())) as u64;
        let h = self.sess.sql("SELECT COUNT(*) FROM H");
        checks.failed += !h.is_ok_and(|r| r.rows == self.model.h_rows) as u64;

        let live = self.sess.db().expect("single-core session");
        let commits = live.wal().commit_count();
        let mut fresh = data::build_oltp(&self.tables);
        let replayed = fresh.replay_wal(live.wal().records(), commits);
        if replayed.ok() != Some(commits) || fresh.state_digest() != live.state_digest() {
            checks.failed += live.txn_stats().committed;
        }
        checks
    }

    /// The model hears of a commit the engine never made.
    fn inject_wrong_answer(&mut self) {
        self.model.add(0, 1);
    }
}
