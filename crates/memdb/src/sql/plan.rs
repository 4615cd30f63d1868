//! The simulator-costed physical planner.
//!
//! For a bound aggregate query the planner enumerates every candidate
//! physical configuration over the engine's knobs — execution mode
//! ([`ExecMode`]), qualification strategy ([`SelectionMode`]) and join
//! algorithm ([`JoinAlgo`]) — and *measures* each one on the cycle
//! simulator. The cost model is the paper's execution-time breakdown
//! itself: a candidate's simulated `T_Q = T_C + T_M + T_B + T_R` on a sample
//! of the data, extrapolated to full size.
//!
//! # Image → fork → job
//!
//! * **Image.** One uninstrumented *pilot image* per statement: a fresh
//!   [`Database`] with the session database's profile, processor
//!   configuration, page layouts and secondary indexes, loaded with a
//!   sample of the real tables. It is never run. Scans and grouped
//!   aggregates are page-linear, so their image holds a row prefix (up to
//!   [`PILOT_SCAN_ROWS`]) and costs scale by `full_rows / pilot_rows`. Joins
//!   are *not* linear in the build side — the hash table's residency in L2
//!   is exactly what separates the naive and partitioned joins — so a join
//!   has two images, each with the **full build side** and one of the two
//!   [`PILOT_PROBE_ROWS`] probe prefixes; per-probe-row cost comes from the
//!   linear fit through the two measurements (`cost(n) = fixed + rate·n`),
//!   which separates the build-side fixed cost from the probe rate instead
//!   of wrongly scaling both.
//! * **Fork.** Every measurement — one per candidate, two per join
//!   candidate — runs on its own pristine fork of its image
//!   (`Database::fork`): the image's heap bytes, page table, indexes and
//!   simulated addresses on a cold processor (every block's rotation at
//!   zero: rotation is the core's, the code blocks themselves are shared
//!   immutable data), no fault plan, no budget. On that fork the candidate
//!   runs a warm-up and then the measured run.
//! * **Job.** The measurements are jobs on the shard pool
//!   ([`run_jobs_parallel`]), one worker per host core, inline on a
//!   one-core host, results taken in candidate order. A fork shares no
//!   simulated state with its image or with another fork, so — by the
//!   private-core argument of [`crate::parallel`] — a [`PlanReport`] is a
//!   pure function of (catalog, statement): the same under every
//!   enumeration order, worker count and steal seed. Ties keep the earlier
//!   candidate; a failed measurement surfaces as the first error in
//!   candidate order.
//!
//! # Why "own warm-up on a pristine core" is the estimate
//!
//! It is the paper's §4.3 method: each query is measured alone, on a
//! processor it has itself warmed and nothing else has disturbed. A
//! candidate measured on what the candidates before it left behind — their
//! code in L1I and L2, their branches in the BTB, their hash tables in the
//! bump arenas — is costed for a position in a list, and a list has an
//! order. It mattered: with every candidate on one pilot, the benchmark's
//! 50 %-selectivity scan was planned `batch/predicated` on each of seeds
//! 1-5 (seed 1: 84 042 922 vs 84 131 645 estimated cycles, 0.1 % apart);
//! with a core per candidate it is `batch/branching`, and the *executed*
//! statement is cheaper on every one of those seeds (seed 1: 99 610 199.81
//! → 99 603 522.05 cycles per op). Cold-start — dropping the warm-up — would
//! be isolated too, but wrong for a plan that is cached and re-run: the
//! one-off compulsory misses of a candidate's code and of the sampled pages
//! would be multiplied by the extrapolation factor (×49 from a 2 048-row
//! prefix of the benchmark's R), charging a cost paid once as if it were
//! paid per 2 048 rows.
//!
//! # Memory
//!
//! Workers allocate nothing large. The calling thread builds the images —
//! rows stream out of the session database's heap one at a time, no row
//! vectors are held — and forks **one pilot per worker**; a job takes a
//! pilot, *resets* it from its image in place (`Database::reset_from`:
//! `Vec::clone_from` into the same buffers,
//! [`wdtg_sim::Cpu::reset_cold`] on the same core) and hands it back, and
//! the calling thread drops pilots and images. Building and dropping a
//! pilot per job inside the workers instead strands their buffers in
//! glibc's per-thread arenas, out of reach of the execution that follows;
//! the sequential loops this replaced kept sixteen runs' bump-allocated
//! hash tables alive on two pilots. What a spawned worker still allocates
//! is the executor's own host-side staging (a join drains its build side
//! into row vectors), which its thread's arena keeps: bounded by one run
//! per spawned worker (the calling thread is worker 0 of the pool) and
//! reused by the next plan, but not returned to the main thread.
//! ARCHITECTURE.md has the measured numbers.
//!
//! # Left out, on measured grounds
//!
//! Early pruning of dominated candidates (no sound bound exists for a join
//! under the two-point fit, which is where the time is; on scans it is
//! worth at most 13 % and needs zero-cycle checkpoints inside the scan
//! operators); a cross-statement image cache (a scan image is 0.4 ms of a
//! 55 ms plan); cold-start estimates (above); a plan memo that outlives a
//! [`crate::sql::Session`].

use std::sync::Mutex;

use wdtg_sim::{Component, Mode, Snapshot};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::{ExecMode, PhysicalConfig, SelectionMode};
use crate::parallel::{run_jobs_parallel, ParallelConfig};
use crate::profiles::JoinAlgo;
use crate::query::{BoundStatement, Query};

/// Max pilot rows for page-linear plans (scans, grouped aggregates).
pub const PILOT_SCAN_ROWS: usize = 2048;
/// The two probe-side sample sizes of the join pilot's linear fit.
pub const PILOT_PROBE_ROWS: (usize, usize) = (512, 1536);

/// One candidate's estimated full-size cost, with the paper's breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateCost {
    /// The knob setting measured.
    pub config: PhysicalConfig,
    /// Estimated full-size simulated cycles (T_Q), the ranking key.
    pub est_cycles: f64,
    /// Estimated computation cycles (T_C).
    pub t_c: f64,
    /// Estimated memory-stall cycles (T_M).
    pub t_m: f64,
    /// Estimated branch-misprediction cycles (T_B).
    pub t_b: f64,
    /// Estimated resource-stall cycles (T_R).
    pub t_r: f64,
    /// Rows the pilot measured (probe-side rows for joins).
    pub pilot_rows: u64,
}

/// The planner's verdict for one statement: every candidate's simulated
/// stall-term cost and which one won.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The statement text.
    pub sql: String,
    /// Plan shape of the chosen candidate (the engine's structural explain).
    pub shape: String,
    /// Every candidate, in enumeration order.
    pub candidates: Vec<CandidateCost>,
    /// Index of the winner in `candidates`.
    pub chosen: usize,
    /// Driving cardinality the estimates extrapolate to (outer-table rows).
    pub full_rows: u64,
}

impl PlanReport {
    /// The winning candidate.
    pub fn chosen(&self) -> &CandidateCost {
        &self.candidates[self.chosen]
    }

    /// Renders the candidate table, winner starred — `EXPLAIN` output.
    pub fn render(&self) -> String {
        let mut out = format!("sql: {}\nplan:\n", self.sql);
        for line in self.shape.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "candidates (pilot-simulated T_Q over {} rows, extrapolated):\n",
            self.full_rows
        ));
        for (i, c) in self.candidates.iter().enumerate() {
            out.push_str(&format!(
                "{} {:24} T_Q {:>14.0}  = T_C {:>12.0} + T_M {:>12.0} + T_B {:>10.0} + T_R {:>10.0}\n",
                if i == self.chosen { "*" } else { " " },
                c.config.label(),
                c.est_cycles,
                c.t_c,
                c.t_m,
                c.t_b,
                c.t_r,
            ));
        }
        out
    }
}

/// The four stall terms + total of one pilot measurement (user mode).
#[derive(Debug, Clone, Copy, Default)]
struct Measured {
    cycles: f64,
    t_c: f64,
    t_m: f64,
    t_b: f64,
    t_r: f64,
}

impl Measured {
    fn from_delta(d: &Snapshot) -> Measured {
        let l = &d.ledger;
        Measured {
            cycles: d.cycles,
            t_c: l.get(Mode::User, Component::Tc),
            t_m: l.memory_total(Mode::User),
            t_b: l.get(Mode::User, Component::Tb),
            t_r: l.resource_total(Mode::User),
        }
    }

    fn scale(&self, f: f64) -> Measured {
        Measured {
            cycles: self.cycles * f,
            t_c: self.t_c * f,
            t_m: self.t_m * f,
            t_b: self.t_b * f,
            t_r: self.t_r * f,
        }
    }

    /// Linear fit through `(n1, self)` and `(n2, m2)` evaluated at `n`,
    /// per component, clamped at zero (a negative extrapolation is noise).
    fn extrapolate(&self, m2: &Measured, n1: f64, n2: f64, n: f64) -> Measured {
        let at = |a: f64, b: f64| {
            let rate = (b - a) / (n2 - n1).max(1.0);
            (b + rate * (n - n2)).max(0.0)
        };
        Measured {
            cycles: at(self.cycles, m2.cycles),
            t_c: at(self.t_c, m2.t_c),
            t_m: at(self.t_m, m2.t_m),
            t_b: at(self.t_b, m2.t_b),
            t_r: at(self.t_r, m2.t_r),
        }
    }
}

/// Warm-up run, then a measured run, of `go` on `db`.
fn measure(db: &mut Database, go: impl Fn(&mut Database) -> DbResult<()>) -> DbResult<Measured> {
    go(db)?;
    let before = db.cpu().snapshot();
    go(db)?;
    Ok(Measured::from_delta(&db.cpu().snapshot().delta(&before)))
}

/// Builds a pilot image mirroring `db`'s profile, processor config and
/// per-table page layouts, loaded (uninstrumented) with the first `rows`
/// rows of each named table, and reproducing `db`'s secondary indexes on
/// those tables. Rows stream from `db`'s heap into the image's one at a
/// time; no copy of a table is held in between.
fn pilot_image(db: &Database, tables: &[(&str, usize)]) -> DbResult<Database> {
    let total_rows: usize = tables.iter().map(|&(_, rows)| rows).sum();
    let mut image = Database::with_capacity(
        db.profile().clone(),
        db.cpu().config().clone(),
        (total_rows as u64 / 8).max(1024),
    );
    image.ctx.instrument = false;
    for &(name, rows) in tables {
        let ti = db.table_idx(name)?;
        let t = db.table(name)?;
        image.create_table_with_layout(name, t.schema.clone(), t.heap.layout)?;
        image.load_rows(name, db.rows_of(ti).take(rows))?;
        for ci in 0..t.schema.arity() {
            if db.index_on(ti, ci).is_some() {
                image.create_index(name, &t.schema.columns()[ci].name)?;
            }
        }
    }
    image.ctx.instrument = true;
    Ok(image)
}

/// How one statement's pilot jobs are put on the host. Nothing in it can
/// reach a [`PlanReport`]: that is what the tests below use the fields for.
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    /// Pool workers; `1` runs every job inline on the calling thread.
    pub(crate) workers: usize,
    /// Deal and steal seed of the pool.
    pub(crate) steal_seed: u64,
    /// The order jobs are handed to the pool in, as a permutation of their
    /// candidate-order numbers (`None`: candidate order).
    pub(crate) order: Option<Vec<usize>>,
    /// Test seam: jobs (candidate-order numbers) whose pilot is armed with
    /// a cycle budget of the job's own number, so that the job fails — in
    /// the executor, mid-run — with an error that names it.
    #[cfg(test)]
    pub(crate) trip: Vec<usize>,
}

impl Schedule {
    /// One worker per host core, candidate order.
    pub(crate) fn host() -> Schedule {
        Schedule {
            workers: ParallelConfig::default().effective_workers(),
            steal_seed: 0,
            order: None,
            #[cfg(test)]
            trip: Vec::new(),
        }
    }
}

/// One measurement: a candidate's knobs on a fork of `images[image]`.
struct PilotJob {
    image: usize,
    config: PhysicalConfig,
}

/// Measures every job — warm-up, then measured run, of `go` — on a pristine
/// fork of its image, as jobs on the shard pool. Results are in `jobs`
/// order whatever `sched` says.
///
/// One pilot per worker, forked here from the largest image so that no
/// reset has to grow a buffer, reset in place by each job that takes it and
/// dropped here: the pool's threads allocate none of a pilot's memory (see
/// the module docs, "Memory").
fn run_pilots(
    images: &[Database],
    jobs: &[PilotJob],
    go: impl Fn(&mut Database) -> DbResult<()> + Sync,
    sched: &Schedule,
) -> Vec<DbResult<Measured>> {
    let order = match &sched.order {
        Some(order) => order.clone(),
        None => (0..jobs.len()).collect(),
    };
    let workers = sched.workers.clamp(1, jobs.len().max(1));
    let Some(largest) = images.iter().max_by_key(|image| image.ctx.arena_used()) else {
        return Vec::new();
    };
    let pilots: Mutex<Vec<Database>> =
        Mutex::new((0..workers).map(|_| Database::fork(largest)).collect());
    let take = || {
        let mut idle = pilots.lock().expect("a pilot job panicked");
        idle.pop().expect("at most one job per worker is running")
    };
    let measured = run_jobs_parallel(order.clone(), workers, sched.steal_seed, |_, job_no| {
        let job = &jobs[job_no];
        let mut pilot = take();
        pilot.reset_from(&images[job.image]);
        job.config.apply(&mut pilot);
        #[cfg(test)]
        if sched.trip.contains(&job_no) {
            pilot.set_budget(crate::ResourceBudget::unlimited().with_max_cycles(job_no as u64));
        }
        let m = measure(&mut pilot, &go);
        pilots.lock().expect("a pilot job panicked").push(pilot);
        m
    });
    let mut by_job: Vec<Option<DbResult<Measured>>> = jobs.iter().map(|_| None).collect();
    for (job_no, m) in order.into_iter().zip(measured) {
        by_job[job_no] = Some(m);
    }
    by_job
        .into_iter()
        .map(|m| m.expect("the job order is a permutation"))
        .collect()
}

fn candidate(config: PhysicalConfig, m: &Measured, pilot_rows: u64) -> CandidateCost {
    CandidateCost {
        config,
        est_cycles: m.cycles,
        t_c: m.t_c,
        t_m: m.t_m,
        t_b: m.t_b,
        t_r: m.t_r,
        pilot_rows,
    }
}

/// Index of the minimum-cost candidate (first wins ties — deterministic).
fn pick(cands: &[CandidateCost]) -> usize {
    let mut best = 0;
    for (i, c) in cands.iter().enumerate().skip(1) {
        if c.est_cycles < cands[best].est_cycles {
            best = i;
        }
    }
    best
}

/// Whether [`plan`] has a physical choice to make for `stmt`: aggregates,
/// joins and grouped queries, not point reads or mutations. Cheap, so a
/// caller can tell before it spends anything on a statement's text.
pub(crate) fn plannable(stmt: &BoundStatement) -> bool {
    matches!(
        stmt,
        BoundStatement::Grouped { .. }
            | BoundStatement::Scalar(Query::SelectAgg { .. } | Query::JoinAgg { .. })
    )
}

/// Plans a bound statement against `db`. Returns `None` for statements with
/// no physical choice to make (point reads and mutations run as-is).
pub(crate) fn plan(
    db: &Database,
    sql: &str,
    stmt: &BoundStatement,
    sched: &Schedule,
) -> DbResult<Option<PlanReport>> {
    match stmt {
        // A grouped aggregate is its scalar twin plus a group key: the same
        // access path and the same knobs, costed by running it as bound.
        BoundStatement::Scalar(Query::SelectAgg {
            table, predicate, ..
        })
        | BoundStatement::Grouped {
            table, predicate, ..
        } => plan_scan(db, sql, stmt, table, predicate.is_some(), sched).map(Some),
        BoundStatement::Scalar(Query::JoinAgg { .. }) => plan_join(db, sql, stmt, sched).map(Some),
        BoundStatement::Scalar(_) => Ok(None),
    }
}

/// A pilot's run of `stmt`: one crossing of the entry gate, as
/// [`Database::run`] makes for an aggregate.
fn run_stmt(pilot: &mut Database, stmt: &BoundStatement) -> DbResult<()> {
    pilot.gated(|db| db.agg_partial(stmt, None)).map(|_| ())
}

/// Exec-mode × selection-mode candidates for a filtered plan; exec modes
/// only when there is no filter to qualify.
fn scan_configs(has_filter: bool) -> Vec<PhysicalConfig> {
    let mut out = Vec::new();
    for mode in [ExecMode::Row, ExecMode::Batch] {
        if has_filter {
            for sel in [SelectionMode::Branching, SelectionMode::Predicated] {
                out.push(PhysicalConfig {
                    exec_mode: mode,
                    selection_mode: Some(sel),
                    join_algo: None,
                });
            }
        } else {
            out.push(PhysicalConfig {
                exec_mode: mode,
                selection_mode: None,
                join_algo: None,
            });
        }
    }
    out
}

/// The verdict over costed candidates; `image` (any of the statement's,
/// its jobs done) renders the winner's plan shape.
fn report(
    sql: &str,
    stmt: &BoundStatement,
    image: &mut Database,
    candidates: Vec<CandidateCost>,
    full_rows: u64,
) -> DbResult<PlanReport> {
    let chosen = pick(&candidates);
    candidates[chosen].config.apply(image);
    Ok(PlanReport {
        sql: sql.to_string(),
        shape: image.explain(stmt)?,
        candidates,
        chosen,
        full_rows,
    })
}

fn plan_scan(
    db: &Database,
    sql: &str,
    stmt: &BoundStatement,
    table: &str,
    has_filter: bool,
    sched: &Schedule,
) -> DbResult<PlanReport> {
    let full = db.table(table)?.heap.n_records;
    let pilot_rows = full.min(PILOT_SCAN_ROWS as u64);
    let mut images = [pilot_image(db, &[(table, pilot_rows as usize)])?];
    let factor = full as f64 / pilot_rows.max(1) as f64;

    let configs = scan_configs(has_filter);
    let jobs: Vec<PilotJob> = configs
        .iter()
        .map(|&config| PilotJob { image: 0, config })
        .collect();
    let measured = run_pilots(&images, &jobs, |pilot| run_stmt(pilot, stmt), sched);
    let mut candidates = Vec::new();
    for (config, m) in configs.into_iter().zip(measured) {
        candidates.push(candidate(config, &m?.scale(factor), pilot_rows));
    }
    report(sql, stmt, &mut images[0], candidates, full)
}

fn plan_join(
    db: &Database,
    sql: &str,
    stmt: &BoundStatement,
    sched: &Schedule,
) -> DbResult<PlanReport> {
    let BoundStatement::Scalar(Query::JoinAgg {
        left,
        right,
        right_col,
        ..
    }) = stmt
    else {
        return Err(DbError::PlanError("plan_join on a non-join".into()));
    };
    let full = db.table(left)?.heap.n_records as usize;
    let build_rows = db.table(right)?.heap.n_records as usize;

    // Full build side, two probe prefixes: the hash table the pilot builds
    // is the real one, so its (non-)residency in L2 — the crossover the
    // partitioned join exists for — is measured, not modeled.
    let (p1, p2) = (
        full.min(PILOT_PROBE_ROWS.0).max(1),
        full.min(PILOT_PROBE_ROWS.1).max(1),
    );
    let probe_sizes = if p2 > p1 { vec![p1, p2] } else { vec![p1] };
    let mut images = probe_sizes
        .iter()
        .map(|&p| pilot_image(db, &[(left, p), (right, build_rows)]))
        .collect::<DbResult<Vec<Database>>>()?;

    let rkey = db.table(right)?.schema.col(right_col)?;
    let mut algos = vec![JoinAlgo::Hash, JoinAlgo::PartitionedHash];
    if db.index_on(db.table_idx(right)?, rkey).is_some() {
        algos.push(JoinAlgo::IndexNestedLoop);
    }
    let mut configs = Vec::new();
    for mode in [ExecMode::Row, ExecMode::Batch] {
        for &algo in &algos {
            configs.push(PhysicalConfig {
                exec_mode: mode,
                selection_mode: None,
                join_algo: Some(algo),
            });
        }
    }

    // One job per (candidate, image), a candidate's jobs adjacent.
    let jobs: Vec<PilotJob> = configs
        .iter()
        .flat_map(|&config| (0..images.len()).map(move |image| PilotJob { image, config }))
        .collect();
    let measured = run_pilots(&images, &jobs, |pilot| run_stmt(pilot, stmt), sched);
    let mut measured = measured.into_iter();
    let mut candidates = Vec::new();
    for config in configs {
        let m1 = measured.next().expect("a job per image")?;
        let est = match images.len() {
            1 => m1,
            _ => {
                let m2 = measured.next().expect("a job per image")?;
                m1.extrapolate(&m2, p1 as f64, p2 as f64, full as f64)
            }
        };
        candidates.push(candidate(config, &est, p2 as u64));
    }
    report(sql, stmt, &mut images[0], candidates, full as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::PageLayout;
    use crate::schema::Schema;
    use crate::sql::{compile, Session};
    use crate::testutil::{quiet, rows_for};
    use crate::{EngineProfile, ResourceBudget, SystemId};

    const SCAN: &str = "SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 400";
    const GROUPED: &str = "SELECT a4, SUM(a3) FROM R WHERE a2 > 50 AND a2 < 300 GROUP BY a4";
    const JOIN_S: &str = "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1";
    const JOIN_T: &str = "SELECT MAX(R.a3) FROM R, T WHERE R.a2 = T.a1";

    /// R (6 000 rows), S (400) and T (4 000) on a processor whose L2 is
    /// 64 KB: S's hash table (13 KB) fits it, T's (128 KB) does not.
    fn catalog(layout: PageLayout, index_build_keys: bool) -> Database {
        let cfg = quiet().with_l2_size(64 * 1024);
        let mut db = Database::new(EngineProfile::system(SystemId::C), cfg);
        db.ctx.instrument = false;
        for (name, rows, seed) in [("R", 6_000, 3), ("S", 400, 5), ("T", 4_000, 7)] {
            db.create_table_with_layout(name, Schema::paper_relation(20), layout)
                .unwrap();
            db.load_rows(name, rows_for(rows, seed)).unwrap();
            if index_build_keys && name != "R" {
                db.create_index(name, "a1").unwrap();
            }
        }
        db.ctx.instrument = true;
        db
    }

    fn sched(workers: usize, steal_seed: u64, order: Option<Vec<usize>>) -> Schedule {
        Schedule {
            workers,
            steal_seed,
            order,
            trip: Vec::new(),
        }
    }

    fn plan_under(db: &Database, sql: &str, sched: &Schedule) -> PlanReport {
        let stmt = compile(db, sql).unwrap();
        plan(db, sql, &stmt, sched).unwrap().expect("plannable")
    }

    /// Every float of every candidate, as bits: `==` on the reports would
    /// let `0.0 == -0.0` through.
    fn bits(report: &PlanReport) -> Vec<[u64; 5]> {
        report
            .candidates
            .iter()
            .map(|c| [c.est_cycles, c.t_c, c.t_m, c.t_b, c.t_r].map(f64::to_bits))
            .collect()
    }

    /// Pilot jobs of a statement: one per scan candidate, two per join's.
    fn job_count(report: &PlanReport) -> usize {
        let per_candidate = 1 + report.candidates[0].config.join_algo.is_some() as usize;
        report.candidates.len() * per_candidate
    }

    #[test]
    fn candidate_costs_do_not_depend_on_job_order() {
        let db = catalog(PageLayout::Nsm, true);
        for sql in [SCAN, GROUPED, JOIN_S, JOIN_T] {
            let base = plan_under(&db, sql, &sched(1, 0, None));
            let n = job_count(&base);
            let reversed: Vec<usize> = (0..n).rev().collect();
            // A fixed derangement-ish shuffle: stride coprime to every n here.
            let shuffled: Vec<usize> = (0..n).map(|i| (i * 5 + 3) % n).collect();
            for order in [reversed, shuffled] {
                // One worker: the single pilot meets the jobs in this order.
                for workers in [1, 2] {
                    let got = plan_under(&db, sql, &sched(workers, 9, Some(order.clone())));
                    assert_eq!(bits(&got), bits(&base), "{sql} under {order:?}");
                    assert_eq!(got, base);
                }
            }
        }
    }

    #[test]
    fn reports_do_not_depend_on_workers_or_steal_seed() {
        for indexed in [false, true] {
            let db = catalog(PageLayout::Nsm, indexed);
            for sql in [SCAN, GROUPED, JOIN_S, JOIN_T] {
                let base = plan_under(&db, sql, &sched(1, 0, None));
                let joins = sql == JOIN_S || sql == JOIN_T;
                let expected = match (joins, indexed) {
                    (false, _) => 4,
                    (true, false) => 4,
                    (true, true) => 6,
                };
                assert_eq!(base.candidates.len(), expected, "{sql}");
                for (workers, seed) in [(2, 1), (4, 2), (2, 77), (4, 1)] {
                    let got = plan_under(&db, sql, &sched(workers, seed, None));
                    assert_eq!(
                        bits(&got),
                        bits(&base),
                        "{sql}: {workers} workers, seed {seed}"
                    );
                    assert_eq!(got, base);
                }
            }
            // The two regimes are really two: partitioning pays only where
            // the build side's table exceeds the L2.
            let est = |sql: &str, algo: JoinAlgo| {
                let report = plan_under(&db, sql, &sched(2, 0, None));
                let c = report.candidates.iter().find(|c| {
                    c.config.exec_mode == ExecMode::Batch && c.config.join_algo == Some(algo)
                });
                c.expect("a batch candidate per algorithm").est_cycles
            };
            assert!(est(JOIN_S, JoinAlgo::Hash) < est(JOIN_S, JoinAlgo::PartitionedHash));
            assert!(est(JOIN_T, JoinAlgo::PartitionedHash) < est(JOIN_T, JoinAlgo::Hash));
        }
    }

    /// Warm-up and measured-run deltas of `go` on `db`, counters and all.
    fn two_runs(db: &mut Database, go: &dyn Fn(&mut Database) -> DbResult<()>) -> [Snapshot; 2] {
        let start = db.cpu().snapshot();
        go(db).unwrap();
        let warm = db.cpu().snapshot();
        go(db).unwrap();
        [warm.delta(&start), db.cpu().snapshot().delta(&warm)]
    }

    #[test]
    fn a_fork_and_a_reset_pilot_reproduce_a_fresh_image_bit_for_bit() {
        for layout in PageLayout::ALL {
            let db = catalog(layout, true);
            let scan = compile(&db, SCAN).unwrap();
            let join = compile(&db, JOIN_T).unwrap();
            let (BoundStatement::Scalar(scan), BoundStatement::Scalar(join)) = (scan, join) else {
                panic!("scalar statements");
            };
            let tables = [("R", 1536), ("T", 4_000)];
            for mode in [ExecMode::Row, ExecMode::Batch] {
                for (q, algo) in [
                    (&scan, JoinAlgo::Hash),
                    (&join, JoinAlgo::Hash),
                    (&join, JoinAlgo::PartitionedHash),
                    (&join, JoinAlgo::IndexNestedLoop),
                ] {
                    let config = PhysicalConfig {
                        exec_mode: mode,
                        selection_mode: Some(SelectionMode::Predicated),
                        join_algo: Some(algo),
                    };
                    let go = |p: &mut Database| p.run(q).map(|_| ());
                    // The reference: an image built for this run alone and
                    // run directly, as the sequential planner's pilot was.
                    let mut fresh = pilot_image(&db, &tables).unwrap();
                    config.apply(&mut fresh);
                    let want = two_runs(&mut fresh, &go);

                    let image = pilot_image(&db, &tables).unwrap();
                    let mut pilot = Database::fork(&image);
                    config.apply(&mut pilot);
                    assert_eq!(two_runs(&mut pilot, &go), want, "fork, {layout:?} {mode:?}");

                    // Dirty it with other work under other knobs, then reset.
                    pilot.set_exec_mode(ExecMode::Row);
                    pilot.set_join_algo(JoinAlgo::PartitionedHash);
                    pilot.set_budget(ResourceBudget::unlimited().with_max_cycles(u64::MAX));
                    pilot.run(&join).unwrap();
                    pilot.run(&scan).unwrap();
                    pilot.reset_from(&image);
                    config.apply(&mut pilot);
                    assert_eq!(
                        two_runs(&mut pilot, &go),
                        want,
                        "reset, {layout:?} {mode:?}"
                    );
                    assert_eq!(pilot.ctx.arena_used(), fresh.ctx.arena_used());
                }
            }
        }
    }

    #[test]
    fn an_estimate_does_not_depend_on_what_the_session_ran_before() {
        let mut busy = Session::open(catalog(PageLayout::Nsm, false));
        for sql in [SCAN, JOIN_S, JOIN_T, SCAN] {
            busy.sql(sql).unwrap();
        }
        let idle = catalog(PageLayout::Nsm, false);
        for sql in [SCAN, JOIN_T] {
            let host = Schedule::host();
            let after_work = plan_under(busy.db().unwrap(), sql, &host);
            assert_eq!(
                bits(&after_work),
                bits(&plan_under(&idle, sql, &host)),
                "{sql}"
            );
        }
    }

    #[test]
    fn planning_leaves_the_session_database_untouched() {
        let mut sess = Session::open(catalog(PageLayout::Nsm, true));
        sess.sql(SCAN).unwrap(); // a core with some history
        let state = |sess: &Session| {
            let db = sess.db().unwrap();
            let blocks = &db.profile().blocks;
            (
                db.cpu().snapshot(),
                [
                    &blocks.query_setup,
                    &blocks.scan_next,
                    &blocks.hash_probe,
                    &blocks.batch.dispatch,
                    &blocks.batch.hash_step,
                ]
                .map(|block| db.cpu().rotation(block)),
                [db.ctx.heap.used(), db.ctx.index.used(), db.ctx.misc.used()],
                db.catalog_epoch,
            )
        };
        let before = state(&sess);
        for sql in [SCAN, GROUPED, JOIN_S, JOIN_T] {
            sess.explain(sql).unwrap();
        }
        assert!(state(&sess) == before, "planning moved session state");
        // The window is not blind: executing does move it.
        sess.sql(JOIN_S).unwrap();
        let after = state(&sess);
        assert_ne!(after.0, before.0);
        assert_ne!(after.1, before.1);
        assert_ne!(after.2, before.2);
    }

    #[test]
    fn a_failed_pilot_job_surfaces_first_in_candidate_order_and_spoils_nothing() {
        const ALL_ROWS: &str = "SELECT COUNT(*) FROM R WHERE a2 < 100000";
        let db = catalog(PageLayout::Nsm, false);
        let clean = plan_under(&db, ALL_ROWS, &sched(1, 0, None));

        // Jobs that trip mid-run leave their pilot to the jobs after them:
        // with one worker, in every order, the others measure what they did.
        let image = pilot_image(&db, &[("R", PILOT_SCAN_ROWS)]).unwrap();
        let stmt = compile(&db, ALL_ROWS).unwrap();
        let BoundStatement::Scalar(q) = &stmt else {
            panic!("scalar statement");
        };
        let jobs: Vec<PilotJob> = scan_configs(true)
            .into_iter()
            .map(|config| PilotJob { image: 0, config })
            .collect();
        for order in [None, Some(vec![3, 2, 1, 0]), Some(vec![1, 3, 0, 2])] {
            let mut tripping = sched(1, 0, order);
            tripping.trip = vec![3, 1];
            let got = run_pilots(
                std::slice::from_ref(&image),
                &jobs,
                |p| p.run(q).map(|_| ()),
                &tripping,
            );
            for (job_no, m) in got.iter().enumerate() {
                match m {
                    Ok(m) => {
                        let factor = clean.full_rows as f64 / PILOT_SCAN_ROWS as f64;
                        let est = m.scale(factor).cycles;
                        assert_eq!(est.to_bits(), clean.candidates[job_no].est_cycles.to_bits());
                    }
                    Err(e) => assert!(
                        matches!(e, DbError::BudgetExceeded { limit, .. } if *limit == job_no as u64),
                        "job {job_no}: {e:?}"
                    ),
                }
            }
            assert!(got[1].is_err() && got[3].is_err() && got[0].is_ok() && got[2].is_ok());
        }

        // Through the front door: the first failure in candidate order,
        // under any schedule, and a session that carries on.
        let mut sess = Session::open(db);
        for (workers, order) in [(1, None), (2, Some(vec![3, 2, 1, 0])), (4, None)] {
            sess.schedule = sched(workers, 5, order);
            sess.schedule.trip = vec![3, 1];
            let err = sess.sql(ALL_ROWS).unwrap_err();
            assert!(
                matches!(
                    err,
                    DbError::BudgetExceeded {
                        resource: "cycles",
                        limit: 1,
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(sess.last_plan().is_none(), "a failed plan left a report");
        }
        sess.schedule = Schedule::host();
        let answer = sess.sql(ALL_ROWS).unwrap();
        assert_eq!(answer.rows, 6_000);
        assert_eq!(bits(sess.last_plan().unwrap()), bits(&clean));
        assert!(sess.sql(SCAN).is_ok());
    }
}
