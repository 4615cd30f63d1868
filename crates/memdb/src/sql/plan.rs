//! The simulator-costed physical planner.
//!
//! For a bound aggregate query the planner enumerates every candidate
//! physical configuration over the engine's knobs — execution mode
//! ([`ExecMode`]), qualification strategy ([`SelectionMode`]) and join
//! algorithm ([`JoinAlgo`]) — and *measures* each candidate by running it on
//! a **pilot database**: a fresh [`Database`] (its own simulated processor,
//! so the session's counters are untouched) loaded with a sampled prefix of
//! the real tables in the same page layouts. The cost model is the paper's
//! execution-time breakdown itself: each candidate's simulated
//! `T_Q = T_C + T_M + T_B + T_R` on the pilot, extrapolated to full size.
//!
//! * **Scans / grouped aggregates** are page-linear: the pilot holds a
//!   row prefix (up to [`PILOT_SCAN_ROWS`]) and costs scale by
//!   `full_rows / pilot_rows`.
//! * **Joins** are *not* linear in the build side — the hash table's
//!   residency in L2 is exactly what separates the naive and partitioned
//!   joins — so the pilot keeps the **full build side** and samples only
//!   the probe side, at two sizes; per-probe-row cost comes from the linear
//!   fit through the two measurements (`cost(n) = fixed + rate·n`), which
//!   separates the build-side fixed cost from the probe rate instead of
//!   wrongly scaling both.
//!
//! Candidates are enumerated in a fixed order and ties keep the earlier
//! candidate, so planning is deterministic. A warm-up run precedes every
//! measured pilot run, mirroring the §4.3 methodology.

use wdtg_sim::{Component, Mode, Snapshot};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::{ExecMode, SelectionMode};
use crate::profiles::JoinAlgo;
use crate::query::{AggSpec, Query, QueryPredicate};

use super::bind::BoundStatement;

/// Max pilot rows for page-linear plans (scans, grouped aggregates).
pub const PILOT_SCAN_ROWS: usize = 2048;
/// The two probe-side sample sizes of the join pilot's linear fit.
pub const PILOT_PROBE_ROWS: (usize, usize) = (512, 1536);

/// One knob setting the planner can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalConfig {
    /// Row-at-a-time or vectorized execution.
    pub exec_mode: ExecMode,
    /// Qualification strategy; `None` when the plan has no filter.
    pub selection_mode: Option<SelectionMode>,
    /// Join algorithm; `None` for non-join plans.
    pub join_algo: Option<JoinAlgo>,
}

impl PhysicalConfig {
    /// Compact human label, e.g. `batch/predicated` or `row/partitioned`.
    pub fn label(&self) -> String {
        let mut parts = vec![match self.exec_mode {
            ExecMode::Row => "row",
            ExecMode::Batch => "batch",
        }
        .to_string()];
        if let Some(s) = self.selection_mode {
            parts.push(
                match s {
                    SelectionMode::Branching => "branching",
                    SelectionMode::Predicated => "predicated",
                }
                .to_string(),
            );
        }
        if let Some(j) = self.join_algo {
            parts.push(
                match j {
                    JoinAlgo::Hash => "hash",
                    JoinAlgo::PartitionedHash => "partitioned",
                    JoinAlgo::IndexNestedLoop => "index-nl",
                }
                .to_string(),
            );
        }
        parts.join("/")
    }

    /// Applies the chosen knobs to a database.
    pub fn apply(&self, db: &mut Database) {
        db.set_exec_mode(self.exec_mode);
        if let Some(s) = self.selection_mode {
            db.set_selection_mode(s);
        }
        if let Some(j) = self.join_algo {
            db.set_join_algo(j);
        }
    }
}

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
fn measure(
    db: &mut Database,
    mut go: impl FnMut(&mut Database) -> DbResult<()>,
) -> DbResult<Measured> {
    go(db)?;
    let before = db.cpu().snapshot();
    go(db)?;
    Ok(Measured::from_delta(&db.cpu().snapshot().delta(&before)))
}

/// Builds a pilot database mirroring `db`'s profile, processor config and
/// per-table page layouts, loaded (uninstrumented) with the given rows, and
/// reproducing `db`'s secondary indexes on those tables.
fn pilot_db(db: &Database, tables: &[(&str, &[Vec<i32>])]) -> DbResult<Database> {
    let total_rows: usize = tables.iter().map(|(_, r)| r.len()).sum();
    let mut profile = db.profile().clone();
    // Private code blocks: the pilot is its own simulated core, and must not
    // advance the session's block-rotation state.
    profile.privatize_blocks();
    let mut pilot = Database::with_capacity(
        profile,
        db.cpu().config().clone(),
        (total_rows as u64 / 8).max(1024),
    );
    pilot.ctx.instrument = false;
    for (name, rows) in tables {
        let ti = db.table_idx(name)?;
        let t = db.table(name)?;
        pilot.create_table_with_layout(name, t.schema.clone(), t.heap.layout)?;
        pilot.load_rows(name, rows.iter().cloned())?;
        for ci in 0..t.schema.arity() {
            if db.index_on(ti, ci).is_some() {
                pilot.create_index(name, &t.schema.columns()[ci].name)?;
            }
        }
    }
    pilot.ctx.instrument = true;
    Ok(pilot)
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
) -> DbResult<Option<PlanReport>> {
    match stmt {
        BoundStatement::Scalar(q) => match q {
            Query::SelectAgg {
                table, predicate, ..
            } => plan_scan(db, sql, q, table, predicate.as_ref(), None).map(Some),
            Query::JoinAgg { .. } => plan_join(db, sql, q).map(Some),
            _ => Ok(None),
        },
        BoundStatement::Grouped {
            table,
            group_col,
            predicate,
            agg,
        } => plan_grouped(db, sql, table, group_col, predicate.as_ref(), agg).map(Some),
    }
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

fn plan_scan(
    db: &Database,
    sql: &str,
    q: &Query,
    table: &str,
    predicate: Option<&QueryPredicate>,
    grouped: Option<(&str, &AggSpec)>,
) -> DbResult<PlanReport> {
    let ti = db.table_idx(table)?;
    let full = db.table(table)?.heap.n_records as usize;
    let prefix = db.table_rows(ti, PILOT_SCAN_ROWS)?;
    let mut pilot = pilot_db(db, &[(table, &prefix[..])])?;
    let factor = full as f64 / prefix.len().max(1) as f64;

    let mut candidates = Vec::new();
    for config in scan_configs(predicate.is_some()) {
        config.apply(&mut pilot);
        let m = match grouped {
            None => measure(&mut pilot, |p| p.run(q).map(|_| ()))?,
            Some((group_col, agg)) => measure(&mut pilot, |p| {
                p.run_grouped(table, group_col, predicate, agg).map(|_| ())
            })?,
        };
        candidates.push(candidate(config, &m.scale(factor), prefix.len() as u64));
    }
    let chosen = pick(&candidates);
    let shape = {
        let mut shaped = pilot;
        candidates[chosen].config.apply(&mut shaped);
        shaped.explain(q)?
    };
    Ok(PlanReport {
        sql: sql.to_string(),
        shape,
        candidates,
        chosen,
        full_rows: full as u64,
    })
}

fn plan_grouped(
    db: &Database,
    sql: &str,
    table: &str,
    group_col: &str,
    predicate: Option<&QueryPredicate>,
    agg: &AggSpec,
) -> DbResult<PlanReport> {
    // The grouped plan is the scan plan plus a group map; reuse the scan
    // pilot with the grouped runner. The structural explain renders the
    // equivalent ungrouped aggregate (grouping adds no physical choice).
    let q = Query::SelectAgg {
        table: table.to_string(),
        predicate: predicate.cloned(),
        agg: agg.clone(),
    };
    plan_scan(db, sql, &q, table, predicate, Some((group_col, agg)))
}

fn plan_join(db: &Database, sql: &str, q: &Query) -> DbResult<PlanReport> {
    let Query::JoinAgg {
        left,
        right,
        right_col,
        ..
    } = q
    else {
        return Err(DbError::PlanError("plan_join on a non-join".into()));
    };
    let li = db.table_idx(left)?;
    let ri = db.table_idx(right)?;
    let probe_rows = db.table_rows(li, PILOT_PROBE_ROWS.1)?;
    let build_rows = db.table_rows(ri, usize::MAX)?;
    let full = db.table(left)?.heap.n_records as usize;

    // Full build side, two probe prefixes: the hash table the pilot builds
    // is the real one, so its (non-)residency in L2 — the crossover the
    // partitioned join exists for — is measured, not modeled.
    let (p1, p2) = (
        full.min(PILOT_PROBE_ROWS.0).max(1),
        full.min(PILOT_PROBE_ROWS.1).max(1),
    );
    let mut pilot1 = pilot_db(db, &[(left, &probe_rows[..p1]), (right, &build_rows[..])])?;
    let mut pilot2 = if p2 > p1 {
        Some(pilot_db(
            db,
            &[(left, &probe_rows[..p2]), (right, &build_rows[..])],
        )?)
    } else {
        None
    };

    let rkey = db.table(right)?.schema.col(right_col)?;
    let mut algos = vec![JoinAlgo::Hash, JoinAlgo::PartitionedHash];
    if db.index_on(ri, rkey).is_some() {
        algos.push(JoinAlgo::IndexNestedLoop);
    }

    let mut candidates = Vec::new();
    for mode in [ExecMode::Row, ExecMode::Batch] {
        for &algo in &algos {
            let config = PhysicalConfig {
                exec_mode: mode,
                selection_mode: None,
                join_algo: Some(algo),
            };
            config.apply(&mut pilot1);
            let m1 = measure(&mut pilot1, |p| p.run(q).map(|_| ()))?;
            let est = match pilot2.as_mut() {
                None => m1,
                Some(pilot2) => {
                    config.apply(pilot2);
                    let m2 = measure(pilot2, |p| p.run(q).map(|_| ()))?;
                    m1.extrapolate(&m2, p1 as f64, p2 as f64, full as f64)
                }
            };
            candidates.push(candidate(config, &est, p2 as u64));
        }
    }
    let chosen = pick(&candidates);
    let shape = {
        let mut shaped = pilot1;
        candidates[chosen].config.apply(&mut shaped);
        shaped.explain(q)?
    };
    Ok(PlanReport {
        sql: sql.to_string(),
        shape,
        candidates,
        chosen,
        full_rows: full as u64,
    })
}
