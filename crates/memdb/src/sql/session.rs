//! The unified front door: [`Session`] wraps a database, accepts SQL text,
//! and drives the full pipeline — lex → parse → bind → simulator-costed
//! plan → execute.
//!
//! A session has one backend, a [`ShardedDatabase`]: [`Session::open`]
//! wraps a single database as its only shard, [`Session::open_sharded`]
//! takes one split by [`Database::shard`]. Every statement outside a
//! transaction runs through the shard router on the caller's thread (see
//! [`crate::shard`]), so the fault path is the router's at any shard count:
//! under an armed [`crate::FaultPlan`] a read draws
//! [`crate::FaultSite::ShardExec`] and retries transient faults.
//!
//! ```
//! use wdtg_memdb::prelude::*;
//! use wdtg_sim::{CpuConfig, InterruptCfg};
//! use wdtg_memdb::{EngineProfile, Schema, SystemId};
//!
//! let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled());
//! let mut db = Database::new(EngineProfile::system(SystemId::D), cfg);
//! db.create_table("R", Schema::paper_relation(20)).unwrap();
//! db.load_rows("R", (0..500).map(|i| vec![i, i % 512, i % 1009, 0, 0])).unwrap();
//!
//! let mut sess = Session::open(db);
//! let r = sess.sql("SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 300").unwrap();
//! assert!(r.rows > 0);
//! println!("{}", sess.explain("SELECT AVG(a3) FROM R WHERE a2 > 100 AND a2 < 300").unwrap());
//! ```

use std::collections::{HashMap, VecDeque};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::partial::{groups, scalar};
use crate::exec::PhysicalConfig;
use crate::query::{BoundStatement, QueryResult};
use crate::shard::ShardedDatabase;
use crate::txn::{aggregate_in_txn, TxnId};

use super::bind::compile;
use super::plan::{plan, plannable, PlanReport, Schedule};

/// Most statements the plan cache remembers; planning one more forgets the
/// one planned longest ago. An ad-hoc client whose aggregate texts never
/// repeat (literal bounds) would otherwise grow the cache by an entry per
/// statement for as long as the session lives.
const PLAN_CACHE_CAP: usize = 1024;

/// A SQL session over one database of one or more shards.
///
/// The session owns the database, a plan cache (keyed by statement text),
/// and the report of the last planning decision. Aggregate queries are
/// physically planned on first sight — every knob candidate is costed on a
/// sampled pilot run of the cycle simulator (see [`crate::sql::plan`]) —
/// and the winning configuration is cached and re-applied on repeats,
/// until a bulk load, a new table or a new index changes what it was
/// costed against (single-row SQL `INSERT`s do not; see
/// `Database::catalog_epoch`). The cache holds the 1 024 most recently
/// planned statements. Point reads and mutations have no physical choice
/// and bypass planning.
///
/// A session behaves the same at one shard however it was opened:
/// [`Session::open`] and [`Session::open_sharded`] of a one-shard split
/// both run statements through the shard router, so under an armed
/// [`crate::FaultPlan`] both draw [`crate::FaultSite::ShardExec`] and retry
/// a transient `IoFault`/`PageCorrupt` up to three times, charging the
/// simulated backoff; both accept [`Session::begin`], which any session
/// over more than one shard refuses.
pub struct Session {
    db: ShardedDatabase,
    plans: HashMap<String, PhysicalConfig>,
    /// The keys of `plans`, oldest first.
    plan_age: VecDeque<String>,
    /// The planning database's catalog epoch `plans` was filled under.
    plans_epoch: u64,
    /// How pilot jobs are put on the host (never what they measure).
    pub(crate) schedule: Schedule,
    last_report: Option<PlanReport>,
    /// The open transaction statements are routed through, if any. Only
    /// ever set on a one-shard session.
    current: Option<TxnId>,
}

impl Session {
    /// Opens a session over a single-core database: the database becomes
    /// the session's only shard, as it stands (no re-partition).
    pub fn open(db: Database) -> Session {
        Session::open_sharded(ShardedDatabase::from_shards(vec![db]))
    }

    /// Opens a session over a sharded database. Planning runs against
    /// shard 0 — with co-partitioned data each shard sees the same regime
    /// (per-shard partition sizes are what the join actually runs over),
    /// and the chosen knobs are applied to every shard.
    pub fn open_sharded(db: ShardedDatabase) -> Session {
        Session {
            db,
            plans: HashMap::new(),
            plan_age: VecDeque::new(),
            plans_epoch: 0,
            schedule: Schedule::host(),
            last_report: None,
            current: None,
        }
    }

    /// The underlying database, if the session has exactly one shard.
    pub fn db(&self) -> Option<&Database> {
        match self.db.shards() {
            [db] => Some(db),
            _ => None,
        }
    }

    /// Mutable access to the database of a one-shard session (knobs,
    /// snapshots).
    pub fn db_mut(&mut self) -> Option<&mut Database> {
        match self.db.shards.as_mut_slice() {
            [db] => Some(db),
            _ => None,
        }
    }

    /// Consumes the session, returning its database.
    ///
    /// # Panics
    /// Panics if the session has more than one shard.
    pub fn into_db(self) -> Database {
        match <[Database; 1]>::try_from(self.db.shards) {
            Ok([db]) => db,
            Err(shards) => panic!("into_db on a session over {} shards", shards.len()),
        }
    }

    /// The planner report of the most recent planned statement (from
    /// [`Session::sql`], [`Session::sql_grouped`] or [`Session::explain`]).
    /// Cache hits do not refresh it.
    pub fn last_plan(&self) -> Option<&PlanReport> {
        self.last_report.as_ref()
    }

    /// The planning database: shard 0.
    fn plan_db(&self) -> &Database {
        &self.db.shards()[0]
    }

    /// Empties the plan cache if the planning database's catalog epoch
    /// moved since it was filled.
    fn drop_stale_plans(&mut self) {
        let epoch = self.plan_db().catalog_epoch;
        if epoch != self.plans_epoch {
            self.plans.clear();
            self.plan_age.clear();
            self.plans_epoch = epoch;
        }
    }

    /// Remembers `text`'s plan, forgetting the oldest entry when that would
    /// make [`PLAN_CACHE_CAP`] + 1 of them. Re-planning a cached statement
    /// (`EXPLAIN`) updates its choice and leaves its age alone.
    fn remember_plan(&mut self, text: &str, config: PhysicalConfig) {
        self.drop_stale_plans();
        if self.plans.insert(text.to_string(), config).is_some() {
            return;
        }
        self.plan_age.push_back(text.to_string());
        if self.plan_age.len() > PLAN_CACHE_CAP {
            let oldest = self.plan_age.pop_front().expect("over the cap");
            self.plans.remove(&oldest);
        }
    }

    /// Plans `stmt` (or reuses the cached choice) and applies the winning
    /// knobs to every shard. A statement with nothing to plan returns
    /// before the cache is looked at: an OLTP client's point statements
    /// differ in their literal keys, and a cache keyed by text would keep
    /// one entry for each of them.
    fn plan_and_apply(&mut self, text: &str, stmt: &BoundStatement) -> DbResult<()> {
        if !plannable(stmt) {
            return Ok(());
        }
        self.drop_stale_plans();
        let config = match self.plans.get(text) {
            Some(&cached) => cached,
            None => {
                let Some(report) = plan(self.plan_db(), text, stmt, &self.schedule)? else {
                    return Ok(());
                };
                let config = report.chosen().config;
                self.last_report = Some(report);
                self.remember_plan(text, config);
                config
            }
        };
        self.db.configure(config);
        Ok(())
    }

    /// Executes one SQL statement and returns its scalar result.
    ///
    /// Grouped queries (`GROUP BY`) return per-group rows, not a scalar —
    /// submit them through [`Session::sql_grouped`]; this method reports a
    /// [`DbError::PlanError`] for them.
    pub fn sql(&mut self, text: &str) -> DbResult<QueryResult> {
        let stmt = compile(self.plan_db(), text)?;
        let BoundStatement::Scalar(q) = &stmt else {
            return Err(DbError::PlanError(
                "grouped query returns per-group rows; use Session::sql_grouped".into(),
            ));
        };
        // An open transaction captures every statement: reads see the
        // snapshot (plus the session's own staged writes), mutations stage
        // until COMMIT, and aggregates — which have no snapshot-aware path —
        // are refused, unplanned.
        if let Some(tid) = self.current {
            return self.db.shards[0].txn_run(tid, q);
        }
        self.plan_and_apply(text, &stmt)?;
        self.db.route(&stmt, None).map(scalar)
    }

    /// Executes a `GROUP BY` aggregate, returning `(group key, value)`
    /// pairs in ascending key order. Refused with [`DbError::PlanError`]
    /// while a transaction is open, like every aggregate: no aggregate
    /// path sees a snapshot.
    pub fn sql_grouped(&mut self, text: &str) -> DbResult<Vec<(i32, f64)>> {
        let stmt = compile(self.plan_db(), text)?;
        if !matches!(stmt, BoundStatement::Grouped { .. }) {
            return Err(DbError::PlanError(
                "statement is not grouped; use Session::sql".into(),
            ));
        }
        if self.current.is_some() {
            return Err(aggregate_in_txn());
        }
        self.plan_and_apply(text, &stmt)?;
        self.db.route(&stmt, None).map(groups)
    }

    /// Plans a statement without executing it and renders the decision:
    /// the chosen plan shape plus every candidate's simulated stall-term
    /// cost (`T_C`/`T_M`/`T_B`/`T_R`), winner starred. Unplanned statements
    /// (point reads, mutations) render their structural plan only.
    ///
    /// `EXPLAIN` always re-plans (and refreshes [`Session::last_plan`]);
    /// the resulting choice is cached for subsequent executions.
    pub fn explain(&mut self, text: &str) -> DbResult<String> {
        let stmt = compile(self.plan_db(), text)?;
        match plan(self.plan_db(), text, &stmt, &self.schedule)? {
            Some(report) => {
                let rendered = report.render();
                self.remember_plan(text, report.chosen().config);
                self.last_report = Some(report);
                Ok(rendered)
            }
            None => {
                let shape = self.plan_db().explain(&stmt)?;
                Ok(format!(
                    "sql: {text}\nplan:\n  {shape}\n(no physical alternatives; runs as-is)\n"
                ))
            }
        }
    }

    /// Opens a transaction; subsequent point reads and mutations through
    /// [`Session::sql`] run against its snapshot until [`Session::commit`]
    /// or [`Session::abort`], and aggregates are refused with
    /// [`DbError::PlanError`] until then. One transaction at a time per session;
    /// beginning while one is open reports a [`DbError::PlanError`], as
    /// does beginning on a session over more than one shard (the
    /// transaction machinery is single-core; see [`crate::txn`]).
    pub fn begin(&mut self) -> DbResult<TxnId> {
        if self.current.is_some() {
            return Err(DbError::PlanError(
                "a transaction is already open on this session".into(),
            ));
        }
        let n = self.db.n_shards();
        let Some(db) = self.db_mut() else {
            return Err(DbError::PlanError(format!(
                "transactions need a one-shard session; this one has {n} shards"
            )));
        };
        let tid = db.begin();
        self.current = Some(tid);
        Ok(tid)
    }

    /// Commits the session's open transaction, returning its commit
    /// timestamp. On [`DbError::TxnConflict`] the transaction was aborted
    /// (first committer wins) — the session is ready for a fresh
    /// [`Session::begin`] retry.
    pub fn commit(&mut self) -> DbResult<u64> {
        let tid = self.open_txn()?;
        self.db.shards[0].commit(tid)
    }

    /// Aborts the session's open transaction, discarding its staged writes.
    pub fn abort(&mut self) -> DbResult<()> {
        let tid = self.open_txn()?;
        self.db.shards[0].abort(tid)
    }

    /// Takes the open transaction's id (it lives on shard 0, the only one).
    fn open_txn(&mut self) -> DbResult<TxnId> {
        self.current.take().ok_or(DbError::PlanError(
            "no transaction is open on this session".to_string(),
        ))
    }

    /// The open transaction's id, if one is active.
    pub fn current_txn(&self) -> Option<TxnId> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineProfile, Schema, SystemId};
    use wdtg_sim::{CpuConfig, InterruptCfg};

    #[test]
    fn point_statements_stay_out_of_the_plan_cache() {
        let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled());
        let mut db = Database::new(EngineProfile::system(SystemId::C), cfg);
        db.create_table("R", Schema::paper_relation(20)).unwrap();
        db.load_rows("R", (0..4000).map(|i| vec![i, i % 97, i % 13, 0, 0]))
            .unwrap();
        db.create_index("R", "a1").unwrap();
        let mut sess = Session::open(db);

        const SCAN: &str = "SELECT AVG(a3) FROM R WHERE a2 > 10 AND a2 < 40";
        let answer = sess.sql(SCAN).unwrap();
        assert_eq!(sess.plans.len(), 1);

        // An OLTP client with literal keys: every statement text is new.
        for i in 0..10_000 {
            let key = i % 4000;
            let text = match i % 3 {
                0 => format!("SELECT a3 FROM R WHERE a1 = {key}"),
                1 => format!("UPDATE R SET a4 = a4 + {i} WHERE a1 = {key}"),
                _ => format!("INSERT INTO R VALUES ({}, 500, 0, 0, 0)", 4000 + i),
            };
            sess.sql(&text).unwrap();
        }
        assert_eq!(sess.plans.len(), 1, "only the aggregate is worth caching");

        // A cache hit does not plan, so it leaves no report behind.
        sess.last_report = None;
        assert_eq!(sess.sql(SCAN).unwrap(), answer);
        assert!(
            sess.last_plan().is_none(),
            "the aggregate was planned again"
        );
    }

    #[test]
    fn the_plan_cache_is_bounded_and_forgets_the_oldest_first() {
        let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled());
        let mut db = Database::new(EngineProfile::system(SystemId::C), cfg);
        db.create_table("R", Schema::paper_relation(20)).unwrap();
        db.load_rows("R", (0..16).map(|i| vec![i, i % 5, i % 3, 0, 0]))
            .unwrap();
        let mut sess = Session::open(db);

        // An ad-hoc client: every aggregate text is new.
        let text = |i: usize| format!("SELECT COUNT(*) FROM R WHERE a2 < {i}");
        for i in 0..5_000 {
            sess.sql(&text(i)).unwrap();
        }
        assert_eq!(sess.plans.len(), PLAN_CACHE_CAP);
        assert_eq!(sess.plan_age.len(), PLAN_CACHE_CAP);

        // The newest entries are the ones kept: a hit plans nothing ...
        sess.last_report = None;
        sess.sql(&text(4_999)).unwrap();
        sess.sql(&text(5_000 - PLAN_CACHE_CAP)).unwrap();
        assert!(
            sess.last_plan().is_none(),
            "a recent statement was re-planned"
        );
        // ... the one just past the cap is planned again, and takes the
        // place of what is now the oldest.
        sess.sql(&text(4_999 - PLAN_CACHE_CAP)).unwrap();
        assert!(sess.last_plan().is_some(), "an evicted statement was a hit");
        assert_eq!(sess.plans.len(), PLAN_CACHE_CAP);
        assert!(!sess.plans.contains_key(&text(5_000 - PLAN_CACHE_CAP)));

        // EXPLAIN of a cached statement re-plans it without ageing anything.
        let oldest = sess.plan_age.front().cloned();
        sess.explain(&text(4_999)).unwrap();
        assert_eq!(sess.plan_age.front().cloned(), oldest);
        assert_eq!(sess.plans.len(), PLAN_CACHE_CAP);

        // Invalidation is what it was: a catalog change empties both.
        sess.db_mut()
            .unwrap()
            .load_rows("R", [vec![16, 1, 1, 0, 0]])
            .unwrap();
        sess.sql(&text(1)).unwrap();
        assert_eq!((sess.plans.len(), sess.plan_age.len()), (1, 1));
    }
}
