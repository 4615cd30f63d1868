//! # wdtg-memdb — an instrumented memory-resident relational DBMS
//!
//! The DBMS substrate for reproducing *"DBMSs On A Modern Processor: Where
//! Does Time Go?"* (VLDB 1999). One relational engine — slotted heap pages,
//! buffer pool, B+tree secondary indexes, hash joins, Volcano-style
//! iterators, interpreted and compiled predicate evaluation — configured
//! four ways ([`profiles::EngineProfile`]) to model the paper's anonymous
//! commercial Systems A–D.
//!
//! Every byte of table, index and working memory lives at a simulated
//! address; every operator invocation drives a [`wdtg_sim::Cpu`] with its
//! declared code path and its real data accesses. Query answers are computed
//! by ordinary Rust over real bytes (and are checked against naive oracles in
//! tests); the processor model makes the *cost* of computing them observable
//! through Pentium II-style counters.

#![warn(missing_docs)]

pub mod arena;
pub mod buffer;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod heap;
pub mod index;
pub mod parallel;
pub mod profiles;
pub mod query;
pub mod schema;
pub mod shard;
pub mod sql;
pub mod testutil;
pub mod txn;

pub use arena::SimArena;
pub use db::{Database, DbCtx, IndexMeta, Table};
pub use error::{DbError, DbResult};
pub use exec::{AggState, Batch, ExecMode, SelectionMode, BATCH_ROWS};
pub use expr::{ArithOp, CmpOp, Expr};
pub use fault::{CancelToken, FaultPlan, FaultSite, ResourceBudget, RobustnessStats};
pub use heap::{HeapFile, PageLayout, Rid, PAGE_HDR, PAGE_SIZE};
pub use parallel::{run_jobs_parallel, ParallelConfig};
pub use profiles::{EngineBlocks, EngineProfile, EvalMode, JoinAlgo, Materialize, SystemId};
pub use query::{AggKind, AggSpec, Query, QueryPredicate, QueryResult};
pub use schema::{Column, Schema};
pub use shard::{RouterStats, ShardedDatabase};
pub use sql::Session;
pub use txn::{TxnId, TxnStats, Wal, WalOp, WalRecord};

/// The one-stop import for driving the engine through SQL.
///
/// ```
/// use wdtg_memdb::prelude::*;
/// ```
/// brings in the [`Session`] front door, both database types, the physical
/// knob enums a session tunes ([`ExecMode`], [`SelectionMode`], [`JoinAlgo`],
/// [`PageLayout`]) and the result/error types SQL calls return.
pub mod prelude {
    pub use crate::db::Database;
    pub use crate::error::{DbError, DbResult};
    pub use crate::exec::{ExecMode, PhysicalConfig, SelectionMode};
    pub use crate::heap::PageLayout;
    pub use crate::profiles::JoinAlgo;
    pub use crate::query::{AggKind, AggSpec, Query, QueryPredicate, QueryResult};
    pub use crate::shard::ShardedDatabase;
    pub use crate::sql::{CandidateCost, PlanReport, Session};
    pub use crate::txn::{TxnId, WalRecord};
}
