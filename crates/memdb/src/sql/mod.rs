//! SQL frontend: lexer → parser → binder → simulator-costed planner.
//!
//! This module is the engine's front door. [`Session`] owns a database (as
//! one shard, or several) and turns SQL text into execution:
//!
//! ```text
//!   "SELECT AVG(a3) FROM R WHERE …"
//!        │ lex (token.rs)          tokens + byte spans
//!        │ parse (parser.rs)       Statement AST
//!        │ bind (bind.rs)          BoundStatement over the catalog
//!        │ plan (plan.rs)          pilot-simulated candidate costs
//!        ▼ execute (session.rs)    chosen knobs → shard router → one gate per shard
//! ```
//!
//! The dialect covers exactly what the executor runs: single-table
//! aggregates (`AVG`/`SUM`/`COUNT`/`MIN`/`MAX`) with conjunctive `WHERE`
//! clauses, `GROUP BY` on one key, two-table equi-joins (comma or
//! `JOIN … ON` spelling), indexed point selects, `INSERT`, and the
//! read-modify-write `UPDATE`. Anything else is a typed
//! [`crate::DbError::ParseError`] or [`crate::DbError::BindError`] carrying
//! the byte span and a source snippet.
//!
//! Planning is measurement, not formulas: each candidate knob setting
//! (execution mode × qualification strategy × join algorithm) runs, after
//! its own warm-up, on a pristine fork of a sampled **pilot image** — its
//! own simulated processor, shared with no other candidate — and the
//! winner is whichever setting minimizes the extrapolated simulated
//! `T_Q = T_C + T_M + T_B + T_R` — the paper's §3 time breakdown used as
//! a cost model. See [`plan`] for the sampling and extrapolation rules
//! and for how the candidates run as parallel jobs.

pub mod ast;
pub mod bind;
pub mod parser;
pub mod plan;
pub mod session;
pub mod token;

pub use crate::exec::PhysicalConfig;
pub use crate::query::BoundStatement;
pub use bind::{compile, CatalogView};
pub use plan::{CandidateCost, PlanReport};
pub use session::Session;
