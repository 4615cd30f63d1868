//! # wdtg-core — "Where Does Time Go?": the paper's framework
//!
//! The primary contribution of *"DBMSs On A Modern Processor: Where Does
//! Time Go?"* (Ailamaki, DeWitt, Hill, Wood — VLDB 1999) reproduced as a
//! library:
//!
//! * the execution-time breakdown `T_Q = T_C + T_M + T_B + T_R − T_OVL`
//!   with the Table 3.1 component hierarchy — [`breakdown`];
//! * the §4.3 measurement methodology (warm-up, unit-of-queries, repetition
//!   with a <5% stability bar, two-counter emon multiplexing) —
//!   [`methodology`];
//! * one runner per figure/table of §5 — [`figures`], [`dss`], [`oltp`],
//!   [`ablations`];
//! * the paper's findings as machine-checkable claims — [`validate`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use wdtg_core::figures::{FigureCtx, MicrobenchGrid};
//!
//! let ctx = FigureCtx::default_ctx();
//! let grid = MicrobenchGrid::run(&ctx).unwrap();
//! println!("{}", grid.render_fig5_1());
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod breakdown;
pub mod dss;
pub mod figures;
pub mod methodology;
pub mod oltp;
pub mod tables;
pub mod validate;

pub use breakdown::{BreakdownSource, FourWay, TimeBreakdown};
pub use figures::{
    BranchCell, ExecModeComparison, FigureCtx, JoinCell, JoinComparison, L1iHypotheses,
    LayoutComparison, MicrobenchGrid, PlannerCell, PlannerComparison, RecordSizeSweep, ScalingCell,
    ScalingComparison, SelectivityComparison, SelectivitySweep,
};
pub use methodology::{
    build_db, build_db_with_layout, build_sharded_db_with_layout, measure_query,
    measure_query_with, measured_latency, Methodology, QueryMeasurement, Rates,
};
pub use validate::{render_claims, Claim};
