//! # wdtg-bench — the experiment harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p wdtg-bench --bin <name>`; set `WDTG_SCALE=paper`
//! for full-size datasets) plus Criterion micro/macro benchmarks
//! (`cargo bench`). `src/bin/` is the experiment index: each file is named
//! after the table or figure it regenerates.

#![warn(missing_docs)]

pub mod runners;

use wdtg_core::figures::FigureCtx;

/// Builds the default experiment context and prints its parameters.
pub fn ctx_with_banner(name: &str) -> FigureCtx {
    let ctx = FigureCtx::default_ctx();
    println!(
        "== {name} ==\nscale: R={} S={} record={}B (WDTG_SCALE={})\n",
        ctx.scale.r_records,
        ctx.scale.s_records,
        ctx.scale.record_bytes,
        std::env::var("WDTG_SCALE").unwrap_or_else(|_| "dev".into()),
    );
    ctx
}
