//! # wdtg-sim — a Pentium II Xeon-class processor and memory-hierarchy model
//!
//! Substrate for reproducing *"DBMSs On A Modern Processor: Where Does Time
//! Go?"* (Ailamaki, DeWitt, Hill, Wood — VLDB 1999). The paper measures four
//! commercial DBMSs on a real 400 MHz Pentium II Xeon using the processor's
//! two hardware event counters; this crate provides the equivalent machine as
//! a deterministic, trace-driven timing model:
//!
//! * split 16 KB L1 caches and a unified 512 KB L2, 4-way, 32-byte lines,
//!   write-back, non-blocking (Table 4.1) — [`cache`], [`config`];
//! * instruction/data TLBs with 4 KB pages — [`tlb`];
//! * a 512-entry BTB with Yeh–Patt two-level adaptive prediction and a
//!   static backward-taken/forward-not-taken fallback — [`branch`];
//! * a 3-wide out-of-order core model with dependency/functional-unit
//!   stall accounting — [`pipeline`];
//! * the Pentium II event-counter file (74 hardware event types, §4.3) plus
//!   simulator-only ground truth — [`events`];
//! * exact per-component stall attribution per Table 3.1 — [`stalls`];
//! * an NT-style periodic interrupt model (supervisor mode, L1I pollution)
//!   and a memory-latency microbenchmark reproducing the paper's measured
//!   60–70 cycles — [`Cpu`], [`latency`].
//!
//! The DBMS substrate (`wdtg-memdb`) drives a [`Cpu`] online: operators
//! execute real Rust code over real bytes at simulated addresses, and every
//! cache line, TLB page, BTB entry and pipeline bubble emerges from the
//! model rather than being postulated.

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod events;
pub mod latency;
pub mod mem;
pub mod pipeline;
pub mod stalls;
pub mod tlb;

pub use branch::{BranchOutcome, BranchUnit};
pub use cache::{Cache, CacheAccess};
pub use config::{BtbGeom, CacheGeom, CpuConfig, InterruptCfg, PipelineCfg, TlbGeom};
pub use cpu::{
    merge_cores, CoreMerge, Cpu, MemDep, Snapshot, LOOP_TRAINED_BIAS, SELECT_TC_PER_LANE,
    SELECT_TDEP_PER_LANE, SELECT_UOPS_PER_LANE, SELECT_X86_PER_LANE,
};
pub use events::{CounterFile, Event, Mode};
pub use latency::{measure_memory_latency, LatencyMeasurement};
pub use mem::{segment, Region, SegmentAlloc};
pub use pipeline::{block_cost, BlockCost, BranchSite, CodeBlock, CodeBlockBuilder};
pub use stalls::{Component, StallLedger};
pub use tlb::Tlb;

/// `x % n` for a geometry `n` fixed at construction (a set count, a table
/// size, a working-set length). Every geometry the repository builds is a
/// power of two, where this is a mask; a block call indexes up to eight
/// times, and a 64-bit divide was the slowest instruction it executed.
#[inline]
pub(crate) fn modulo(x: u64, n: u64) -> u64 {
    if n.is_power_of_two() {
        x & (n - 1)
    } else {
        x % n
    }
}
