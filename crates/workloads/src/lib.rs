//! # wdtg-workloads — the paper's workloads
//!
//! Dataset generators and query suites for reproducing *"DBMSs On A Modern
//! Processor: Where Does Time Go?"* (VLDB 1999):
//!
//! * [`micro`] — the §3.3 microbenchmark: relation R (1.2 M × 100 B, `a2`
//!   uniform over 1..=40 000), relation S (40 K rows, `a1` primary key), and
//!   the three queries (sequential range selection, indexed range selection,
//!   sequential join) at any selectivity;
//! * [`join`] — the join chapter's workload: the same two-table equijoin
//!   with independent build/probe scale knobs and a match-rate
//!   (join-selectivity) knob, sized so the naive hash table overflows L2;
//! * [`tpcd`] — the §5.5 TPC-D-like DSS suite (17 selection-flavoured
//!   queries over a lineitem/orders database, ≈100 MB at paper scale);
//! * [`tpcc`] — the §5.5 TPC-C-like OLTP mix (single warehouse, 10 logical
//!   clients, five transaction types in the standard mix);
//! * [`oltp`] — the concurrent deployment of that mix: N clients over
//!   snapshot-isolation transactions on a tier of node replicas, with
//!   conflict/abort/retry, TPS + tail latency, a host-side correctness
//!   oracle and a WAL crash-recovery check;
//! * [`scale`] — scale factors preserving every paper ratio, selected via
//!   `WDTG_SCALE=paper|dev|tiny`.

#![warn(missing_docs)]

pub mod join;
pub mod micro;
pub mod oltp;
pub mod scale;
pub mod tpcc;
pub mod tpcd;

pub use join::JoinSpec;
pub use micro::{
    declare_shard_keys, load_microbench, prepare, prepare_sharded_with_layout, query, MicroQuery,
    SweepSpec, DEFAULT_SEED,
};
pub use oltp::{run_oltp, OltpConfig, OltpReport};
pub use scale::Scale;
pub use tpcc::{TpccDriver, TpccScale, TxnKind};
pub use tpcd::TpcdScale;
