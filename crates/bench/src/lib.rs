//! # wdtg-bench — the experiment harness
//!
//! Two binaries plus Criterion micro/macro benchmarks (`cargo bench`):
//!
//! * `cargo run --release -p wdtg-bench --bin figures -- <name>|all`
//!   regenerates one table or figure of the paper (`fig5_1`…`fig5_7`,
//!   `table3_1`, `table4_1`, `table4_2`, `record_size`, `l1i_hypotheses`,
//!   `ablations`, `exec_compare`, `tpcc`) or, with `all`, every experiment
//!   and claim validation in one pass. Set `WDTG_SCALE=paper` for
//!   full-size datasets.
//! * `cargo run --release -p wdtg-bench --bin bench -- <name>|all` runs one
//!   of the eight headline benchmarks ([`runners::HEADLINES`]), writes its
//!   `BENCH_<name>.json` to the current directory and checks its claims.
//!   `scripts/check_baselines.sh` diffs the regenerated files against the
//!   committed ones.

#![warn(missing_docs)]

pub mod json;
pub mod runners;

/// The one `<name>` argument, checked against `names`. Anything else
/// prints the usage with every valid name and exits 2.
pub fn selector(bin: &str, names: &[&str]) -> String {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [name] if names.contains(&name.as_str()) => name.clone(),
        _ => {
            eprintln!("usage: {bin} <{}>", names.join("|"));
            std::process::exit(2);
        }
    }
}
