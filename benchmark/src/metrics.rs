//! The metric contract: every name, unit, direction and bound the benchmark
//! reports. `BENCHMARK.json` at the repo root restates these tables (a unit
//! test keeps the two in step); `compare` reads its bounds from here.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory: noisy, compared within a bound.
    Host,
    /// Simulated or counted: repeats exactly for one seed, compared bit for bit.
    Sim,
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline a host metric may worsen by before `compare`
    /// calls it `worse` (end-to-end metrics only; layers have no bound).
    pub bound: f64,
    pub clock: Clock,
}

const fn host(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: higher,
        bound,
        clock: Clock::Host,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, clock: Clock) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
        clock,
    }
}

pub const WORKLOADS: [&str; 4] = ["paper_grid", "olap_warm", "adhoc_plan", "oltp_txn"];

/// End-to-end metrics, reported by every workload on the untraced run.
pub const END_TO_END: [Spec; 7] = [
    host("setup_s", "s", false, 0.25),
    host("host_ops_per_s", "1/s", true, 0.25),
    host("host_p50_ms", "ms", false, 0.25),
    host("host_tail_ms", "ms", false, 0.25),
    Spec {
        name: "sim_cycles_per_op",
        unit: "cycles/op",
        higher_is_better: false,
        bound: 0.005,
        clock: Clock::Sim,
    },
    host("sim_minstr_per_host_s", "Minstr/s", true, 0.25),
    host("peak_rss_mb", "MB", false, 0.25),
];

use Clock::{Host as H, Sim as S};

/// Per-layer metrics, reported by every workload on the traced run.
pub const PER_LAYER: [Spec; 66] = [
    // sim: host cost of the simulator's own entry points (bare Cpu/Cache).
    layer("sim.cache_access_ns", "ns", false, H),
    layer("sim.load_ns", "ns", false, H),
    layer("sim.store_ns", "ns", false, H),
    layer("sim.branch_ns", "ns", false, H),
    layer("sim.exec_block_ns_per_instr", "ns", false, H),
    layer("sim.load_run_ns_per_line", "ns", false, H),
    layer("sim.select_run_ns_per_lane", "ns", false, H),
    // sim: the model's outputs for this workload's traced pass.
    layer("sim.cpi", "cycles", false, S),
    layer("sim.tc_share", "share", true, S),
    layer("sim.tm_share", "share", false, S),
    layer("sim.tb_share", "share", false, S),
    layer("sim.tr_share", "share", false, S),
    layer("sim.l1i_miss_per_kinstr", "count", false, S),
    layer("sim.l2d_miss_per_kinstr", "count", false, S),
    layer("sim.br_mispred_per_kinstr", "count", false, S),
    // emon
    layer("emon.measure_ms", "ms", false, H),
    layer("emon.est_err_max", "share", false, S),
    // core / workloads / heap / index build
    layer("core.srs_cell_ms", "ms", false, H),
    layer("core.irs_cell_ms", "ms", false, H),
    layer("core.sj_cell_ms", "ms", false, H),
    layer("core.measure_query_parity", "count", true, S),
    layer("workloads.gen_us_per_krow", "us", false, H),
    layer("heap.load_us_per_krow", "us", false, H),
    layer("index.create_ms", "ms", false, H),
    // memdb.exec
    layer("exec.scan_row_ms", "ms", false, H),
    layer("exec.scan_batch_ms", "ms", false, H),
    layer("exec.group_batch_ms", "ms", false, H),
    layer("exec.indexscan_row_ms", "ms", false, H),
    layer("exec.join_hash_row_ms", "ms", false, H),
    layer("exec.join_hash_batch_ms", "ms", false, H),
    layer("exec.join_part_batch_ms", "ms", false, H),
    layer("exec.scan_row_cyc_per_row", "cycles", false, S),
    layer("exec.scan_batch_cyc_per_row", "cycles", false, S),
    layer("exec.join_hash_cyc_per_row", "cycles", false, S),
    layer("exec.join_part_cyc_per_row", "cycles", false, S),
    layer("arena.join_part_bytes", "B", false, S),
    // memdb.buffer / index
    layer("buffer.lookup_ns", "ns", false, H),
    layer("index.point_select_us", "us", false, H),
    layer("index.point_select_cyc", "cycles", false, S),
    // memdb.sql
    layer("sql.lex_us", "us", false, H),
    layer("sql.parse_us", "us", false, H),
    layer("sql.bind_us", "us", false, H),
    layer("sql.plan_scan_ms", "ms", false, H),
    layer("sql.plan_group_ms", "ms", false, H),
    layer("sql.plan_join_ms", "ms", false, H),
    layer("sql.plan_candidates", "count", false, S),
    layer("sql.plan_share", "share", false, H),
    // memdb.txn
    layer("txn.begin_us", "us", false, H),
    layer("txn.stmt_us", "us", false, H),
    layer("txn.commit_us", "us", false, H),
    layer("txn.autocommit_update_us", "us", false, H),
    layer("txn.insert_us", "us", false, H),
    layer("txn.replay_ms_per_kcommit", "ms", false, H),
    layer("txn.conflicts", "count", false, S),
    layer("txn.aborted", "count", false, S),
    layer("txn.wal_records_per_commit", "count", false, S),
    layer("txn.late_over_early", "ratio", false, H),
    layer("txn.rss_kb_per_ktxn", "kB", false, H),
    // memdb.shard / parallel
    layer("shard.split_ms", "ms", false, H),
    layer("shard.run_seq_ms", "ms", false, H),
    layer("parallel.run_ms", "ms", false, H),
    layer("parallel.speedup", "ratio", true, H),
    layer("shard.sim_wall_speedup", "ratio", true, S),
    layer("shard.retries", "count", false, S),
    // trace accounting
    layer("trace.unattributed_share", "share", false, H),
    layer("trace.overhead_share", "share", false, H),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn benchmark_json_restates_these_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect()
        };
        let of = |specs: &[Spec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), of(&END_TO_END));
        assert_eq!(names("per_layer"), of(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        for (m, s) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(s.bound));
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        }
    }
}
