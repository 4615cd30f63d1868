//! The two binaries' selector: an unknown name exits 2 and lists every
//! valid one; a known name runs.

use std::process::{Command, Output};

fn run(bin: &str, arg: &str) -> Output {
    Command::new(bin).arg(arg).output().expect("binary spawns")
}

const FIGURES: [&str; 16] = [
    "fig5_1",
    "fig5_2",
    "fig5_3",
    "fig5_4",
    "fig5_5",
    "fig5_6",
    "fig5_7",
    "table3_1",
    "table4_1",
    "table4_2",
    "record_size",
    "l1i_hypotheses",
    "ablations",
    "exec_compare",
    "tpcc",
    "all",
];

const HEADLINES: [&str; 9] = [
    "exec", "layout", "join", "branch", "scale", "chaos", "planner", "oltp", "all",
];

fn assert_usage(out: &Output, names: &[&str]) {
    assert_eq!(out.status.code(), Some(2), "an unknown name exits 2");
    let err = String::from_utf8_lossy(&out.stderr);
    for name in names {
        assert!(err.contains(name), "usage must list {name}; got:\n{err}");
    }
}

#[test]
fn unknown_names_exit_2_and_list_every_valid_one() {
    assert_usage(&run(env!("CARGO_BIN_EXE_figures"), "nope"), &FIGURES);
    assert_usage(&run(env!("CARGO_BIN_EXE_bench"), "nope"), &HEADLINES);
}

#[test]
fn figures_table3_1_prints_the_component_hierarchy() {
    let out = run(env!("CARGO_BIN_EXE_figures"), "table3_1");
    assert!(
        out.status.success(),
        "table3_1 is definitional and succeeds"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("T_Q = T_C + T_M + T_B + T_R - T_OVL"),
        "got:\n{text}"
    );
}
