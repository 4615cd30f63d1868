//! The `BENCH_*.json` writer's layout rules, each checked against lines
//! copied from the committed baselines.

use wdtg_bench::json::Json;

/// The member line `"key": value` as the writer lays it out at depth 1
/// (inside the top-level object).
fn line(key: &'static str, v: Json) -> String {
    let doc = Json::obj([(key, v)]).to_string();
    doc.lines().nth(1).expect("one member line").to_string()
}

#[test]
fn fixed_precision_numbers() {
    // BENCH_exec.json, BENCH_join.json
    assert_eq!(
        line("host_speedup", Json::fixed(33.67849, 3)),
        "  \"host_speedup\": 33.678"
    );
    assert_eq!(
        line("t_m_share_hash_row", Json::fixed(0.085_32, 4)),
        "  \"t_m_share_hash_row\": 0.0853"
    );
}

#[test]
fn display_numbers() {
    // BENCH_chaos.json's rate column.
    assert_eq!(line("rate", Json::Num(0.0, None)), "  \"rate\": 0");
    assert_eq!(line("rate", Json::Num(1e-4, None)), "  \"rate\": 0.0001");
}

#[test]
fn true_and_one_stay_distinct() {
    // BENCH_scale.json writes a bool; BENCH_chaos.json writes 1.
    assert_eq!(
        line("answers_identical", true.into()),
        "  \"answers_identical\": true"
    );
    assert_eq!(
        line("downgrade_answer_ok", u64::from(true).into()),
        "  \"downgrade_answer_ok\": 1"
    );
}

#[test]
fn depth_one_object_without_objects_is_inline() {
    let row_mode = Json::obj([
        ("host_secs", Json::fixed(0.561_574, 6)),
        ("instr_per_tuple", Json::fixed(4954.6, 1)),
        ("cycles_per_tuple", Json::fixed(5338.5, 1)),
    ]);
    assert_eq!(
        line("row_mode", row_mode),
        "  \"row_mode\": { \"host_secs\": 0.561574, \"instr_per_tuple\": 4954.6, \
         \"cycles_per_tuple\": 5338.5 }"
    );
}

#[test]
fn depth_one_object_holding_objects_is_a_block() {
    let memory = |tm: f64| {
        Json::obj([
            ("t_m_share", Json::fixed(tm, 4)),
            ("t_l1d_share", Json::fixed(0.0, 4)),
        ])
    };
    let side = |misses: u64, cyc: f64, tm: f64| {
        Json::obj([
            ("l2_data_misses", misses.into()),
            ("cycles_per_tuple", Json::fixed(cyc, 1)),
            ("memory", memory(tm)),
        ])
    };
    let doc = Json::obj([(
        "narrow_projection_scan",
        Json::obj([
            ("system", "A".into()),
            ("nsm", side(114_025, 979.8, 0.0621)),
            ("pax", side(27_274, 934.0, 0.0162)),
            ("l2d_miss_reduction", Json::fixed(4.181, 3)),
        ]),
    )]);
    assert_eq!(
        doc.to_string(),
        "{\n  \"narrow_projection_scan\": {\n    \"system\": \"A\",\n    \
         \"nsm\": { \"l2_data_misses\": 114025, \"cycles_per_tuple\": 979.8, \
         \"memory\": { \"t_m_share\": 0.0621, \"t_l1d_share\": 0.0000 } },\n    \
         \"pax\": { \"l2_data_misses\": 27274, \"cycles_per_tuple\": 934.0, \
         \"memory\": { \"t_m_share\": 0.0162, \"t_l1d_share\": 0.0000 } },\n    \
         \"l2d_miss_reduction\": 4.181\n  }\n}"
    );
}

#[test]
fn cells_array_holds_one_inline_element_per_line() {
    let cell = |shards: usize, seq: f64| {
        Json::obj([
            ("shards", shards.into()),
            ("host_seq_secs", Json::fixed(seq, 6)),
        ])
    };
    let doc = Json::obj([
        (
            "host_scaling",
            Json::Arr(vec![cell(1, 0.565_588), cell(2, 0.576_394)]),
        ),
        ("host_speedup_4shard", Json::fixed(2.038, 3)),
    ]);
    assert_eq!(
        doc.to_string(),
        "{\n  \"host_scaling\": [\n    \
         { \"shards\": 1, \"host_seq_secs\": 0.565588 },\n    \
         { \"shards\": 2, \"host_seq_secs\": 0.576394 }\n  ],\n  \
         \"host_speedup_4shard\": 2.038\n}"
    );
}

#[test]
fn strings_are_quoted() {
    assert_eq!(
        line(
            "sql",
            "SELECT AVG(a3) FROM R WHERE a2 > -1 AND a2 < 10".into()
        ),
        "  \"sql\": \"SELECT AVG(a3) FROM R WHERE a2 > -1 AND a2 < 10\""
    );
}
