//! The repo's benchmark: four workloads on two clocks — simulated cycles
//! (exact) and host seconds (noisy) — with a per-layer trace.
//!
//! ```text
//! wdtg-benchmark --out DIR --workload W --seed N --seconds S --trace 0|1   one run
//! wdtg-benchmark --out DIR [--seed N] [--seconds S] [--passes P] [--twice] the suite
//! wdtg-benchmark --out DIR compare A.json B.json                           regression table
//! ```
//!
//! One run sets its workload up, times whole passes over the workload's
//! fixed op list until `--seconds` have gone by, checks every answer
//! against the oracle and prints one JSON line last. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs one pass with spans around the
//! calls into each layer plus the layer probes, and reports the per-layer
//! metrics. The suite runs both for every workload, each in its own child
//! process, and writes `DIR/results.json`. See `README.md` for the tables.

mod compare;
mod data;
mod host;
mod json;
mod metrics;
mod oracle;
mod probes;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use wdtg_core::breakdown::TimeBreakdown;
use wdtg_sim::{Event, Mode, Snapshot};

use json::Json;
use metrics::{Spec, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use workloads::Workload;

/// Times the workload's database is built; `setup_s` is the median. A build
/// takes 15–70 ms, the first two or three run cold and the host's speed
/// wanders, so a steady median takes a few dozen.
const SETUPS: usize = 31;
/// Fewest timed passes, however short `--seconds` is: a median needs three.
const MIN_PASSES: usize = 3;
/// Fewest (untraced, traced) pass pairs of a traced run.
const MIN_PAIRS: usize = 2;
/// `--seconds` of the suite when none is given (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// Run exactly this many timed passes instead of filling `seconds`.
    passes: Option<usize>,
    trace: bool,
    twice: bool,
    inject_wrong_answer: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        passes: None,
        trace: false,
        twice: false,
        inject_wrong_answer: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let bad = |v: String| format!("{arg}: cannot read `{v}`");
        match arg.as_str() {
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number").and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                a.seconds = value("a number").and_then(|v| v.parse().map_err(|_| bad(v)))?
            }
            "--passes" => {
                a.passes = Some(value("a number").and_then(|v| v.parse().map_err(|_| bad(v)))?)
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--twice" => a.twice = true,
            "--inject-wrong-answer" => a.inject_wrong_answer = true,
            "compare" => {
                a.compare = Some((
                    PathBuf::from(value("two results files")?),
                    PathBuf::from(value("two results files")?),
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wdtg-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if args.workload.is_some() {
        run_one(&args)
    } else if args.twice {
        match (
            suite(&args, "results.1.json"),
            suite(&args, "results.2.json"),
        ) {
            (Ok(a), Ok(b)) => compare::run(&a, &b),
            _ => false,
        }
    } else {
        suite(&args, "results.json").is_ok()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// One run of one workload
// ---------------------------------------------------------------------------

/// The tail percentile of `host_tail_ms`: the highest with at least ten
/// samples beyond it in a default run, fixed so runs compare like for like.
fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "oltp_txn" => 99.0,
        "olap_warm" => 95.0,
        // About fifty ops in a default run; p80 also sits inside one shape's
        // band of the op mix rather than on the edge between two.
        _ => 80.0,
    }
}

/// Timed passes over a workload: per-op latencies and per-pass seconds.
#[derive(Default)]
struct Passes {
    lat_ms: Vec<f64>,
    pass_s: Vec<f64>,
    failed: u64,
    /// The workload's simulated state as the first pass left it.
    sim_after_first: Option<Snapshot>,
    /// `VmHWM` as pass `MIN_PASSES` ended: peak memory at a fixed amount of
    /// work, however many more passes the time box then fits.
    peak_rss_kb: f64,
}

impl Passes {
    fn run(&mut self, w: &mut dyn Workload, tracer: Option<&mut Tracer>) {
        let t = Instant::now();
        self.failed += w.pass(tracer, &mut self.lat_ms);
        self.pass_s.push(t.elapsed().as_secs_f64());
        if self.sim_after_first.is_none() {
            self.sim_after_first = Some(w.sim());
        }
        if self.pass_s.len() <= MIN_PASSES {
            self.peak_rss_kb = host::peak_rss_kb();
        }
    }

    /// Whole passes until `seconds` have gone by (or exactly `passes`).
    fn fill(&mut self, w: &mut dyn Workload, seconds: f64, passes: Option<usize>) {
        let start = Instant::now();
        loop {
            self.run(w, None);
            let n = self.pass_s.len();
            let done = match passes {
                Some(p) => n >= p,
                None => n >= MIN_PASSES && start.elapsed().as_secs_f64() >= seconds,
            };
            if done {
                return;
            }
        }
    }

    fn ops(&self) -> u64 {
        self.lat_ms.len() as u64
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    /// Interquartile range over median of the per-pass (or per-build)
    /// readings behind `value`, where there are several.
    spread: Option<f64>,
}

impl Metric {
    /// The median of several readings, with their spread beside it.
    fn median_of(name: &'static str, readings: &[f64]) -> Metric {
        Metric {
            name,
            value: host::median(readings),
            spread: Some(host::iqr_share(readings)),
        }
    }

    fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            spread: None,
        }
    }
}

/// What one run hands back: the contract's JSON line plus the detail file.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    info: Vec<(&'static str, Json)>,
}

fn run_one(a: &Args) -> bool {
    let name = a.workload.as_deref().expect("checked by caller");
    let (specs, outcome): (&[Spec], Outcome) = if a.trace {
        (&PER_LAYER, run_traced(a, name))
    } else {
        (&END_TO_END, run_untraced(a, name))
    };
    let correct = outcome.failed == 0;
    let unit = |m: &Metric| {
        specs
            .iter()
            .find(|s| s.name == m.name)
            .unwrap_or_else(|| panic!("{} is not in the contract", m.name))
            .unit
    };
    assert_eq!(
        outcome.metrics.len(),
        specs.len(),
        "every contract metric is reported"
    );

    println!("# {name} seed {} trace {}", a.seed, a.trace as u8);
    for m in &outcome.metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, unit(m));
    }
    let metrics_json = |with_spread: bool| {
        Json::obj(outcome.metrics.iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(unit(m)))];
            if let (true, Some(s)) = (with_spread, m.spread) {
                fields.push(("spread", Json::Num(s)));
            }
            (m.name, Json::obj(fields))
        }))
    };
    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(a.seed as f64)),
        ("trace", Json::Bool(a.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(true)),
        ("info", Json::obj(outcome.info.clone())),
    ]);
    write_file(&detail_path(&a.out, name, a.trace), &detail.render());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics_json(false)),
        ])
        .render()
    );
    correct
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("run.{workload}.trace{}.json", trace as u8))
}

fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn seconds_json(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|s| Json::Num(*s)).collect())
}

fn per_pass(p: &Passes, ops_per_pass: usize, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    p.lat_ms.chunks(ops_per_pass).map(f).collect()
}

fn run_untraced(a: &Args, name: &str) -> Outcome {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // Let go of the previous build first, so peak memory is one database.
        drop(built.take());
        let (w, s) = workloads::setup(name, a.seed);
        setups.push(s);
        built = Some(w);
    }
    let mut w = built.expect("built at least once");
    if a.inject_wrong_answer {
        w.inject_wrong_answer();
    }
    w.warm();

    let calib_before = host::calib_ms();
    let sim0 = w.sim();
    let mut p = Passes::default();
    p.fill(w.as_mut(), a.seconds, a.passes);
    let first_pass = p.sim_after_first.as_ref().expect("a pass ran").delta(&sim0);
    let timed = w.sim().delta(&sim0);
    let calib_after = host::calib_ms();
    let checks = w.finish();

    let ops = w.ops_per_pass();
    let total_s: f64 = p.pass_s.iter().sum();
    let tail = tail_percentile(name);
    let instr = |d: &Snapshot| d.counters.total(Event::InstRetired) as f64;
    let ops_per_s: Vec<f64> = p.pass_s.iter().map(|s| ops as f64 / s).collect();
    // Host metrics are medians over passes: this host's speed wanders on a
    // scale of seconds, which a pooled percentile would carry into its tail.
    let pass_p50 = per_pass(&p, ops, host::median);
    let pass_tail = per_pass(&p, ops, |l| host::percentile(l, tail));
    let metrics = vec![
        Metric::median_of("setup_s", &setups),
        Metric::median_of("host_ops_per_s", &ops_per_s),
        Metric::median_of("host_p50_ms", &pass_p50),
        Metric::median_of("host_tail_ms", &pass_tail),
        // The first timed pass only: the same ops from the same state on
        // every run, so the count repeats exactly however many passes fit.
        Metric::single("sim_cycles_per_op", first_pass.cycles / ops as f64),
        Metric::single("sim_minstr_per_host_s", instr(&timed) / total_s / 1e6),
        Metric::single("peak_rss_mb", p.peak_rss_kb / 1024.0),
    ];
    let attempted = p.ops() + checks.attempted;
    let failed = p.failed + checks.failed;
    let mut info = vec![
        ("passes", Json::Num(p.pass_s.len() as f64)),
        ("setup_builds_s", seconds_json(&setups)),
        ("pass_s", seconds_json(&p.pass_s)),
        ("ops_per_pass", Json::Num(ops as f64)),
        ("latency_samples", Json::Num(p.ops() as f64)),
        ("tail_percentile", Json::Num(tail)),
        ("failed_share", Json::Num(failed as f64 / attempted as f64)),
        (
            "host.calib_ms",
            Json::Arr(vec![Json::Num(calib_before), Json::Num(calib_after)]),
        ),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("loadavg", Json::Num(host::loadavg())),
    ];
    info.extend(w.notes());
    Outcome {
        attempted,
        failed,
        metrics,
        info,
    }
}

fn run_traced(a: &Args, name: &str) -> Outcome {
    let (mut w, _) = workloads::setup(name, a.seed);
    if a.inject_wrong_answer {
        w.inject_wrong_answer();
    }
    w.warm();
    let ops = w.ops_per_pass();

    // The traced pass comes first, from the state the untraced run's first
    // timed pass starts in, so the two must count the same simulated cycles.
    let mut tracer = Tracer::new();
    let (sim0, txn0) = (w.sim(), w.txn());
    let mut traced = Passes::default();
    traced.run(w.as_mut(), Some(&mut tracer));
    let delta = w.sim().delta(&sim0);
    let txn1 = w.txn();

    // Then pairs of an untraced and a traced pass (spans thrown away), in
    // alternating order: on a host whose speed wanders only neighbours
    // compare, so the tracing overhead is the median ratio within pairs. On
    // `oltp_txn` the pairs also run long enough for chain and WAL growth to
    // show as drift and memory.
    let rss0 = host::rss_kb();
    let (mut p, mut again) = (Passes::default(), Passes::default());
    let start = Instant::now();
    loop {
        let mut scratch = Tracer::new();
        if p.pass_s.len() % 2 == 0 {
            p.run(w.as_mut(), None);
            again.run(w.as_mut(), Some(&mut scratch));
        } else {
            again.run(w.as_mut(), Some(&mut scratch));
            p.run(w.as_mut(), None);
        }
        let n = p.pass_s.len();
        let done = match a.passes {
            Some(k) => n >= k,
            None => n >= MIN_PAIRS && start.elapsed().as_secs_f64() >= a.seconds / 2.0,
        };
        if done {
            break;
        }
    }
    let rss_growth = host::rss_kb() - rss0;
    let overhead: Vec<f64> = again
        .pass_s
        .iter()
        .zip(&p.pass_s)
        .map(|(traced, untraced)| traced / untraced - 1.0)
        .collect();
    let checks = w.finish();

    let mut values = probes::run_all(a.seed);
    let user = |e: Event| delta.counters.get(Mode::User, e) as f64;
    let kinstr = (user(Event::InstRetired) / 1e3).max(1.0);
    let tb = TimeBreakdown::from_snapshot(&delta, Mode::User);
    let four = tb.four_way();
    let (plan_ns, exec_ns) = (tracer.total_ns("sql.plan"), tracer.total_ns("exec.run"));
    let per_pass_p50 = per_pass(&p, ops, host::median);
    let commits = (txn1.wal_commits - txn0.wal_commits).max(1) as f64;
    values.extend([
        ("sim.cpi", tb.cpi()),
        ("sim.tc_share", four.computation),
        ("sim.tm_share", four.memory),
        ("sim.tb_share", four.branch),
        ("sim.tr_share", four.resource),
        (
            "sim.l1i_miss_per_kinstr",
            user(Event::IfuIfetchMiss) / kinstr,
        ),
        (
            "sim.l2d_miss_per_kinstr",
            user(Event::SimL2DataMiss) / kinstr,
        ),
        (
            "sim.br_mispred_per_kinstr",
            user(Event::BrMissPredRetired) / kinstr,
        ),
        (
            "sql.plan_share",
            if plan_ns + exec_ns == 0 {
                0.0
            } else {
                plan_ns as f64 / (plan_ns + exec_ns) as f64
            },
        ),
        ("txn.conflicts", (txn1.conflicts - txn0.conflicts) as f64),
        ("txn.aborted", (txn1.aborted - txn0.aborted) as f64),
        (
            "txn.wal_records_per_commit",
            (txn1.wal_records - txn0.wal_records) as f64 / commits,
        ),
        (
            "txn.late_over_early",
            per_pass_p50[per_pass_p50.len() - 1] / per_pass_p50[0],
        ),
        (
            "txn.rss_kb_per_ktxn",
            rss_growth / ((p.ops() + again.ops()) as f64 / 1e3),
        ),
        ("trace.unattributed_share", tracer.unattributed_share()),
        ("trace.overhead_share", host::median(&overhead)),
    ]);
    // Report in the contract's order.
    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let measured = values.iter().find(|(n, _)| *n == spec.name);
            let (_, value) = measured.unwrap_or_else(|| panic!("{} was not measured", spec.name));
            Metric::single(spec.name, *value)
        })
        .collect();

    let trace_path = a.out.join(format!("trace.{name}.json"));
    write_file(&trace_path, &tracer.to_json().render());
    let mut info = vec![
        ("sim_cycles_per_op", Json::Num(delta.cycles / ops as f64)),
        ("pass_pairs", Json::Num(p.pass_s.len() as f64)),
        ("spans", Json::Num(tracer.spans.len() as f64)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("nproc", Json::Num(host::nproc() as f64)),
    ];
    info.extend(w.notes());
    Outcome {
        attempted: traced.ops() + p.ops() + again.ops() + checks.attempted,
        failed: traced.failed + p.failed + again.failed + checks.failed,
        metrics,
        info,
    }
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

/// Runs one workload in a child process and reads back its detail file.
fn child(a: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--out").arg(&a.out);
    cmd.args(["--workload", workload]);
    cmd.args(["--seed", &a.seed.to_string()]);
    cmd.args(["--seconds", &a.seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(p) = a.passes {
        cmd.args(["--passes", &p.to_string()]);
    }
    if a.inject_wrong_answer {
        cmd.arg("--inject-wrong-answer");
    }
    let path = detail_path(&a.out, workload, trace);
    let _ = std::fs::remove_file(&path);
    // The child's own table is dropped; the suite prints one for all four.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{workload} (trace {}) left no result ({e}); exit {:?}",
            trace as u8,
            out.status.code()
        )
    })?;
    json::parse(&text)
}

/// `doc[section][name]`, whether stored as a bare number (info) or as a
/// metric's `{"value": ..}`.
fn reading(doc: &Json, section: &str, name: &str) -> Option<f64> {
    let entry = doc.get(section)?.get(name)?;
    entry.get("value").unwrap_or(entry).as_f64()
}

fn calib_drift(detail: &Json) -> f64 {
    let calib: Vec<f64> = detail
        .get("info")
        .and_then(|i| i.get("host.calib_ms"))
        .and_then(Json::as_arr)
        .map(|c| c.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    match calib[..] {
        [before, after] => (after - before).abs() / before.min(after),
        _ => 0.0,
    }
}

/// Runs every workload untraced then traced, writes `out/<file>` and prints
/// the table. `Err` if any answer was wrong or a child died.
fn suite(a: &Args, file: &str) -> Result<PathBuf, ()> {
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        eprintln!("[suite] {w}: untraced run");
        let mut untraced = child(a, w, false).map_err(|e| eprintln!("[suite] {e}"))?;
        // Host-noise guard: the host changed speed under the run, so run it
        // once more and say so.
        let mut reran = false;
        if calib_drift(&untraced) > 0.10 {
            eprintln!("[suite] {w}: calibration drifted by more than 10 %, running it again");
            untraced = child(a, w, false).map_err(|e| eprintln!("[suite] {e}"))?;
            reran = true;
        }
        eprintln!("[suite] {w}: traced run");
        let traced = child(a, w, true).map_err(|e| eprintln!("[suite] {e}"))?;

        let get = |d: &Json, k: &str| d.get(k).cloned().unwrap_or(Json::Null);
        let correct = [&untraced, &traced]
            .iter()
            .all(|d| d.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let cycles =
            |d: &Json, section: &str| reading(d, section, "sim_cycles_per_op").map(f64::to_bits);
        let mut info = vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("reran_for_host_noise".to_string(), Json::Bool(reran)),
            (
                "traced_sim_identical".to_string(),
                Json::Bool(cycles(&untraced, "metrics") == cycles(&traced, "info")),
            ),
            ("attempted".to_string(), get(&untraced, "attempted")),
            ("failed".to_string(), get(&untraced, "failed")),
        ];
        for d in [&untraced, &traced] {
            for (k, v) in d.get("info").and_then(Json::as_obj).unwrap_or_default() {
                if !info.iter().any(|(have, _)| have == k) {
                    info.push((k.clone(), v.clone()));
                }
            }
        }
        per_workload.push((
            w,
            Json::obj([
                ("end_to_end", get(&untraced, "metrics")),
                ("per_layer", get(&traced, "metrics")),
                ("info", Json::Obj(info)),
            ]),
        ));
    }
    let results = Json::obj([
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("loadavg", Json::Num(host::loadavg())),
            ]),
        ),
        ("workloads", Json::obj(per_workload)),
    ]);
    let path = a.out.join(file);
    write_file(&path, &results.render());
    print_table(&results);
    println!("results: {}", path.display());
    if all_correct {
        Ok(path)
    } else {
        eprintln!("[suite] at least one answer was wrong");
        Err(())
    }
}

fn print_table(results: &Json) {
    let workloads = results.get("workloads").expect("just built");
    let cell = |w: &str, section: &str, name: &str| -> String {
        workloads
            .get(w)
            .and_then(|d| reading(d, section, name))
            .map_or("absent".to_string(), |v| format!("{v:.6}"))
    };
    let header = |title: &str| {
        println!(
            "\n{title:<32} {:<10}{}",
            "unit",
            WORKLOADS.map(|w| format!("{w:>16}")).concat()
        );
    };
    let row = |name: &str, unit: &str, section: &str| {
        let cells = WORKLOADS.map(|w| format!("{:>16}", cell(w, section, name)));
        println!("{name:<32} {unit:<10}{}", cells.concat());
    };
    header("end-to-end (untraced)");
    for s in &END_TO_END {
        row(s.name, s.unit, "end_to_end");
    }
    row("failed_share", "share", "info");
    row("paper_claims_held", "count", "info");
    header("per-layer (traced)");
    for s in &PER_LAYER {
        row(s.name, s.unit, "per_layer");
    }
    for w in WORKLOADS {
        let flag = |k: &str| {
            workloads
                .get(w)
                .and_then(|d| d.get("info"))
                .and_then(|i| i.get(k))
                .cloned()
        };
        println!(
            "{w}: correct {:?}, traced sim identical {:?}, reran for host noise {:?}",
            flag("correct") == Some(Json::Bool(true)),
            flag("traced_sim_identical") == Some(Json::Bool(true)),
            flag("reran_for_host_noise") == Some(Json::Bool(true)),
        );
    }
}
