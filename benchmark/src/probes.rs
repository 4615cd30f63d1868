//! Layer probes: small fixed drivers around each layer's public functions,
//! the same on every traced run whatever the workload. They give each layer
//! its own line on both clocks — host time per call, and simulated cycles
//! where the layer spends any — so a later change to one layer has a
//! before-number that no other layer's noise is mixed into.

use std::hint::black_box;
use std::time::Instant;

use wdtg_core::breakdown::TimeBreakdown;
use wdtg_core::methodology::{build_db, measure_query, Methodology};
use wdtg_memdb::buffer::BufferPool;
use wdtg_memdb::sql::{bind, parser, token};
use wdtg_memdb::{
    AggSpec, Database, ExecMode, JoinAlgo, ParallelConfig, Query, SelectionMode, Session, SimArena,
    SystemId,
};
use wdtg_sim::{segment, BranchSite, Cache, CacheGeom, CodeBlock, Cpu, MemDep, Mode};
use wdtg_workloads::{micro, MicroQuery};

use crate::data::{self, Sizes, Tables};
use crate::host;
use crate::workloads::{grid_cpu_config, GRID_SCALE};

pub type Metrics = Vec<(&'static str, f64)>;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Host nanoseconds per call of `f` over `n` calls.
fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn run_all(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    sim(&mut m);
    emon_and_core(&mut m);
    let t = Instant::now();
    let tables = data::generate(seed, Sizes::PROBE);
    let krows = (Sizes::PROBE.r + Sizes::PROBE.s + Sizes::PROBE.t) as f64 / 1e3;
    m.push(("workloads.gen_us_per_krow", ms(t) * 1e3 / krows));
    let t = Instant::now();
    let olap = data::build_olap(&tables);
    m.push(("heap.load_us_per_krow", ms(t) * 1e3 / krows));
    exec(&mut m, olap, &tables);
    let indexed = buffer_and_index(&mut m, &tables);
    sql(&mut m, &indexed, &tables);
    txn(&mut m, indexed, &tables);
    shard(&mut m, &tables);
    m
}

/// The simulator's entry points on a bare `Cpu`/`Cache`, a million calls each.
fn sim(m: &mut Metrics) {
    const N: u64 = 1_000_000;
    let mut cache = Cache::new(CacheGeom {
        size_bytes: 512 * 1024,
        line_bytes: 32,
        assoc: 4,
    });
    let mut x = 1u64;
    m.push((
        "sim.cache_access_ns",
        ns_per_call(N, |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            black_box(cache.access((x >> 16) % (4 << 20), false));
        }),
    ));
    let mut cpu = Cpu::new(data::cpu_config());
    // A 100-byte stride over 8 MB: the row-mode scan's access pattern.
    let addr = |i: u64| segment::HEAP + (i * 100) % (8 << 20);
    m.push((
        "sim.load_ns",
        ns_per_call(N, |i| cpu.load(addr(i), 4, MemDep::Demand)),
    ));
    m.push((
        "sim.store_ns",
        ns_per_call(N, |i| cpu.store(addr(i), 4, MemDep::Demand)),
    ));
    m.push((
        "sim.branch_ns",
        ns_per_call(N, |i| {
            let site = BranchSite {
                addr: segment::CODE + (i % 700) * 16,
                backward: false,
            };
            cpu.branch(site, i % 3 == 0);
        }),
    ));
    let block = CodeBlock::builder("probe", 2800)
        .private(segment::PRIVATE, 4096)
        .at(segment::CODE);
    m.push((
        "sim.exec_block_ns_per_instr",
        ns_per_call(N / 4, |_| cpu.exec_block(&block)) / block.x86_instrs as f64,
    ));
    const RUN_BYTES: u32 = 8192;
    m.push((
        "sim.load_run_ns_per_line",
        ns_per_call(N / 64, |i| {
            cpu.load_run(
                segment::HEAP + (i * RUN_BYTES as u64) % (8 << 20),
                RUN_BYTES,
                MemDep::Demand,
            )
        }) / (RUN_BYTES / 32) as f64,
    ));
    const LANES: u32 = 1024;
    m.push((
        "sim.select_run_ns_per_lane",
        ns_per_call(N / 4, |_| cpu.select_run(LANES)) / LANES as f64,
    ));
    black_box(cpu.cycles());
}

/// One emon-reconstructed `measure_query`, the benchmark's own count of the
/// same cell, and host time per run of each query class (System C).
fn emon_and_core(m: &mut Metrics) {
    let cfg = grid_cpu_config();
    let srs = MicroQuery::SequentialRangeSelection;
    let methodology = Methodology {
        with_emon: true,
        ..Methodology::default()
    };
    let t = Instant::now();
    let meas = measure_query(SystemId::C, srs, 0.1, GRID_SCALE, &cfg, &methodology)
        .expect("System C SRS measures");
    m.push(("emon.measure_ms", ms(t)));
    let (truth, est) = (
        meas.truth.four_way(),
        meas.estimate.expect("emon requested").four_way(),
    );
    let err = [
        est.computation - truth.computation,
        est.memory - truth.memory,
        est.branch - truth.branch,
        est.resource - truth.resource,
    ];
    m.push((
        "emon.est_err_max",
        err.iter().fold(0.0f64, |worst, e| worst.max(e.abs())),
    ));

    let mut own_cycles = 0.0;
    for (name, query) in [
        ("core.srs_cell_ms", srs),
        ("core.irs_cell_ms", MicroQuery::IndexedRangeSelection),
        ("core.sj_cell_ms", MicroQuery::SequentialJoin),
    ] {
        let mut db = build_db(SystemId::C, GRID_SCALE, query, &cfg).expect("cell builds");
        let q = micro::query(GRID_SCALE, query, 0.1);
        let t = Instant::now();
        db.run(&q).expect("warm-up run");
        let before = db.cpu().snapshot();
        db.run(&q).expect("measured run");
        m.push((name, ms(t) / 2.0));
        if query == srs {
            let delta = db.cpu().snapshot().delta(&before);
            own_cycles = TimeBreakdown::from_snapshot(&delta, Mode::User).cycles;
        }
    }
    // The way `paper_grid` counts a cell must be `measure_query`'s way.
    m.push((
        "core.measure_query_parity",
        (own_cycles.to_bits() == meas.truth.cycles.to_bits()) as u8 as f64,
    ));
}

/// One warm-up run of `go`, then one measured: `(host ms, cycles, arena bytes)`.
fn measured<T>(db: &mut Database, mut go: impl FnMut(&mut Database) -> T) -> (f64, f64, f64) {
    go(db);
    let (cycles, arena) = (db.cpu().cycles(), db.ctx.arena_used());
    let t = Instant::now();
    black_box(go(db));
    (
        ms(t),
        db.cpu().cycles() - cycles,
        (db.ctx.arena_used() - arena) as f64,
    )
}

/// `Database::run` on hand-built queries with the physical knobs pinned.
fn exec(m: &mut Metrics, mut db: Database, t: &Tables) {
    let (lo, hi) = t.sizes.a2_window(0.1, 0.5);
    let scan = Query::range_select_avg("R", lo, hi);
    let join_s = Query::join_avg("R", "S");
    let join_t = Query::join_avg("R", "T");
    let rows = t.sizes.r as f64;
    db.set_selection_mode(SelectionMode::Branching);

    db.set_exec_mode(ExecMode::Row);
    let (host, cyc, _) = measured(&mut db, |db| db.run(&scan).expect("scan runs"));
    m.push(("exec.scan_row_ms", host));
    m.push(("exec.scan_row_cyc_per_row", cyc / rows));
    db.set_join_algo(JoinAlgo::Hash);
    let (host, cyc, _) = measured(&mut db, |db| db.run(&join_s).expect("join runs"));
    m.push(("exec.join_hash_row_ms", host));
    m.push(("exec.join_hash_cyc_per_row", cyc / rows));

    db.set_exec_mode(ExecMode::Batch);
    let (host, cyc, _) = measured(&mut db, |db| db.run(&scan).expect("scan runs"));
    m.push(("exec.scan_batch_ms", host));
    m.push(("exec.scan_batch_cyc_per_row", cyc / rows));
    let (host, _, _) = measured(&mut db, |db| {
        db.run_grouped("R", "a4", None, &AggSpec::avg("a3"))
            .expect("group-by runs")
    });
    m.push(("exec.group_batch_ms", host));
    let (host, _, _) = measured(&mut db, |db| db.run(&join_s).expect("join runs"));
    m.push(("exec.join_hash_batch_ms", host));
    db.set_join_algo(JoinAlgo::PartitionedHash);
    let (host, cyc, arena) = measured(&mut db, |db| db.run(&join_t).expect("join runs"));
    m.push(("exec.join_part_batch_ms", host));
    m.push(("exec.join_part_cyc_per_row", cyc / rows));
    m.push(("arena.join_part_bytes", arena));
}

/// Indexes R on `a2` as well, uninstrumented like every bulk build.
fn add_a2_index(db: &mut Database) {
    db.ctx.instrument = false;
    db.create_index("R", "a2").expect("R.a2 exists");
    db.ctx.instrument = true;
}

/// The page table, index build, point lookups and the indexed range scan.
/// Returns R indexed on `a1` and `a2`, with an empty H, for the next probes.
fn buffer_and_index(m: &mut Metrics, t: &Tables) -> Database {
    const PAGES: u64 = 4096;
    let mut misc = SimArena::new(segment::MISC, 1 << 20);
    let mut pool = BufferPool::new(&mut misc, PAGES);
    for page in 0..PAGES {
        pool.register(&mut misc, page, segment::HEAP + page * 8192);
    }
    let mut probed = Vec::new();
    m.push((
        "buffer.lookup_ns",
        ns_per_call(1_000_000, |i| {
            probed.clear();
            black_box(pool.lookup_into(&misc, (i * 7) % PAGES, &mut probed));
        }),
    ));

    let mut db = data::build_oltp(t);
    let timer = Instant::now();
    add_a2_index(&mut db);
    m.push(("index.create_ms", ms(timer)));

    const LOOKUPS: u64 = 10_000;
    let cycles = db.cpu().cycles();
    let n = t.sizes.r;
    let host = ns_per_call(LOOKUPS, |i| {
        let key = ((i * 7919) % n) as i32;
        black_box(db.point_select("R", "a1", key, "a3").expect("key exists"));
    });
    m.push(("index.point_select_us", host / 1e3));
    m.push((
        "index.point_select_cyc",
        (db.cpu().cycles() - cycles) / LOOKUPS as f64,
    ));

    let (lo, hi) = t.sizes.a2_window(0.1, 0.5);
    let scan = Query::range_select_avg("R", lo, hi);
    db.set_exec_mode(ExecMode::Row);
    let (host, _, _) = measured(&mut db, |db| db.run(&scan).expect("indexed scan runs"));
    m.push(("exec.indexscan_row_ms", host));
    db
}

/// The SQL frontend piece by piece, and the planner through `explain`,
/// which always re-plans.
fn sql(m: &mut Metrics, indexed: &Database, t: &Tables) {
    let texts = [
        "SELECT a3 FROM R WHERE a1 = 4711",
        "UPDATE R SET a3 = a3 + 7 WHERE a1 = 4711",
        "INSERT INTO H VALUES (1, 4711, 7, 0, 0)",
    ];
    const ROUNDS: u64 = 20_000;
    let per_stmt = |ns_per_round: f64| ns_per_round / 1e3 / texts.len() as f64;
    m.push((
        "sql.lex_us",
        per_stmt(ns_per_call(ROUNDS, |_| {
            for s in texts {
                black_box(token::lex(s).expect("lexes"));
            }
        })),
    ));
    // `parse` lexes internally; its line includes that.
    m.push((
        "sql.parse_us",
        per_stmt(ns_per_call(ROUNDS, |_| {
            for s in texts {
                black_box(parser::parse(s).expect("parses"));
            }
        })),
    ));
    let asts = texts.map(|s| parser::parse(s).expect("parses"));
    m.push((
        "sql.bind_us",
        per_stmt(ns_per_call(ROUNDS, |_| {
            for (s, ast) in texts.iter().zip(&asts) {
                black_box(bind::bind(indexed, s, ast).expect("binds"));
            }
        })),
    ));

    let mut sess = Session::open(data::build_olap(t));
    let (lo, hi) = t.sizes.a2_window(0.1, 0.5);
    let mut candidates = 0;
    for (name, text) in [
        (
            "sql.plan_scan_ms",
            format!("SELECT AVG(a3) FROM R WHERE a2 > {lo} AND a2 < {hi}"),
        ),
        (
            "sql.plan_group_ms",
            "SELECT a4, AVG(a3) FROM R GROUP BY a4".to_string(),
        ),
        (
            "sql.plan_join_ms",
            "SELECT AVG(R.a3) FROM R JOIN T ON R.a2 = T.a1".to_string(),
        ),
    ] {
        let timer = Instant::now();
        sess.explain(&text).expect("plans");
        m.push((name, ms(timer)));
        candidates += sess.last_plan().expect("planned").candidates.len();
    }
    m.push(("sql.plan_candidates", candidates as f64));
}

/// The transaction calls one by one, then the WAL they wrote replayed onto
/// a fresh load.
fn txn(m: &mut Metrics, mut db: Database, t: &Tables) {
    const N: u64 = 2_000;
    let key = |i: u64| ((i * 7919) % t.sizes.r) as i32;
    let update = |i: u64| Query::UpdateAdd {
        table: "R".into(),
        key_col: "a1".into(),
        key: key(i),
        set_col: "a3".into(),
        delta: 1,
    };
    let (mut begin, mut stmt, mut commit) = (0.0, 0.0, 0.0);
    for i in 0..N {
        let q = update(i);
        let timer = Instant::now();
        let tid = db.begin();
        begin += ms(timer);
        let timer = Instant::now();
        db.txn_run(tid, &q).expect("update stages");
        stmt += ms(timer);
        let timer = Instant::now();
        db.commit(tid).expect("no rival, no conflict");
        commit += ms(timer);
    }
    let per_call_us = |total_ms: f64| total_ms * 1e3 / N as f64;
    m.push(("txn.begin_us", per_call_us(begin)));
    m.push(("txn.stmt_us", per_call_us(stmt)));
    m.push(("txn.commit_us", per_call_us(commit)));
    m.push((
        "txn.autocommit_update_us",
        ns_per_call(N, |i| {
            db.update_add("R", "a1", key(i + N), "a3", 1)
                .expect("updates");
        }) / 1e3,
    ));
    m.push((
        "txn.insert_us",
        ns_per_call(N, |i| {
            db.insert_row("H", vec![i as i32, 0, 0, 0, 0])
                .expect("inserts");
        }) / 1e3,
    ));

    let commits = db.wal().commit_count();
    let mut fresh = data::build_oltp(t);
    add_a2_index(&mut fresh);
    let timer = Instant::now();
    let replayed = fresh
        .replay_wal(db.wal().records(), commits)
        .expect("replays");
    m.push((
        "txn.replay_ms_per_kcommit",
        ms(timer) / (replayed as f64 / 1e3),
    ));
    assert_eq!(
        fresh.state_digest(),
        db.state_digest(),
        "probe WAL replay must rebuild the live state"
    );
}

/// The `olap_warm` scan and `R JOIN S` on four shards: sequential router,
/// then the OS-thread executor. `Session` cannot reach `run_parallel` yet,
/// so no end-to-end metric moves with these; they are the before-number.
fn shard(m: &mut Metrics, t: &Tables) {
    let (lo, hi) = t.sizes.a2_window(0.1, 0.5);
    let queries = [
        Query::range_select_avg("R", lo, hi),
        Query::join_avg("R", "S"),
    ];
    let mut whole = data::build_olap(t);
    whole.set_exec_mode(ExecMode::Batch);
    let (_, one_shard_cycles, _) = measured(&mut whole, |db| {
        for q in &queries {
            db.run(q).expect("runs");
        }
    });
    for (table, col) in [("R", "a2"), ("S", "a1"), ("T", "a1")] {
        whole.set_shard_key(table, col).expect("column exists");
    }
    let timer = Instant::now();
    let mut sharded = whole.shard(4).expect("shards");
    m.push(("shard.split_ms", ms(timer)));

    let run_seq = |db: &mut wdtg_memdb::ShardedDatabase| {
        for q in &queries {
            db.run(q).expect("runs");
        }
    };
    run_seq(&mut sharded);
    let before = sharded.snapshots();
    let timer = Instant::now();
    run_seq(&mut sharded);
    let seq_ms = ms(timer);
    let wall = sharded.merged_delta(&before).wall_cycles;
    m.push(("shard.run_seq_ms", seq_ms));

    // Never more threads than the host has cores.
    let cfg = ParallelConfig::default().with_workers(host::nproc().min(4));
    let run_par = |db: &mut wdtg_memdb::ShardedDatabase| {
        for q in &queries {
            db.run_parallel(q, &cfg).expect("runs");
        }
    };
    run_par(&mut sharded);
    let timer = Instant::now();
    run_par(&mut sharded);
    let par_ms = ms(timer);
    m.push(("parallel.run_ms", par_ms));
    m.push(("parallel.speedup", seq_ms / par_ms));
    m.push(("shard.sim_wall_speedup", one_shard_cycles / wall));
    m.push(("shard.retries", sharded.router_stats().retries as f64));
}
