//! Microbenchmarks of the DBMS substrate: scan/probe throughput with
//! instrumentation on and off (the difference is the simulation overhead).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wdtg_memdb::{Database, EngineProfile, ExecMode, Query, Schema, SystemId};
use wdtg_sim::{CpuConfig, InterruptCfg};

fn db_with_rows(sys: SystemId, rows: u64, instrument: bool) -> Database {
    let mut db = Database::new(
        EngineProfile::system(sys),
        CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    );
    db.create_table("R", Schema::paper_relation(100)).unwrap();
    db.load_rows(
        "R",
        (0..rows).map(|i| {
            let mut r = vec![0i32; 25];
            r[0] = i as i32;
            r[1] = (i % 2000) as i32 + 1;
            r[2] = (i % 97) as i32;
            r
        }),
    )
    .unwrap();
    db.ctx.instrument = instrument;
    db
}

fn bench_scan(c: &mut Criterion) {
    const ROWS: u64 = 20_000;
    let mut g = c.benchmark_group("memdb/seqscan");
    g.throughput(Throughput::Elements(ROWS));
    g.sample_size(10);
    for (label, instrument) in [("instrumented", true), ("raw", false)] {
        g.bench_function(label, |b| {
            let mut db = db_with_rows(SystemId::C, ROWS, instrument);
            let q = Query::range_select_avg("R", 100, 500);
            b.iter(|| db.run(&q).unwrap().rows)
        });
    }
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    const ROWS: u64 = 20_000;
    let mut g = c.benchmark_group("memdb/index");
    g.sample_size(10);
    g.bench_function("point_selects", |b| {
        let mut db = db_with_rows(SystemId::B, ROWS, true);
        db.ctx.instrument = false;
        db.create_index("R", "a1").unwrap();
        db.ctx.instrument = true;
        let mut k = 0;
        b.iter(|| {
            k = (k + 7919) % ROWS as i32;
            db.run(&Query::PointSelect {
                table: "R".into(),
                key_col: "a1".into(),
                key: k,
                read_col: "a3".into(),
            })
            .unwrap()
            .rows
        })
    });
    g.finish();
}

fn bench_exec_modes(c: &mut Criterion) {
    // Row-at-a-time vs vectorized execution of the same range selection:
    // the host-time gap tracks the per-tuple simulation-event collapse.
    const ROWS: u64 = 20_000;
    let mut g = c.benchmark_group("memdb/exec_mode");
    g.throughput(Throughput::Elements(ROWS));
    g.sample_size(10);
    for (label, mode) in [("row", ExecMode::Row), ("batch", ExecMode::Batch)] {
        g.bench_function(label, |b| {
            let mut db = db_with_rows(SystemId::C, ROWS, true);
            db.set_exec_mode(mode);
            let q = Query::range_select_avg("R", 100, 500);
            b.iter(|| db.run(&q).unwrap().rows)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scan, bench_index, bench_exec_modes);
criterion_main!(benches);
