//! Exact simulated goldens: the microbenchmark grid's counters, pinned to
//! the last bit.
//!
//! The simulator is deterministic, so these are not tolerances but
//! equalities: cycles by `f64::to_bits`, the rest as integer counts, for
//! Systems A–D × {SRS, IRS, SJ} in row mode and System C in batch mode at
//! `Scale::tiny`, on the paper's processor (timer interrupts on). Each cell
//! is one warm-up run followed by one measured run; the measured run's
//! `Snapshot` delta over both modes is what is pinned.
//!
//! A second table pins the grouped aggregate the same way:
//! `SELECT a4, AVG(a3) FROM R [WHERE lo < a2 < hi] GROUP BY a4` on the
//! unindexed sequential-range database, Systems A–D in row mode and System C
//! in batch mode, plus one 4-shard morselized run on the thread pool.
//!
//! A third table pins the autocommit write path — the one the TPC-C driver
//! takes, with every `UPDATE`/`INSERT` an implicit single-statement
//! transaction: 300 `TpccDriver` transactions (`TpccScale::tiny`, seed 1) on
//! Systems A–D, plus two System C autocommit `UpdateAdd`s on an `a2` key
//! that 28 rows of the microbenchmark table share. Besides the five
//! counter fields it pins the WAL's record and commit counts and the
//! database's `state_digest`.
//!
//! **A golden may change only in a commit that says, in one sentence, why
//! the model's answer moved.** A host-side optimisation of the simulator or
//! the engine must leave every value here untouched; that is what this file
//! guards. On a mismatch the failure message prints the whole table as
//! measured, ready to paste, so a deliberate model change is cheap to
//! re-capture — and an accidental one is loud.

use wdtg_core::methodology::{build_db, build_sharded_db_with_layout};
use wdtg_memdb::{
    AggSpec, Database, EngineProfile, ExecMode, PageLayout, ParallelConfig, Query, QueryPredicate,
    SystemId,
};
use wdtg_sim::{CpuConfig, Event, Snapshot};
use wdtg_workloads::tpcc::{self, TpccScale};
use wdtg_workloads::{micro, MicroQuery, Scale, TpccDriver};

/// `(system, query, mode, cycles.to_bits(), INST_RETIRED, L1I misses,
/// L2 data misses, branch mispredictions)`.
type Golden = (SystemId, MicroQuery, ExecMode, u64, u64, u64, u64, u64);

/// `(system, ranged, mode, …)` with the same five pinned fields as
/// [`Golden`]; `ranged` adds the 10 % `a2` range of the SRS cell.
type GroupedGolden = (SystemId, bool, ExecMode, u64, u64, u64, u64, u64);

use ExecMode::{Batch, Row};
use MicroQuery::{
    IndexedRangeSelection as IRS, SequentialJoin as SJ, SequentialRangeSelection as SRS,
};
use SystemId::{A, B, C, D};

#[rustfmt::skip]
const GOLDENS: [Golden; 15] = [
    (A, SRS, Row, 0x4167c1746d1af016, 11044592, 45167, 13780, 40783), // 12454819.4 cycles
    (A, IRS, Row, 0x4167c1746d1af016, 11044592, 45167, 13780, 40783), // 12454819.4 cycles
    (A, SJ, Row, 0x4179475d1c872999, 22581883, 106747, 14621, 109984), // 26506705.8 cycles
    (B, SRS, Row, 0x4188251812a077a0, 50417123, 704280, 3331, 313592), // 50635522.3 cycles
    (B, IRS, Row, 0x4160cf3805cd7b58, 7260692, 225768, 1313, 88594), // 8812992.2 cycles
    (B, SJ, Row, 0x4196a78431e30da8, 76339928, 3054919, 4012, 981368), // 95019276.5 cycles
    (C, SRS, Row, 0x41906fd64a4892fa, 61194246, 575986, 38000, 512120), // 68941202.6 cycles
    (C, IRS, Row, 0x41636d05af2843d7, 7930818, 281293, 1330, 85017), // 10184749.5 cycles
    (C, SJ, Row, 0x4195b55340a4880a, 73319841, 1546909, 39803, 855461), // 91051216.2 cycles
    (D, SRS, Row, 0x4194bfbf1da64177, 78552971, 1002820, 38017, 589262), // 87027655.4 cycles
    (D, IRS, Row, 0x416a006b4ce77f91, 10295115, 523743, 1320, 104644), // 13632346.4 cycles
    (D, SJ, Row, 0x419d5a0a38c04ef9, 95467012, 4035271, 41288, 984068), // 123110030.2 cycles
    (C, SRS, Batch, 0x41666a68ecb6f562, 11836388, 24996, 38259, 19356), // 11752263.4 cycles
    (C, IRS, Batch, 0x4129c2fd50da741a, 778681, 3264, 1361, 1941), // 844158.7 cycles
    (C, SJ, Batch, 0x4169a66a1dc5f89a, 12185633, 26121, 40038, 16943), // 13448016.9 cycles
];

#[rustfmt::skip]
const GROUPED_GOLDENS: [GroupedGolden; 10] = [
    (A, false, Row, 0x416e94f5849d4789, 15433666, 46336, 13763, 63825), // 16033708.1 cycles
    (A, true, Row, 0x416874ce980d3089, 11326444, 45823, 15286, 40977), // 12822132.8 cycles
    (B, false, Row, 0x41918bd15a5511ae, 64757659, 1193838, 3362, 779712), // 73593942.6 cycles
    (B, true, Row, 0x4188262c50fa9461, 50417123, 705608, 3355, 313567), // 50644362.1 cycles
    (C, false, Row, 0x41906bc4b6d9eff1, 59226246, 491919, 38017, 648282), // 68874541.7 cycles
    (C, true, Row, 0x4190709697765037, 61197172, 576149, 38022, 512378), // 68953509.9 cycles
    (D, false, Row, 0x419527dc3a1c9563, 76808861, 924427, 38023, 815523), // 88733454.5 cycles
    (D, true, Row, 0x4194c028c2b51a8d, 78552971, 1002854, 38050, 589314), // 87034416.7 cycles
    (C, false, Batch, 0x4159a125c5619c85, 5605496, 21419, 38195, 9934), // 6718615.1 cycles
    (C, true, Batch, 0x4167f64ba3ac0a85, 12888870, 26529, 38258, 19615), // 12563037.1 cycles
];

/// The ranged grouped statement on System C split four ways and run by
/// `run_grouped_parallel` (2 workers, 64-row morsels): the five fields of
/// the merged total over every shard.
const SHARDED_GROUPED_GOLDEN: (u64, u64, u64, u64, u64) =
    (0x4190097775a0e436, 61190083, 574354, 2172, 509812); // 67263965.4 cycles

/// `(system, cycles.to_bits(), INST_RETIRED, L1I misses, L2 data misses,
/// branch mispredictions, WAL records, WAL commits, state_digest)` after
/// the measured TPC-C transactions.
type AutocommitGolden = (SystemId, u64, u64, u64, u64, u64, usize, usize, u64);

#[rustfmt::skip]
const AUTOCOMMIT_GOLDENS: [AutocommitGolden; 4] = [
    (A, 0x4195d510b6c94ed9, 29156708, 2340158, 747678, 374700, 7000, 3500, 0x42d57ed5c7175770), // 91571245.7 cycles
    (B, 0x419dbd4817ed450e, 42858466, 3576527, 750515, 794789, 7000, 3500, 0x42d57ed5c7175770), // 124736006.0 cycles
    (C, 0x41a2cd8a2b8f5ee4, 51476572, 4451415, 766105, 931414, 7000, 3500, 0x42d57ed5c7175770), // 157730069.8 cycles
    (D, 0x41a542cc3a4880e2, 60633058, 5336296, 765740, 982167, 7000, 3500, 0x42d57ed5c7175770), // 178349597.1 cycles
];

/// The `a2` key both autocommit `UpdateAdd`s of the System C row set.
const UPDATE_KEY: i32 = 7;

/// `(rows matched, the five counter fields, WAL records, WAL commits,
/// state_digest)` of the two System C autocommit `UpdateAdd`s on
/// [`UPDATE_KEY`].
#[rustfmt::skip]
const AUTOCOMMIT_UPDATE_GOLDEN: (u64, u64, u64, u64, u64, u64, usize, usize, u64) =
    (28, 0x4126d1e8deb8519b, 353084, 26275, 583, 5994, 58, 2, 0x844b4beaea1ad170); // 747764.4 cycles

/// `(cycles.to_bits(), INST_RETIRED, L1I misses, L2 data misses, branch
/// mispredictions)` of a measured delta.
fn fields(d: &Snapshot) -> (u64, u64, u64, u64, u64) {
    (
        d.cycles.to_bits(),
        d.counters.total(Event::InstRetired),
        d.counters.total(Event::IfuIfetchMiss),
        d.counters.total(Event::SimL2DataMiss),
        d.counters.total(Event::BrMissPredRetired),
    )
}

fn measure(system: SystemId, query: MicroQuery, mode: ExecMode) -> Golden {
    let scale = Scale::tiny();
    let mut db = build_db(system, scale, query, &CpuConfig::pentium_ii_xeon()).expect("build");
    db.set_exec_mode(mode);
    let q = micro::query(scale, query, 0.1);
    db.run(&q).expect("warm-up run");
    let before = db.cpu().snapshot();
    db.run(&q).expect("measured run");
    let (cyc, instr, l1i, l2d, br) = fields(&db.cpu().snapshot().delta(&before));
    (system, query, mode, cyc, instr, l1i, l2d, br)
}

/// The SRS cell's `a2` range (10 %), as the grouped statement's predicate.
fn a2_range(ranged: bool) -> Option<QueryPredicate> {
    let (lo, hi) = Scale::tiny().selectivity_range(0.1);
    ranged.then(|| QueryPredicate::Range {
        col: "a2".into(),
        lo,
        hi,
    })
}

fn measure_grouped(system: SystemId, ranged: bool, mode: ExecMode) -> GroupedGolden {
    let query = MicroQuery::SequentialRangeSelection;
    let cfg = CpuConfig::pentium_ii_xeon();
    let mut db = build_db(system, Scale::tiny(), query, &cfg).expect("build");
    db.set_exec_mode(mode);
    let (pred, agg) = (a2_range(ranged), AggSpec::avg("a3"));
    db.run_grouped("R", "a4", pred.as_ref(), &agg)
        .expect("warm-up run");
    let before = db.cpu().snapshot();
    db.run_grouped("R", "a4", pred.as_ref(), &agg)
        .expect("measured run");
    let (cyc, instr, l1i, l2d, br) = fields(&db.cpu().snapshot().delta(&before));
    (system, ranged, mode, cyc, instr, l1i, l2d, br)
}

fn measure_sharded_grouped() -> (u64, u64, u64, u64, u64) {
    let mut db = build_sharded_db_with_layout(
        EngineProfile::system(SystemId::C),
        Scale::tiny(),
        MicroQuery::SequentialRangeSelection,
        &CpuConfig::pentium_ii_xeon(),
        PageLayout::Nsm,
        4,
    )
    .expect("sharded build");
    let par = ParallelConfig::default()
        .with_workers(2)
        .with_morsel_rows(64);
    let (pred, agg) = (a2_range(true), AggSpec::avg("a3"));
    let run = |db: &mut wdtg_memdb::ShardedDatabase| {
        db.run_grouped_parallel("R", "a4", pred.as_ref(), &agg, &par)
            .expect("grouped run")
    };
    run(&mut db);
    let before = db.snapshots();
    run(&mut db);
    fields(&db.merged_delta(&before).total)
}

fn measure_tpcc(system: SystemId) -> AutocommitGolden {
    let scale = TpccScale::tiny();
    let mut db = Database::with_capacity(
        EngineProfile::system(system),
        CpuConfig::pentium_ii_xeon(),
        1 << 16,
    );
    db.ctx.instrument = false;
    tpcc::load(&mut db, scale, 1).expect("load");
    db.ctx.instrument = true;
    let before = db.cpu().snapshot();
    TpccDriver::new(scale, 1).run(&mut db, 300).expect("txns");
    let (cyc, instr, l1i, l2d, br) = fields(&db.cpu().snapshot().delta(&before));
    let wal = db.wal();
    let (records, commits) = (wal.records().len(), wal.commit_count());
    (
        system,
        cyc,
        instr,
        l1i,
        l2d,
        br,
        records,
        commits,
        db.state_digest(),
    )
}

fn measure_autocommit_update() -> (u64, u64, u64, u64, u64, u64, usize, usize, u64) {
    let query = MicroQuery::IndexedRangeSelection;
    let mut db = build_db(C, Scale::tiny(), query, &CpuConfig::pentium_ii_xeon()).expect("build");
    let update = Query::UpdateAdd {
        table: "R".into(),
        key_col: "a2".into(),
        key: UPDATE_KEY,
        set_col: "a3".into(),
        delta: 5,
    };
    let before = db.cpu().snapshot();
    let rows = db.run(&update).expect("first update").rows;
    assert_eq!(db.run(&update).expect("second update").rows, rows);
    let (cyc, instr, l1i, l2d, br) = fields(&db.cpu().snapshot().delta(&before));
    let wal = db.wal();
    let (records, commits) = (wal.records().len(), wal.commit_count());
    (
        rows,
        cyc,
        instr,
        l1i,
        l2d,
        br,
        records,
        commits,
        db.state_digest(),
    )
}

fn render(rows: &[Golden]) -> String {
    let q = |q: MicroQuery| match q {
        SRS => "SRS",
        IRS => "IRS",
        SJ => "SJ",
    };
    rows.iter()
        .map(|&(s, query, m, cyc, instr, l1i, l2d, br)| {
            format!(
                "    ({s:?}, {}, {m:?}, {cyc:#018x}, {instr}, {l1i}, {l2d}, {br}), // {:.1} cycles\n",
                q(query),
                f64::from_bits(cyc)
            )
        })
        .collect()
}

#[test]
fn microbenchmark_grid_counters_are_bit_exact() {
    // One thread per cell: each owns its database and processor.
    let measured: Vec<Golden> = std::thread::scope(|s| {
        let cells: Vec<_> = GOLDENS
            .iter()
            .map(|&(system, query, mode, ..)| s.spawn(move || measure(system, query, mode)))
            .collect();
        cells
            .into_iter()
            .map(|cell| cell.join().expect("cell measures"))
            .collect()
    });
    assert!(
        measured == GOLDENS,
        "simulated counters moved. If the model changed on purpose, say why in the commit and \
         replace GOLDENS with:\n{}",
        render(&measured)
    );
}

#[test]
fn grouped_aggregate_counters_are_bit_exact() {
    let (measured, sharded) = std::thread::scope(|s| {
        let cells: Vec<_> = GROUPED_GOLDENS
            .iter()
            .map(|&(system, ranged, mode, ..)| {
                s.spawn(move || measure_grouped(system, ranged, mode))
            })
            .collect();
        let sharded = s.spawn(measure_sharded_grouped);
        let measured: Vec<GroupedGolden> = cells
            .into_iter()
            .map(|cell| cell.join().expect("cell measures"))
            .collect();
        (measured, sharded.join().expect("sharded run measures"))
    });
    let rows: String = measured
        .iter()
        .map(|&(s, ranged, m, cyc, instr, l1i, l2d, br)| {
            format!(
                "    ({s:?}, {ranged}, {m:?}, {cyc:#018x}, {instr}, {l1i}, {l2d}, {br}), // {:.1} cycles\n",
                f64::from_bits(cyc)
            )
        })
        .collect();
    let (cyc, instr, l1i, l2d, br) = sharded;
    assert!(
        measured == GROUPED_GOLDENS && sharded == SHARDED_GROUPED_GOLDEN,
        "simulated counters moved. If the model changed on purpose, say why in the commit and \
         replace GROUPED_GOLDENS with:\n{rows}and SHARDED_GROUPED_GOLDEN with:\n    \
         ({cyc:#018x}, {instr}, {l1i}, {l2d}, {br}) // {:.1} cycles",
        f64::from_bits(cyc)
    );
}

#[test]
fn autocommit_write_path_is_bit_exact() {
    let (measured, update) = std::thread::scope(|s| {
        let cells: Vec<_> = [A, B, C, D]
            .into_iter()
            .map(|system| s.spawn(move || measure_tpcc(system)))
            .collect();
        let update = s.spawn(measure_autocommit_update);
        let measured: Vec<AutocommitGolden> = cells
            .into_iter()
            .map(|cell| cell.join().expect("cell measures"))
            .collect();
        (measured, update.join().expect("update measures"))
    });
    let rows: String = measured
        .iter()
        .map(|&(s, cyc, instr, l1i, l2d, br, recs, commits, digest)| {
            format!(
                "    ({s:?}, {cyc:#018x}, {instr}, {l1i}, {l2d}, {br}, {recs}, {commits}, \
                 {digest:#018x}), // {:.1} cycles\n",
                f64::from_bits(cyc)
            )
        })
        .collect();
    let (n, cyc, instr, l1i, l2d, br, recs, commits, digest) = update;
    assert!(n > 1, "UPDATE_KEY must match several rows, matched {n}");
    assert!(
        measured == AUTOCOMMIT_GOLDENS && update == AUTOCOMMIT_UPDATE_GOLDEN,
        "simulated counters moved. If the model changed on purpose, say why in the commit and \
         replace AUTOCOMMIT_GOLDENS with:\n{rows}and AUTOCOMMIT_UPDATE_GOLDEN with:\n    \
         ({n}, {cyc:#018x}, {instr}, {l1i}, {l2d}, {br}, {recs}, {commits}, {digest:#018x}); \
         // {:.1} cycles",
        f64::from_bits(cyc)
    );
}
