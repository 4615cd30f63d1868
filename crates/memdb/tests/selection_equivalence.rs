//! Branching-vs-predicated selection equivalence.
//!
//! The selection mode is a *cost* knob: it decides whether the qualify
//! decision runs through the branch predictor or through cmov-style
//! arithmetic (plus, in batch mode, whether qualification compacts the
//! batch or installs a selection vector). It must never change an answer.
//! The suite runs the range selection across both exec modes × both page
//! layouts × the selectivity edge set {0, 1%, 50%, 99%, 100%}, asserts
//! identical results, and pins the mode's defining hardware property:
//! predicated plans execute **zero** data-dependent qualify branches, so
//! nothing data-dependent is left to mispredict.

use wdtg_memdb::testutil::{measure, quiet};
use wdtg_memdb::{Database, EngineProfile, ExecMode, PageLayout, Query, SelectionMode, SystemId};
use wdtg_sim::{Event, Mode};

const ROWS: usize = 6_000;

/// 5-column rows with a *well-mixed* random `a2` over 0..512 (splitmix64
/// finalizer): the qualify branch's direction stream must be genuinely
/// unpredictable — the linear sequences of `testutil::rows_for` have
/// patterns a two-level adaptive predictor partially learns.
fn random_rows(n: usize, seed: u64) -> Vec<Vec<i32>> {
    (0..n)
        .map(|i| {
            let mut x = (i as u64).wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            vec![
                i as i32,
                (x % 512) as i32,
                ((x >> 16) % 1009) as i32,
                ((x >> 32) % 7) as i32,
                0,
            ]
        })
        .collect()
}

/// `a2` of [`random_rows`] is uniform over 0..512; bounds for a target
/// selectivity over that domain (qualifying values are `lo+1..=hi-1`).
fn range_for(selectivity: f64) -> (i32, i32) {
    if selectivity <= 0.0 {
        (0, 0) // empty: nothing satisfies a2 > 0 && a2 < 0
    } else if selectivity >= 1.0 {
        (-1, 512) // full: every 0 <= a2 < 512 qualifies
    } else {
        let width = (selectivity * 512.0).round() as i32;
        let lo = (512 - width) / 2;
        (lo, lo + width + 1)
    }
}

fn build(sys: SystemId, layout: PageLayout, mode: ExecMode, selection: SelectionMode) -> Database {
    let rows = random_rows(ROWS, 11);
    let mut db = Database::new(EngineProfile::system(sys), quiet());
    db.set_exec_mode(mode);
    db.set_selection_mode(selection);
    db.ctx.instrument = false;
    db.create_table_with_layout("R", wdtg_memdb::Schema::paper_relation(20), layout)
        .unwrap();
    db.load_rows("R", rows.iter().cloned()).unwrap();
    db.ctx.instrument = true;
    db
}

#[test]
fn selection_modes_agree_on_every_answer() {
    // Oracle from the generator directly.
    let rows = random_rows(ROWS, 11);
    for sys in [SystemId::A, SystemId::C] {
        for mode in [ExecMode::Row, ExecMode::Batch] {
            for layout in PageLayout::ALL {
                for sel in [0.0, 0.01, 0.5, 0.99, 1.0] {
                    let (lo, hi) = range_for(sel);
                    let expected: Vec<i64> = rows
                        .iter()
                        .filter(|r| r[1] > lo && r[1] < hi)
                        .map(|r| r[2] as i64)
                        .collect();
                    let q = Query::range_select_avg("R", lo, hi);
                    let mut results = Vec::new();
                    for selection in SelectionMode::ALL {
                        let mut db = build(sys, layout, mode, selection);
                        results.push(db.run(&q).unwrap());
                    }
                    let (b, p) = (&results[0], &results[1]);
                    assert_eq!(
                        b.rows,
                        expected.len() as u64,
                        "{sys:?} {mode:?} {layout:?} sel {sel}: branching row count vs oracle"
                    );
                    assert_eq!(
                        (b.rows, b.value),
                        (p.rows, p.value),
                        "{sys:?} {mode:?} {layout:?} sel {sel}: selection modes disagree"
                    );
                    if !expected.is_empty() {
                        let avg = expected.iter().sum::<i64>() as f64 / expected.len() as f64;
                        assert!((b.value - avg).abs() < 1e-9, "{sys:?} {mode:?} {layout:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn predicated_batch_mode_reports_zero_qualify_mispredictions() {
    // 50% selectivity is the worst case for the qualify branch — and the
    // case where predication's defining property must hold exactly: no
    // data-dependent branch executed, hence no data-dependent misprediction
    // (SIM.DATA_BRANCH_MISS counts mispredictions of individually simulated
    // branches only; the SRS plan's sole such branch is the qualify site).
    let (lo, hi) = range_for(0.5);
    let q = Query::range_select_avg("R", lo, hi);
    for layout in PageLayout::ALL {
        let mut db = build(
            SystemId::A,
            layout,
            ExecMode::Batch,
            SelectionMode::Predicated,
        );
        let (res, delta) = measure(&mut db, &q);
        assert!(res.rows > 0, "a 50% selection must select rows");
        assert_eq!(
            delta.counters.get(Mode::User, Event::SimDataBranchMiss),
            0,
            "{layout:?}: predicated batch plan executed a data-dependent qualify branch"
        );
        assert!(
            delta.counters.get(Mode::User, Event::SimSelectOps) >= ROWS as u64,
            "{layout:?}: the predication work must be charged (one select lane per row)"
        );
    }

    // The branching twin on the same data mispredicts heavily at 50%.
    let mut db = build(
        SystemId::A,
        PageLayout::Nsm,
        ExecMode::Batch,
        SelectionMode::Branching,
    );
    let (_, delta) = measure(&mut db, &q);
    let miss = delta.counters.get(Mode::User, Event::SimDataBranchMiss);
    assert!(
        miss as f64 > 0.2 * ROWS as f64,
        "a 50% random qualify branch should mispredict often, got {miss}/{ROWS}"
    );
}

#[test]
fn predicated_row_mode_also_eliminates_qualify_branches() {
    let (lo, hi) = range_for(0.5);
    let q = Query::range_select_avg("R", lo, hi);
    let mut db = build(
        SystemId::C,
        PageLayout::Nsm,
        ExecMode::Row,
        SelectionMode::Predicated,
    );
    let (_, delta) = measure(&mut db, &q);
    assert_eq!(delta.counters.get(Mode::User, Event::SimDataBranchMiss), 0);
    assert!(delta.counters.get(Mode::User, Event::SimSelectOps) >= ROWS as u64);
}

#[test]
fn predication_trades_instructions_for_branch_stalls() {
    // The simulator must show the trade both ways at peak-misprediction
    // selectivity: predicated plans retire strictly more instructions
    // (the unconditional select work) and charge strictly less T_B.
    let (lo, hi) = range_for(0.5);
    let q = Query::range_select_avg("R", lo, hi);
    for mode in [ExecMode::Row, ExecMode::Batch] {
        let mut deltas = Vec::new();
        for selection in SelectionMode::ALL {
            let mut db = build(SystemId::A, PageLayout::Nsm, mode, selection);
            deltas.push(measure(&mut db, &q).1);
        }
        let (b, p) = (&deltas[0], &deltas[1]);
        let instr = |d: &wdtg_sim::Snapshot| d.counters.get(Mode::User, Event::InstRetired);
        let tb = |d: &wdtg_sim::Snapshot| d.ledger.total(wdtg_sim::Component::Tb);
        assert!(
            instr(p) > instr(b),
            "{mode:?}: predication must charge its extra instructions"
        );
        assert!(
            tb(p) < tb(b),
            "{mode:?}: predication must cut branch-misprediction stalls \
             ({} vs {})",
            tb(p),
            tb(b)
        );
    }
}
