//! NSM-vs-PAX equivalence: the page layout changes where bytes live inside
//! a page — never what a query answers. Every query shape of the row/batch
//! parity suite must return identical results under `PageLayout::Nsm` and
//! `PageLayout::Pax`, in both execution modes; and on narrow projections a
//! PAX sequential scan must touch strictly fewer cache lines (the layout's
//! entire reason to exist).

use proptest::prelude::*;
use wdtg_memdb::testutil::{build_db_layout, measure, rows_for};
use wdtg_memdb::{AggSpec, CmpOp, ExecMode, Expr, PageLayout, Query, QueryPredicate, SystemId};
use wdtg_sim::{Event, Snapshot};

/// Runs `q` under both layouts (same system, same mode) and asserts the
/// answers are identical. Returns the (NSM, PAX) snapshot deltas.
fn assert_layouts_agree(
    sys: SystemId,
    mode: ExecMode,
    tables: &[(&str, &[Vec<i32>])],
    index_a2: bool,
    q: &Query,
) -> (Snapshot, Snapshot) {
    let mut nsm_db = build_db_layout(sys, PageLayout::Nsm, tables, index_a2);
    let mut pax_db = build_db_layout(sys, PageLayout::Pax, tables, index_a2);
    nsm_db.set_exec_mode(mode);
    pax_db.set_exec_mode(mode);
    let (nsm_res, nsm_d) = measure(&mut nsm_db, q);
    let (pax_res, pax_d) = measure(&mut pax_db, q);
    assert_eq!(
        nsm_res.rows, pax_res.rows,
        "{sys:?} {mode:?} {q:?}: row counts differ across layouts"
    );
    assert!(
        (nsm_res.value - pax_res.value).abs() < 1e-9,
        "{sys:?} {mode:?} {q:?}: values differ across layouts: {} vs {}",
        nsm_res.value,
        pax_res.value
    );
    (nsm_d, pax_d)
}

#[test]
fn narrow_scan_takes_fewer_l2_data_misses_under_pax() {
    // A fields-only engine (System A) scanning 2 of 5 columns of a heap
    // well past L2 capacity: NSM drags whole records through the hierarchy,
    // PAX only the projected minipages.
    let rows = rows_for(120_000, 11);
    let q = Query::SelectAgg {
        table: "R".into(),
        predicate: Some(QueryPredicate::Range {
            col: "a2".into(),
            lo: 100,
            hi: 160,
        }),
        agg: AggSpec::avg("a3"),
    };
    for mode in [ExecMode::Row, ExecMode::Batch] {
        let (nsm_d, pax_d) = assert_layouts_agree(SystemId::A, mode, &[("R", &rows)], false, &q);
        let nsm_miss = nsm_d.counters.total(Event::SimL2DataMiss);
        let pax_miss = pax_d.counters.total(Event::SimL2DataMiss);
        assert!(
            pax_miss < nsm_miss,
            "{mode:?}: PAX must miss less on a narrow projection: NSM {nsm_miss} vs PAX {pax_miss}"
        );
    }
}

#[test]
fn full_row_access_stays_near_parity_across_layouts() {
    // OLTP-style point selects materialize whole rows: PAX gathers one
    // field per minipage — the same lines NSM touches contiguously.
    let rows = rows_for(50_000, 13);
    let mut results = Vec::new();
    for layout in PageLayout::ALL {
        let mut db = build_db_layout(SystemId::C, layout, &[("R", &rows)], true);
        // Warm pass then measured pass over the same keys.
        for pass in 0..2 {
            let before = db.cpu().snapshot();
            let mut checksum = 0f64;
            for key in (0..512).map(|k| (k * 977) % 512) {
                let r = db.point_select("R", "a2", key, "a3").unwrap();
                checksum += r.value * r.rows as f64;
            }
            if pass == 1 {
                let d = db.cpu().snapshot().delta(&before);
                results.push((checksum, d.counters.total(Event::SimL2DataMiss)));
            }
        }
    }
    let (nsm, pax) = (results[0], results[1]);
    assert_eq!(nsm.0, pax.0, "point-select answers differ across layouts");
    let ratio = pax.1 as f64 / (nsm.1 as f64).max(1.0);
    assert!(
        (0.7..=1.3).contains(&ratio),
        "full-row point access should be near parity: NSM {} vs PAX {} misses",
        nsm.1,
        pax.1
    );
}

#[test]
fn updates_and_inserts_agree_across_layouts() {
    let rows = rows_for(4_000, 19);
    for layout in PageLayout::ALL {
        let mut db = build_db_layout(SystemId::B, layout, &[("R", &rows)], true);
        let upd = db
            .run(&Query::UpdateAdd {
                table: "R".into(),
                key_col: "a2".into(),
                key: 37,
                set_col: "a3".into(),
                delta: 5,
            })
            .unwrap();
        assert!(upd.rows > 0, "{layout:?}: update touched no rows");
        db.run(&Query::InsertRow {
            table: "R".into(),
            values: vec![9_999_999, 37, 123, 0, 0],
        })
        .unwrap();
        // The inserted row is found through the index afterwards.
        let sel = db.point_select("R", "a2", 37, "a3").unwrap();
        assert!(sel.rows > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scan/filter queries: identical answers under both layouts
    /// on arbitrary data, selectivities, systems, exec modes, with and
    /// without an index.
    #[test]
    fn random_range_selects_agree(
        rows in proptest::collection::vec(
            proptest::collection::vec(-100i32..100, 5..=5), 1..400),
        lo in -120i32..120,
        span in 0i32..150,
        sys_pick in 0usize..4,
        batch in any::<bool>(),
        with_index in any::<bool>(),
    ) {
        let sys = SystemId::ALL[sys_pick];
        let mode = if batch { ExecMode::Batch } else { ExecMode::Row };
        let q = Query::SelectAgg {
            table: "R".into(),
            predicate: Some(QueryPredicate::Range {
                col: "a2".into(), lo, hi: lo.saturating_add(span),
            }),
            agg: AggSpec::avg("a3"),
        };
        assert_layouts_agree(sys, mode, &[("R", &rows)], with_index, &q);
    }

    /// Randomized joins: identical answers under both layouts.
    #[test]
    fn random_joins_agree(
        r_rows in proptest::collection::vec(
            proptest::collection::vec(-10i32..10, 5..=5), 1..120),
        s_rows in proptest::collection::vec(
            proptest::collection::vec(-10i32..10, 5..=5), 1..80),
        sys_pick in 0usize..4,
        batch in any::<bool>(),
    ) {
        let sys = SystemId::ALL[sys_pick];
        let mode = if batch { ExecMode::Batch } else { ExecMode::Row };
        let q = Query::join_avg("R", "S");
        assert_layouts_agree(sys, mode, &[("R", &r_rows), ("S", &s_rows)], false, &q);
    }

    /// Randomized grouped aggregation, with no predicate and with an
    /// expression one (`a3 >= t`): identical group/value pairs.
    #[test]
    fn random_groupbys_agree(
        rows in proptest::collection::vec(
            proptest::collection::vec(-30i32..30, 5..=5), 1..200),
        sys_pick in 0usize..4,
        threshold in -30i32..30,
    ) {
        let sys = SystemId::ALL[sys_pick];
        let expr = QueryPredicate::Expr(Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Col(2)),
            Box::new(Expr::Const(threshold)),
        ));
        for pred in [None, Some(&expr)] {
            let mut nsm_db = build_db_layout(sys, PageLayout::Nsm, &[("R", &rows)], false);
            let mut pax_db = build_db_layout(sys, PageLayout::Pax, &[("R", &rows)], false);
            let spec = AggSpec::avg("a3");
            let want = nsm_db.run_grouped("R", "a2", pred, &spec).unwrap();
            let got = pax_db.run_grouped("R", "a2", pred, &spec).unwrap();
            prop_assert_eq!(want, got);
        }
    }
}
