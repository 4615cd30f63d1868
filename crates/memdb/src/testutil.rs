//! Shared test support: the one place the equivalence suites, the
//! workspace-level paper-claims tests and the examples get their quiet
//! processor configs and pre-loaded databases from.
//!
//! Before this module existed the same helpers were copy-pasted between
//! `crates/memdb/tests/common/mod.rs` and the workspace `tests/` suite;
//! they live in the library (like `JoinHashTable::get_all`, the testing
//! oracle) so every crate in the workspace shares one definition. Both
//! comparison suites measure two configurations of the same engine, so they
//! must build databases under *identical* conditions — quiet interrupts,
//! uninstrumented loading, one warm-up run before the measured run — which
//! is exactly what these helpers enforce.

use crate::db::Database;
use crate::heap::PageLayout;
use crate::profiles::{EngineProfile, SystemId};
use crate::query::{Query, QueryResult};
use wdtg_sim::{CpuConfig, InterruptCfg, Snapshot};

/// The Xeon config with the interrupt model off, so miss counts are exact.
pub fn quiet() -> CpuConfig {
    CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled())
}

/// Builds a database in the given page layout and loads 20-byte-record
/// tables uninstrumented, optionally indexing `R.a2`.
pub fn build_db_layout(
    sys: SystemId,
    layout: PageLayout,
    tables: &[(&str, &[Vec<i32>])],
    index_a2: bool,
) -> Database {
    let indexes: &[(&str, &str)] = if index_a2 { &[("R", "a2")] } else { &[] };
    build_db_with_indexes(sys, layout, tables, indexes)
}

/// [`build_db_layout`] with an arbitrary set of `(table, column)` secondary
/// indexes (the join suites index the inner relation's key for the
/// index-nested-loop strategy).
pub fn build_db_with_indexes(
    sys: SystemId,
    layout: PageLayout,
    tables: &[(&str, &[Vec<i32>])],
    indexes: &[(&str, &str)],
) -> Database {
    let mut db = Database::new(EngineProfile::system(sys), quiet());
    db.ctx.instrument = false;
    for (name, rows) in tables {
        db.create_table_with_layout(name, crate::schema::Schema::paper_relation(20), layout)
            .unwrap();
        db.load_rows(name, rows.iter().cloned()).unwrap();
    }
    for (table, col) in indexes {
        db.create_index(table, col).unwrap();
    }
    db.ctx.instrument = true;
    db
}

/// Runs `q` once to warm the machine, then measures a second execution.
pub fn measure(db: &mut Database, q: &Query) -> (QueryResult, Snapshot) {
    db.run(q).expect("warm-up run");
    let before = db.cpu().snapshot();
    let res = db.run(q).expect("measured run");
    (res, db.cpu().snapshot().delta(&before))
}

/// 5-column (20-byte) rows with `a1` sequential, `a2`/`a3` pseudo-random.
pub fn rows_for(n: usize, seed: u64) -> Vec<Vec<i32>> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(seed | 1).wrapping_mul(0x9e37_79b9);
            vec![
                i as i32,
                (x % 512) as i32,
                (x % 1009) as i32,
                (x % 7) as i32,
                0,
            ]
        })
        .collect()
}
