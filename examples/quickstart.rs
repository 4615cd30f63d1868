//! Quickstart: ask in SQL, see where the time goes.
//!
//! Builds System C (an interpreted, full-materialization engine) on a
//! simulated Pentium II Xeon, loads the §3.3 microbenchmark relation, and
//! opens a [`wdtg::memdb::Session`] — the unified front door. `EXPLAIN`
//! shows the physical plan the session picked (every knob candidate costed
//! on a sampled pilot run of the cycle simulator), then the measured run's
//! execution-time breakdown answers the paper's question.
//!
//! Run with: `cargo run --release --example quickstart`

use wdtg::core::methodology::Rates;
use wdtg::core::tables::pct;
use wdtg::core::TimeBreakdown;
use wdtg::memdb::prelude::*;
use wdtg::memdb::{EngineProfile, SystemId};
use wdtg::sim::{CpuConfig, Mode};
use wdtg::workloads::{micro, MicroQuery, Scale};

fn main() {
    let scale = Scale::tiny();
    let mut db = Database::new(
        EngineProfile::system(SystemId::C),
        CpuConfig::pentium_ii_xeon(),
    );
    db.ctx.instrument = false;
    micro::prepare(
        &mut db,
        scale,
        MicroQuery::SequentialRangeSelection,
        PageLayout::Nsm,
    )
    .unwrap();
    db.ctx.instrument = true;

    // select avg(a3) from R where a2 > Lo and a2 < Hi  -- 10% selectivity
    let sql = micro::query_sql(scale, MicroQuery::SequentialRangeSelection, 0.10);
    let mut sess = Session::open(db);

    // The planner shows its work: each candidate is a knob combination
    // costed by simulating a sampled pilot; the star marks the winner.
    println!("{}", sess.explain(&sql).unwrap());

    // Warm run first (the paper measures warm caches, §4.3), then measure.
    sess.sql(&sql).unwrap();
    let before = sess.db().unwrap().cpu().snapshot();
    let r = sess.sql(&sql).unwrap();
    let delta = sess.db().unwrap().cpu().snapshot().delta(&before);

    let b = TimeBreakdown::from_snapshot(&delta, Mode::User);
    let f = b.four_way();
    println!(
        "System C, 10% sequential range selection ({} rows selected)\n",
        r.rows
    );
    println!("cycles per query:        {:>12.0}", b.cycles);
    println!("instructions retired:    {:>12}", b.inst_retired);
    println!("clocks per instruction:  {:>12.2}", b.cpi());
    println!();
    println!("where does time go?");
    println!(
        "  computation      {:>7}   {}",
        pct(f.computation),
        bar(f.computation)
    );
    println!(
        "  memory stalls    {:>7}   {}",
        pct(f.memory),
        bar(f.memory)
    );
    println!(
        "    L1D {:>6}  L1I {:>6}  L2D {:>6}  L2I {:>6}",
        pct(b.tl1d / b.cycles),
        pct(b.tl1i / b.cycles),
        pct(b.tl2d / b.cycles),
        pct(b.tl2i / b.cycles)
    );
    println!(
        "  branch mispred.  {:>7}   {}",
        pct(f.branch),
        bar(f.branch)
    );
    println!(
        "  resource stalls  {:>7}   {}",
        pct(f.resource),
        bar(f.resource)
    );
    println!();
    let rates = Rates::from_delta(&delta);
    println!(
        "hardware rates: L1D miss {:.1}%, L2 data miss {:.1}%, mispredict {:.1}%, BTB miss {:.1}%",
        rates.l1d_miss * 100.0,
        rates.l2d_miss * 100.0,
        rates.br_mispredict * 100.0,
        rates.btb_miss * 100.0
    );
}

fn bar(f: f64) -> String {
    wdtg::core::tables::bar(f, 40)
}
