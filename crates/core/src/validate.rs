//! Machine-checkable versions of the paper's §5 claims.
//!
//! Each claim is evaluated against measured data and reported as pass/fail
//! with the observed values. The integration suite asserts these, making the
//! reproduction's fidelity a regression-tested property rather than a
//! one-off observation. Thresholds include tolerance around the paper's
//! quoted numbers (our substrate is a model, not the authors' testbed — the
//! *shape* is the contract).

use wdtg_memdb::SystemId;
use wdtg_workloads::MicroQuery;

use crate::dss::DssComparison;
use crate::figures::{MicrobenchGrid, RecordSizeSweep, SelectivitySweep};
use crate::oltp::TpccMeasurement;

/// One validated claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier (e.g. "5.1-stalls-half").
    pub id: &'static str,
    /// What the paper says.
    pub description: &'static str,
    /// Whether the measurement satisfies it.
    pub pass: bool,
    /// Observed values.
    pub detail: String,
}

impl Claim {
    /// A claim `id` stating `description`, evaluated to `pass` on the
    /// observed values in `detail`.
    pub fn new(id: &'static str, description: &'static str, pass: bool, detail: String) -> Claim {
        Claim {
            id,
            description,
            pass,
            detail,
        }
    }
}

/// Validates the §5.1–§5.4 claims against the microbenchmark grid.
pub fn validate_grid(grid: &MicrobenchGrid) -> Vec<Claim> {
    let mut claims = Vec::new();
    let cells = &grid.cells;

    // §5.1: "almost half of the execution time is spent on stalls".
    let avg_stall =
        cells.iter().map(|c| c.truth.stall_fraction()).sum::<f64>() / cells.len() as f64;
    claims.push(Claim::new(
        "5.1-stalls-half",
        "on average, at least ~half of execution time is stalls",
        (0.40..=0.75).contains(&avg_stall),
        format!("average stall fraction {:.1}%", avg_stall * 100.0),
    ));

    // §5.1/5.2: "90% of the memory stalls are due to L2 data misses and L1
    // instruction misses" (tolerance: ≥75% in every cell).
    let worst_mem = cells
        .iter()
        .map(|c| {
            let tm = c.truth.tm().max(1e-9);
            (c.truth.tl1i + c.truth.tl2d) / tm
        })
        .fold(f64::INFINITY, f64::min);
    claims.push(Claim::new(
        "5.2-l1i-l2d-dominate",
        "L1I + L2D dominate memory stalls (~90%) in all cells",
        worst_mem >= 0.70,
        format!(
            "minimum (T_L1I+T_L2D)/T_M across cells: {:.1}%",
            worst_mem * 100.0
        ),
    ));

    // §5.2: "L1 D-cache stall time is insignificant".
    let worst_l1d = cells
        .iter()
        .map(|c| c.truth.tl1d / c.truth.tm().max(1e-9))
        .fold(0.0f64, f64::max);
    claims.push(Claim::new(
        "5.2-l1d-insignificant",
        "L1 D-cache stalls are insignificant",
        worst_l1d <= 0.20,
        format!("max T_L1D/T_M: {:.1}%", worst_l1d * 100.0),
    ));

    // §5.2: "T_L2I and T_ITLB … also insignificant in all the experiments".
    let worst_l2i = cells
        .iter()
        .map(|c| (c.truth.tl2i + c.truth.titlb) / c.truth.tm().max(1e-9))
        .fold(0.0f64, f64::max);
    claims.push(Claim::new(
        "5.2-l2i-itlb-insignificant",
        "L2 instruction + ITLB stalls are insignificant",
        worst_l2i <= 0.20,
        format!("max (T_L2I+T_ITLB)/T_M: {:.1}%", worst_l2i * 100.0),
    ));

    // §5.2: "the L1 D-cache miss rate … usually is around 2%, and never
    // exceeds 4%".
    let worst_l1d_rate = cells
        .iter()
        .map(|c| c.rates.l1d_miss)
        .fold(0.0f64, f64::max);
    claims.push(Claim::new(
        "5.2-l1d-miss-rate",
        "L1D miss rate around 2%, never far above 4%",
        worst_l1d_rate <= 0.08,
        format!("max L1D miss rate: {:.1}%", worst_l1d_rate * 100.0),
    ));

    // §5.2.1: L2 data miss rates 40–90% for three systems; System B ≈2% on
    // the sequential selection.
    let srs = MicroQuery::SequentialRangeSelection;
    if let (Some(b), Some(c), Some(d)) = (
        grid.get(srs, SystemId::B),
        grid.get(srs, SystemId::C),
        grid.get(srs, SystemId::D),
    ) {
        claims.push(Claim::new(
            "5.2.1-system-b-l2",
            "System B's L2 data miss rate is ~2% on SRS; C/D in the 40-90% band",
            b.rates.l2d_miss <= 0.10 && c.rates.l2d_miss >= 0.30 && d.rates.l2d_miss >= 0.30,
            format!(
                "L2D miss rates on SRS: B {:.1}%, C {:.1}%, D {:.1}%",
                b.rates.l2d_miss * 100.0,
                c.rates.l2d_miss * 100.0,
                d.rates.l2d_miss * 100.0
            ),
        ));
    }

    // §5.3: "Branch instructions account for 20% of the total instructions
    // retired in all of the experiments".
    let (min_bf, max_bf) = cells.iter().fold((1.0f64, 0.0f64), |(lo, hi), c| {
        (lo.min(c.rates.branch_frac), hi.max(c.rates.branch_frac))
    });
    claims.push(Claim::new(
        "5.3-branch-20pct",
        "branches are ~20% of instructions retired",
        min_bf >= 0.10 && max_bf <= 0.30,
        format!(
            "branch fraction range: {:.1}%..{:.1}%",
            min_bf * 100.0,
            max_bf * 100.0
        ),
    ));

    // §5.3: "the BTB misses 50% of the time on the average".
    let avg_btb = cells.iter().map(|c| c.rates.btb_miss).sum::<f64>() / cells.len() as f64;
    claims.push(Claim::new(
        "5.3-btb-50pct",
        "BTB miss rate is ~50% on average",
        (0.30..=0.70).contains(&avg_btb),
        format!("average BTB miss rate: {:.1}%", avg_btb * 100.0),
    ));

    // §5.4: "Memory references account for at least half of the
    // instructions retired".
    let min_mem = cells
        .iter()
        .map(|c| c.rates.mem_ref_frac)
        .fold(f64::INFINITY, f64::min);
    claims.push(Claim::new(
        "5.4-mem-refs-half",
        "data references are at least ~half of instructions",
        min_mem >= 0.40,
        format!("minimum memory-reference fraction: {:.1}%", min_mem * 100.0),
    ));

    // §5.1: "In systems B, C, and D, branch misprediction stalls account for
    // 10-20% of the execution time, and the resource stall time contribution
    // ranges from 15-30%."
    let mut bcd_ok = true;
    let mut bcd_detail = String::new();
    for sys in [SystemId::B, SystemId::C, SystemId::D] {
        if let Some(cell) = grid.get(srs, sys) {
            let f = cell.truth.four_way();
            bcd_detail.push_str(&format!(
                "{}: T_B {:.1}% T_R {:.1}%; ",
                sys.letter(),
                f.branch * 100.0,
                f.resource * 100.0
            ));
            if !(0.04..=0.30).contains(&f.branch) || !(0.08..=0.40).contains(&f.resource) {
                bcd_ok = false;
            }
        }
    }
    claims.push(Claim::new(
        "5.1-bcd-tb-tr",
        "B/C/D: branch stalls ~10-20%, resource stalls ~15-30% of time",
        bcd_ok,
        bcd_detail,
    ));

    // §5.1: "System A exhibits the smallest T_M and T_B of all the DBMSs in
    // most queries; however, it has the highest percentage of resource
    // stalls (20-40%)".
    if let Some(a) = grid.get(srs, SystemId::A) {
        let fa = a.truth.four_way();
        let others_max_tr = [SystemId::B, SystemId::C, SystemId::D]
            .iter()
            .filter_map(|s| grid.get(srs, *s))
            .map(|c| c.truth.four_way().resource)
            .fold(0.0f64, f64::max);
        let others_min_tm = [SystemId::B, SystemId::C, SystemId::D]
            .iter()
            .filter_map(|s| grid.get(srs, *s))
            .map(|c| c.truth.four_way().memory)
            .fold(f64::INFINITY, f64::min);
        claims.push(Claim::new(
            "5.1-system-a-resource",
            "System A: smallest T_M/T_B but highest resource stalls (20-40%)",
            fa.resource > others_max_tr
                && fa.memory <= others_min_tm + 0.04
                && (0.15..=0.45).contains(&fa.resource),
            format!(
                "A: T_M {:.1}% T_B {:.1}% T_R {:.1}% (others' max T_R {:.1}%)",
                fa.memory * 100.0,
                fa.branch * 100.0,
                fa.resource * 100.0,
                others_max_tr * 100.0
            ),
        ));
    }

    // §5.4: "Except for System A when executing range selection queries,
    // dependency stalls are the most important resource stalls."
    let mut dep_ok = true;
    let mut dep_detail = String::new();
    for cell in cells {
        let a_range = cell.system == SystemId::A && cell.query != MicroQuery::SequentialJoin;
        let (dominant, other) = if a_range {
            (cell.truth.tfu, cell.truth.tdep)
        } else {
            (cell.truth.tdep, cell.truth.tfu)
        };
        if dominant < other {
            dep_ok = false;
            dep_detail.push_str(&format!(
                "{}-{}: tdep {:.0} tfu {:.0}; ",
                cell.system.letter(),
                cell.query.label(),
                cell.truth.tdep,
                cell.truth.tfu
            ));
        }
    }
    claims.push(Claim::new(
        "5.4-dep-dominates",
        "T_DEP dominates T_FU everywhere except System A on range selections",
        dep_ok,
        if dep_detail.is_empty() {
            "holds in all cells".into()
        } else {
            dep_detail
        },
    ));

    // §5.1: System B's memory-stall share roughly doubles from SRS (~20%) to
    // IRS (~50%).
    if let (Some(b_srs), Some(b_irs)) = (
        grid.get(srs, SystemId::B),
        grid.get(MicroQuery::IndexedRangeSelection, SystemId::B),
    ) {
        let (m_srs, m_irs) = (b_srs.truth.four_way().memory, b_irs.truth.four_way().memory);
        claims.push(Claim::new(
            "5.1-b-irs-memory",
            "System B: memory share rises sharply from SRS (~20%) to IRS (~50%)",
            m_irs > m_srs * 1.8 && m_irs > 0.10,
            format!(
                "B memory share: SRS {:.1}%, IRS {:.1}%",
                m_srs * 100.0,
                m_irs * 100.0
            ),
        ));
    }

    // Fig 5.3: System A retires the fewest instructions per record on SRS.
    let a_instr = grid
        .get(srs, SystemId::A)
        .map(|c| c.instructions_per_record())
        .unwrap_or(0.0);
    let others_min = [SystemId::B, SystemId::C, SystemId::D]
        .iter()
        .filter_map(|s| grid.get(srs, *s))
        .map(|c| c.instructions_per_record())
        .fold(f64::INFINITY, f64::min);
    claims.push(Claim::new(
        "5.3-a-fewest-instructions",
        "System A retires the fewest instructions per record on SRS",
        a_instr > 0.0 && a_instr < others_min,
        format!("A: {a_instr:.0} vs others' min {others_min:.0}"),
    ));

    // §5: user-mode execution dominates (>85%) with the NT interrupt model.
    let min_user = cells
        .iter()
        .map(|c| c.rates.user_mode_frac)
        .fold(f64::INFINITY, f64::min);
    claims.push(Claim::new(
        "4.3-user-mode",
        "experiments execute >85% in user mode",
        min_user >= 0.85,
        format!("minimum user-mode share: {:.1}%", min_user * 100.0),
    ));

    claims
}

/// Validates the Fig 5.4 (right) trend: T_B and T_L1I grow with selectivity.
pub fn validate_selectivity(sweep: &SelectivitySweep) -> Vec<Claim> {
    let first = sweep.points.first();
    let last = sweep.points.last();
    let (Some(f), Some(l)) = (first, last) else {
        return vec![Claim::new(
            "5.4-selectivity",
            "sweep ran",
            false,
            "no points".into(),
        )];
    };
    vec![
        Claim::new(
            "5.4-tb-grows",
            "T_B share increases with selectivity (System D, SRS)",
            l.1 > f.1,
            format!("T_B share {:.1}% -> {:.1}%", f.1 * 100.0, l.1 * 100.0),
        ),
        Claim::new(
            "5.4-tl1i-follows",
            "T_L1I follows T_B's growth with selectivity",
            l.2 > f.2,
            format!("T_L1I share {:.1}% -> {:.1}%", f.2 * 100.0, l.2 * 100.0),
        ),
    ]
}

/// Validates the §5.2 record-size trends.
pub fn validate_record_size(sweep: &RecordSizeSweep) -> Vec<Claim> {
    let tl2d_monotone = sweep.points.windows(2).all(|w| w[1].1 >= w[0].1 * 0.95);
    let l1i_grows = sweep
        .points
        .first()
        .zip(sweep.points.last())
        .map(|(f, l)| l.2 > f.2)
        .unwrap_or(false);
    let growth = sweep.time_growth_factor();
    vec![
        Claim::new(
            "5.2.1-l2d-record-size",
            "T_L2D per record increases with record size",
            tl2d_monotone,
            format!(
                "T_L2D/record: {:?}",
                sweep
                    .points
                    .iter()
                    .map(|p| (p.0, p.1.round()))
                    .collect::<Vec<_>>()
            ),
        ),
        Claim::new(
            "5.2.2-l1i-record-size",
            "L1I misses per record increase with record size",
            l1i_grows,
            format!(
                "L1I misses/record at 20B {:.3} vs 200B {:.3}",
                sweep.points.first().map(|p| p.2).unwrap_or(0.0),
                sweep.points.last().map(|p| p.2).unwrap_or(0.0)
            ),
        ),
        Claim::new(
            "5.2.2-time-growth",
            "execution time per record grows 2.5-4x from 20B to 200B records",
            (1.8..=5.0).contains(&growth),
            format!("growth factor: {growth:.2}x"),
        ),
    ]
}

/// Validates the §5.5 DSS similarity claim.
pub fn validate_dss(cmp: &DssComparison) -> Vec<Claim> {
    let diff = cmp.max_share_difference();
    let mut claims = vec![Claim::new(
        "5.5-tpcd-similarity",
        "TPC-D breakdown is substantially similar to the simple query's",
        diff <= 0.20,
        format!("max component-share difference: {:.1} pp", diff * 100.0),
    )];
    // §5.5 / Fig 5.7: L1I stalls dominate the TPC-D cache stalls. Checked
    // in aggregate: our System A is leaner than any real engine and stays
    // L2D-bound on DSS (documented deviation in EXPERIMENTS.md).
    let l1i_shares: Vec<f64> = cmp
        .tpcd
        .iter()
        .map(|m| {
            let b = &m.truth;
            let cache = (b.tl1d + b.tl1i + b.tl2d + b.tl2i).max(1e-9);
            b.tl1i / cache
        })
        .collect();
    let l1i_dominant = l1i_shares.iter().sum::<f64>() / l1i_shares.len().max(1) as f64 >= 0.35;
    claims.push(Claim::new(
        "5.5-tpcd-l1i",
        "first-level instruction stalls dominate the TPC-D workload",
        l1i_dominant,
        cmp.tpcd
            .iter()
            .map(|m| {
                let b = &m.truth;
                let cache = (b.tl1d + b.tl1i + b.tl2d + b.tl2i).max(1e-9);
                format!(
                    "{}: L1I {:.0}% of cache stalls",
                    m.system.letter(),
                    b.tl1i / cache * 100.0
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    ));
    // Fig 5.6: CPI between 1.2 and 1.8 for both workloads (tolerance).
    let cpis: Vec<f64> = cmp
        .srs
        .iter()
        .map(|(_, b)| b.cpi())
        .chain(cmp.tpcd.iter().map(|m| m.truth.cpi()))
        .collect();
    let cpi_ok = cpis.iter().all(|c| (0.9..=2.2).contains(c));
    claims.push(Claim::new(
        "5.5-dss-cpi",
        "CPI is in the 1.2-1.8 band for SRS and TPC-D",
        cpi_ok,
        format!(
            "CPIs: {:?}",
            cpis.iter()
                .map(|c| (c * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
    ));
    claims
}

/// Validates the §5.5 TPC-C contrast.
pub fn validate_tpcc(ms: &[TpccMeasurement]) -> Vec<Claim> {
    let cpi_ok = ms.iter().all(|m| (2.0..=5.0).contains(&m.truth.cpi()));
    let mem_ok = ms.iter().all(|m| {
        let f = m.truth.four_way().memory;
        (0.50..=0.85).contains(&f)
    });
    let l2_ok = ms.iter().all(|m| m.l2_share_of_memory() >= 0.40);
    vec![
        Claim::new(
            "5.5-tpcc-cpi",
            "TPC-C CPI is in the 2.5-4.5 band",
            cpi_ok,
            format!(
                "CPIs: {:?}",
                ms.iter()
                    .map(|m| (m.truth.cpi() * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            ),
        ),
        Claim::new(
            "5.5-tpcc-memory",
            "TPC-C spends 60-80% of time in memory stalls",
            mem_ok,
            format!(
                "memory shares: {:?}",
                ms.iter()
                    .map(|m| format!("{:.0}%", m.truth.four_way().memory * 100.0))
                    .collect::<Vec<_>>()
            ),
        ),
        Claim::new(
            "5.5-tpcc-l2",
            "TPC-C memory stalls are dominated by L2 data+instruction stalls",
            l2_ok,
            format!(
                "L2 shares of T_M: {:?}",
                ms.iter()
                    .map(|m| format!("{:.0}%", m.l2_share_of_memory() * 100.0))
                    .collect::<Vec<_>>()
            ),
        ),
    ]
}

/// Renders claims as a report table.
pub fn render_claims(claims: &[Claim]) -> String {
    let mut t = crate::tables::TextTable::new(["claim", "pass", "observed"]);
    for c in claims {
        t.row([
            c.id.to_string(),
            if c.pass { "PASS" } else { "FAIL" }.into(),
            c.detail.clone(),
        ]);
    }
    let passed = claims.iter().filter(|c| c.pass).count();
    format!(
        "{}\n{} / {} claims hold\n",
        t.render(),
        passed,
        claims.len()
    )
}
