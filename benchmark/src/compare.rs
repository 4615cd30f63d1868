//! `compare A.json B.json`: B against baseline A, one row per (metric,
//! workload). Host metrics move within their bound (`same`), past it
//! (`better` / `worse`), or past it while either run's own spread is wider
//! than the bound (`unresolved`). Simulated metrics must be bit-equal.

use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Clock, Spec, END_TO_END, PER_LAYER, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// One metric's reading in one results file.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

pub fn judge(spec: &Spec, a: Reading, b: Reading) -> Verdict {
    if spec.clock == Clock::Sim {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    // Positive = B is worse than A, as a share of A.
    let change = (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE);
    let worse_by = if spec.higher_is_better {
        -change
    } else {
        change
    };
    if worse_by.abs() <= spec.bound {
        Verdict::Same
    } else if a.spread.max(b.spread) > spec.bound {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn reading(doc: &Json, workload: &str, section: &str, name: &str) -> Option<Reading> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?;
    Some(Reading {
        value: m.get("value").and_then(Json::as_f64)?,
        spread: m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the table; `false` if any row is `worse` or a file is unusable.
pub fn run(a_path: &Path, b_path: &Path) -> bool {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return false;
        }
    };
    if a.get("seed") != b.get("seed") {
        eprintln!("compare: the two files ran different seeds; simulated metrics only repeat for one seed");
        return false;
    }
    let mut worse = 0;
    println!(
        "{:<12} {:<32} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for w in WORKLOADS {
        // Every end-to-end metric, then the simulated-clock layer metrics;
        // host-clock layer metrics have no bound and are not judged.
        let end_to_end = END_TO_END.iter().map(|s| ("end_to_end", s));
        let layers = PER_LAYER
            .iter()
            .filter(|s| s.clock == Clock::Sim)
            .map(|s| ("per_layer", s));
        for (section, spec) in end_to_end.chain(layers) {
            let (Some(ra), Some(rb)) = (
                reading(&a, w, section, spec.name),
                reading(&b, w, section, spec.name),
            ) else {
                println!("{w:<12} {:<32} missing from a file  worse", spec.name);
                worse += 1;
                continue;
            };
            let verdict = judge(spec, ra, rb);
            worse += (verdict == Verdict::Worse) as u32;
            println!(
                "{w:<12} {:<32} {:>16.6} {:>16.6} {:>+8.2}%  {}",
                spec.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Better => "better",
                    Verdict::Worse if spec.clock == Clock::Sim => "worse (must be bit-equal)",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let claims = |d: &Json| {
        d.get("workloads")
            .and_then(|w| w.get("paper_grid"))
            .and_then(|g| g.get("info"))
            .and_then(|i| i.get("paper_claims_held"))
            .and_then(Json::as_f64)
    };
    if claims(&a) != claims(&b) {
        println!(
            "paper_grid   paper_claims_held changed: {:?} -> {:?}  worse",
            claims(&a),
            claims(&b)
        );
        worse += 1;
    }
    println!("{worse} worse");
    worse == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn host_metrics_move_within_their_bound() {
        let ops = &END_TO_END[1];
        assert_eq!((ops.name, ops.bound), ("host_ops_per_s", 0.25));
        assert_eq!(judge(ops, r(100.0, 0.01), r(80.0, 0.01)), Verdict::Same);
        assert_eq!(judge(ops, r(100.0, 0.01), r(70.0, 0.01)), Verdict::Worse);
        assert_eq!(judge(ops, r(100.0, 0.01), r(130.0, 0.01)), Verdict::Better);
        assert_eq!(
            judge(ops, r(100.0, 0.3), r(70.0, 0.01)),
            Verdict::Unresolved
        );
        let p50 = &END_TO_END[2];
        assert_eq!(judge(p50, r(10.0, 0.0), r(13.0, 0.0)), Verdict::Worse);
    }

    #[test]
    fn simulated_metrics_must_be_bit_equal() {
        let cycles = &END_TO_END[4];
        assert_eq!(cycles.clock, Clock::Sim);
        assert_eq!(judge(cycles, r(1e8, 0.0), r(1e8, 0.0)), Verdict::Same);
        assert_eq!(
            judge(cycles, r(1e8, 0.0), r(1e8 + 1e-6, 0.0)),
            Verdict::Worse
        );
    }
}
