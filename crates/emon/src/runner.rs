//! The two-counter measurement loop.
//!
//! §4.3: the Pentium II has exactly **two** programmable counters, so a full
//! breakdown (74 event types × 2 modes) cannot be captured in one run. Emon
//! therefore re-executes the measurement unit once per counter *pair* and
//! the experimenter relies on run-to-run stability (warm caches, repeated
//! units, < 5% standard deviation). This module reproduces that restriction
//! faithfully: each pair of event specs is observed in a separate execution
//! of the unit, reading nothing else.

use std::collections::BTreeMap;

use wdtg_sim::Snapshot;

use crate::spec::EventSpec;

/// Something emon can measure: it must expose counter snapshots and run one
/// measurement unit (e.g. 10 queries on a warmed database, per §4.3).
pub trait Target {
    /// Captures the counter file + ledger + cycles.
    fn snapshot(&self) -> Snapshot;
    /// Executes one measurement unit.
    fn run_unit(&mut self);
}

/// Readings collected by [`measure`]: one value per spec, plus the per-run
/// unit cycle counts used for stability checking.
#[derive(Debug, Clone, Default)]
pub struct Readings {
    values: BTreeMap<String, u64>,
    /// Total cycles of each pair-run's unit (for the <5% stddev check).
    pub run_cycles: Vec<f64>,
}

impl Readings {
    /// Value observed for `spec`, if it was scheduled.
    pub fn get(&self, spec: &EventSpec) -> Option<u64> {
        self.values.get(&spec.to_string()).copied()
    }

    /// Number of distinct spec readings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no readings were collected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Relative standard deviation of unit cycle counts across the pair
    /// runs. The paper repeats experiments until this is below 5%.
    pub fn cycles_rel_stddev(&self) -> f64 {
        let n = self.run_cycles.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.run_cycles.iter().sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .run_cycles
            .iter()
            .map(|c| (c - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    fn insert(&mut self, spec: &EventSpec, value: u64) {
        self.values.insert(spec.to_string(), value);
    }
}

/// Groups specs into the pairs the two counters can hold.
pub fn plan(specs: &[EventSpec]) -> Vec<Vec<EventSpec>> {
    specs.chunks(2).map(|c| c.to_vec()).collect()
}

/// Measures all `specs` on `target`, two per unit execution.
///
/// Different specs are observed in *different* runs, exactly like the real
/// tool; deterministic targets make the multiplexing exact, warmed
/// non-deterministic ones approximate (checked via
/// [`Readings::cycles_rel_stddev`]).
pub fn measure(target: &mut dyn Target, specs: &[EventSpec]) -> Readings {
    let mut readings = Readings::default();
    for pair in plan(specs) {
        let before = target.snapshot();
        target.run_unit();
        let after = target.snapshot();
        let delta = after.counters.delta(&before.counters);
        for spec in &pair {
            readings.insert(spec, spec.read(&delta));
        }
        readings.run_cycles.push(after.cycles - before.cycles);
    }
    readings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModeSel;
    use wdtg_sim::{segment, CodeBlock, Cpu, CpuConfig, Event, InterruptCfg, MemDep};

    struct BlockTarget {
        cpu: Cpu,
        block: CodeBlock,
    }

    impl Target for BlockTarget {
        fn snapshot(&self) -> Snapshot {
            self.cpu.snapshot()
        }
        fn run_unit(&mut self) {
            for i in 0..50u64 {
                self.cpu.exec_block(&self.block);
                self.cpu.load(segment::HEAP + i * 64, 4, MemDep::Demand);
            }
        }
    }

    fn target() -> BlockTarget {
        BlockTarget {
            cpu: Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled())),
            block: CodeBlock::builder("w", 1200)
                .private(segment::PRIVATE, 1024)
                .at(segment::CODE),
        }
    }

    #[test]
    fn pairs_of_two_per_run() {
        let specs: Vec<EventSpec> = [
            "INST_RETIRED:USER",
            "UOPS_RETIRED:USER",
            "DATA_MEM_REFS:USER",
        ]
        .iter()
        .map(|s| EventSpec::parse(s).unwrap())
        .collect();
        let p = plan(&specs);
        assert_eq!(p.len(), 2, "3 events need 2 runs of the 2-counter tool");
        assert_eq!(p[0].len(), 2);
        assert_eq!(p[1].len(), 1);
    }

    #[test]
    fn deterministic_target_yields_stable_multiplexing() {
        let mut t = target();
        // Warm up, as the methodology requires.
        t.run_unit();
        let specs: Vec<EventSpec> = [
            "INST_RETIRED:USER",
            "UOPS_RETIRED:USER",
            "DATA_MEM_REFS:USER",
            "BR_INST_RETIRED:USER",
            "CPU_CLK_UNHALTED:USER",
        ]
        .iter()
        .map(|s| EventSpec::parse(s).unwrap())
        .collect();
        let r = measure(&mut t, &specs);
        assert_eq!(r.len(), 5);
        // Steady state: per-unit instruction count is exactly stable.
        let instr = r.get(&specs[0]).unwrap();
        assert_eq!(instr, 50 * t.block.x86_instrs as u64);
        assert!(r.cycles_rel_stddev() < 0.05, "the paper's stability bar");
    }

    #[test]
    fn readings_expose_only_requested_events() {
        let mut t = target();
        let specs = vec![EventSpec::parse("INST_RETIRED:USER").unwrap()];
        let r = measure(&mut t, &specs);
        assert_eq!(r.len(), 1);
        assert!(r
            .get(&EventSpec::sim(Event::UopsRetired, ModeSel::User))
            .is_none());
    }
}
