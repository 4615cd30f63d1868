//! Ground-truth stall accounting (Table 3.1).
//!
//! The paper decomposes query execution time as
//! `T_Q = T_C + T_M + T_B + T_R − T_OVL` with the memory component split into
//! `T_L1D, T_L1I, T_L2D, T_L2I, T_DTLB, T_ITLB` and the resource component
//! into `T_FU, T_DEP, T_MISC/T_ILD`. On real hardware several of those are
//! only measurable as `count × penalty` upper bounds (Table 4.2) and `T_OVL`
//! is not measurable at all. The simulator charges every cycle to exactly one
//! component as it is spent, so the ledger *is* the ground truth; the
//! `wdtg-emon` crate reconstructs the paper-style estimates from counters and
//! can be validated against this ledger.
//!
//! # Charging rules
//!
//! * **Exactly-once**: every simulated cycle lands in exactly one
//!   [`Component`] under exactly one [`Mode`]; `grand_total()` equals the
//!   CPU cycle counter by construction (an invariant test enforces it), so
//!   there is no unattributed or double-counted time and `T_OVL` — the
//!   overlap term the real hardware cannot expose — is folded into the
//!   per-component charges as they happen.
//! * **Hierarchy**: a data load that misses L1D but hits L2 charges `Tl1d`;
//!   missing L2 too charges `Tl2d` (main-memory latency) instead — the
//!   levels are exclusive in the ledger even though the hardware overlaps
//!   them. Instruction fetches charge `Tl1i`/`Tl2i` the same way; TLB walks
//!   charge `Tdtlb`/`Titlb`. This is why the NSM-vs-PAX page-layout
//!   comparison reads `Tl2d` directly: fewer distinct data lines touched ⇒
//!   fewer L2 data misses ⇒ fewer cycles charged here, with no modelling
//!   shortcut in between.
//! * **Overlap discounts**: stall charges are scaled by what the
//!   out-of-order window hides (e.g. overlappable [`crate::MemDep::Demand`]
//!   loads charge less than serialized [`crate::MemDep::Chase`] chains);
//!   the discounted remainder is what lands in the ledger, so components
//!   sum to wall-clock cycles, not to the count×penalty upper bounds.
//! * **Fractional cycles**: charges are `f64` because bulk-modelled
//!   branches and partial-overlap penalties accumulate sub-cycle amounts;
//!   only totals are meaningful.

use crate::events::Mode;

/// One execution-time component from Table 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Useful computation time.
    Tc,
    /// L1 data-cache miss stalls (hit in L2).
    Tl1d,
    /// L1 instruction-cache miss stalls (hit in L2).
    Tl1i,
    /// L2 data miss stalls (main-memory latency).
    Tl2d,
    /// L2 instruction miss stalls.
    Tl2i,
    /// Data TLB miss stalls (not measurable on the real Pentium II).
    Tdtlb,
    /// Instruction TLB miss stalls.
    Titlb,
    /// Branch misprediction penalty.
    Tb,
    /// Functional-unit contention stalls.
    Tfu,
    /// Dependency stalls (insufficient instruction-level parallelism).
    Tdep,
    /// Instruction-length decoder stalls (the platform-specific T_MISC of
    /// Table 3.1, instantiated as T_ILD in Table 4.2).
    Tild,
}

impl Component {
    /// All components in display order (Table 3.1 order).
    pub const ALL: [Component; 11] = [
        Component::Tc,
        Component::Tl1d,
        Component::Tl1i,
        Component::Tl2d,
        Component::Tl2i,
        Component::Tdtlb,
        Component::Titlb,
        Component::Tb,
        Component::Tfu,
        Component::Tdep,
        Component::Tild,
    ];

    /// The label used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Component::Tc => "TC",
            Component::Tl1d => "TL1D",
            Component::Tl1i => "TL1I",
            Component::Tl2d => "TL2D",
            Component::Tl2i => "TL2I",
            Component::Tdtlb => "TDTLB",
            Component::Titlb => "TITLB",
            Component::Tb => "TB",
            Component::Tfu => "TFU",
            Component::Tdep => "TDEP",
            Component::Tild => "TILD",
        }
    }

    /// Whether the component belongs to the memory-stall group `T_M`.
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            Component::Tl1d
                | Component::Tl1i
                | Component::Tl2d
                | Component::Tl2i
                | Component::Tdtlb
                | Component::Titlb
        )
    }

    /// Whether the component belongs to the resource-stall group `T_R`.
    pub fn is_resource(self) -> bool {
        matches!(self, Component::Tfu | Component::Tdep | Component::Tild)
    }
}

/// Per-mode, per-component charged cycles.
///
/// Cycles are kept as `f64` because bulk-modelled branches and fractional
/// penalties accumulate sub-cycle amounts; totals are exact sums of charges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallLedger {
    charged: [[f64; Component::ALL.len()]; 2],
}

impl StallLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `component` under `mode`.
    #[inline]
    pub fn charge(&mut self, mode: Mode, component: Component, cycles: f64) {
        debug_assert!(cycles >= 0.0, "negative charge for {component:?}");
        self.charged[mode as usize][component as usize] += cycles;
    }

    /// Adds `cycles` to `component` under `mode` `times` times over (see
    /// [`add_repeated`], whose precondition on `cycles` is the caller's).
    #[inline]
    pub(crate) fn charge_repeated(
        &mut self,
        mode: Mode,
        component: Component,
        cycles: f64,
        times: u64,
    ) {
        let slot = &mut self.charged[mode as usize][component as usize];
        *slot = add_repeated(*slot, cycles, times);
    }

    /// Cycles charged to `component` under `mode`.
    #[inline]
    pub fn get(&self, mode: Mode, component: Component) -> f64 {
        self.charged[mode as usize][component as usize]
    }

    /// Cycles charged to `component`, both modes.
    pub fn total(&self, component: Component) -> f64 {
        self.charged[0][component as usize] + self.charged[1][component as usize]
    }

    /// Total cycles charged under `mode` across all components.
    pub fn mode_total(&self, mode: Mode) -> f64 {
        self.charged[mode as usize].iter().sum()
    }

    /// Grand total cycles (this equals the CPU's cycle counter by
    /// construction; an invariant test enforces it).
    pub fn grand_total(&self) -> f64 {
        self.mode_total(Mode::User) + self.mode_total(Mode::Sup)
    }

    /// Memory-stall group total `T_M` for a mode.
    pub fn memory_total(&self, mode: Mode) -> f64 {
        Component::ALL
            .iter()
            .filter(|c| c.is_memory())
            .map(|c| self.get(mode, *c))
            .sum()
    }

    /// Resource-stall group total `T_R` for a mode.
    pub fn resource_total(&self, mode: Mode) -> f64 {
        Component::ALL
            .iter()
            .filter(|c| c.is_resource())
            .map(|c| self.get(mode, *c))
            .sum()
    }

    /// Zeroes all charges.
    pub fn reset(&mut self) {
        self.charged = [[0.0; Component::ALL.len()]; 2];
    }

    /// Adds every charge of `other` into `self` (multi-core merge: per-core
    /// stall cycles sum to the machine-wide total).
    pub fn absorb(&mut self, other: &StallLedger) {
        for m in 0..2 {
            for c in 0..Component::ALL.len() {
                self.charged[m][c] += other.charged[m][c];
            }
        }
    }

    /// Ledger delta `self - earlier`.
    pub fn delta(&self, earlier: &StallLedger) -> StallLedger {
        let mut out = StallLedger::new();
        for m in 0..2 {
            for c in 0..Component::ALL.len() {
                out.charged[m][c] = self.charged[m][c] - earlier.charged[m][c];
            }
        }
        out
    }
}

/// `acc` after `times` successive `+= amount`, for a whole `amount >= 1.0`
/// and a non-negative `acc` — computed as one `acc + amount * times` whenever
/// that is the same `f64`, by the additions themselves otherwise.
///
/// It is the same in two cases. If `acc` is whole and the sum stays below
/// 2^53, every partial sum is an integer a double holds exactly, so nothing
/// rounds on either route. If `acc` is at least the total added and the sum
/// stays below 2^50, the partial sums cross at most one binade boundary;
/// below it they are multiples of `ulp(acc)` inside `acc`'s binade and so
/// exact, the one sum that crosses it rounds to the coarser grid, and after
/// that every step adds a multiple of that grid's *double* spacing (a whole
/// number is one below 2^50) — which keeps later sums exact and, added to a
/// tie, does not change which neighbour is the even one. So the repeated
/// route rounds once, and to what the single addition rounds to.
/// Accumulators that meet neither (fractional and still small: supervisor
/// mode early in a run) take the loop.
#[inline]
pub(crate) fn add_repeated(acc: f64, amount: f64, times: u64) -> f64 {
    const TWO_POW_50: f64 = (1u64 << 50) as f64;
    const TWO_POW_53: f64 = (1u64 << 53) as f64;
    debug_assert!(amount.fract() == 0.0 && amount >= 1.0 && acc >= 0.0);
    let total = amount * times as f64;
    let sum = acc + total;
    let same = if acc.fract() == 0.0 {
        sum < TWO_POW_53
    } else {
        acc >= total && sum < TWO_POW_50
    };
    if same {
        sum
    } else {
        (0..times).fold(acc, |acc, _| acc + amount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_the_components() {
        let mem = Component::ALL.iter().filter(|c| c.is_memory()).count();
        let res = Component::ALL.iter().filter(|c| c.is_resource()).count();
        assert_eq!(mem, 6, "T_M has six sub-components in Table 3.1");
        assert_eq!(res, 3);
        assert!(!Component::Tc.is_memory() && !Component::Tc.is_resource());
        assert!(!Component::Tb.is_memory() && !Component::Tb.is_resource());
        assert_eq!(mem + res + 2, Component::ALL.len());
    }

    #[test]
    fn charge_and_group_totals() {
        let mut l = StallLedger::new();
        l.charge(Mode::User, Component::Tc, 100.0);
        l.charge(Mode::User, Component::Tl2d, 40.0);
        l.charge(Mode::User, Component::Tl1i, 10.0);
        l.charge(Mode::User, Component::Tdep, 5.0);
        l.charge(Mode::Sup, Component::Tc, 7.0);
        assert_eq!(l.memory_total(Mode::User), 50.0);
        assert_eq!(l.resource_total(Mode::User), 5.0);
        assert_eq!(l.mode_total(Mode::User), 155.0);
        assert_eq!(l.grand_total(), 162.0);
        assert_eq!(l.total(Component::Tc), 107.0);
    }

    #[test]
    fn delta_is_componentwise() {
        let mut l = StallLedger::new();
        l.charge(Mode::User, Component::Tb, 17.0);
        let snap = l.clone();
        l.charge(Mode::User, Component::Tb, 34.0);
        let d = l.delta(&snap);
        assert_eq!(d.get(Mode::User, Component::Tb), 34.0);
    }
}
