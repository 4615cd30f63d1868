//! Branch target buffer and two-level adaptive branch prediction.
//!
//! §5.3: "The branch prediction algorithm uses a small buffer, called the
//! Branch Target Buffer (BTB) to store the targets of the last branches
//! executed. A hit in this buffer activates a branch prediction algorithm,
//! which decides which will be the target of the branch based on previous
//! history \[20\]. On a BTB miss, the prediction is static (backward branch is
//! taken, forward is not taken)."
//!
//! The dynamic predictor is a Yeh–Patt two-level adaptive scheme \[20\]:
//! per-branch local history kept in the BTB entry selects a 2-bit saturating
//! counter in a shared pattern history table.

use crate::config::BtbGeom;
use crate::modulo;

/// Result of executing one branch through the prediction hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch's entry was found in the BTB.
    pub btb_hit: bool,
    /// Whether the prediction (dynamic on BTB hit, static otherwise)
    /// disagreed with the actual direction.
    pub mispredicted: bool,
}

const INVALID: u64 = u64::MAX;

/// BTB + two-level adaptive predictor + static fallback.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    geom: BtbGeom,
    sets: u32,
    history_mask: u8,
    tags: Vec<u64>,
    lru: Vec<u8>,
    hist: Vec<u8>,
    pht: Vec<u8>, // 2-bit saturating counters
}

impl BranchUnit {
    /// Creates a cold branch unit.
    pub fn new(geom: BtbGeom) -> Self {
        let sets = geom.entries / geom.assoc;
        let n = geom.entries as usize;
        BranchUnit {
            geom,
            sets,
            history_mask: ((1u16 << geom.history_bits) - 1) as u8,
            tags: vec![INVALID; n],
            lru: (0..n).map(|i| (i as u32 % geom.assoc) as u8).collect(),
            hist: vec![0; n],
            // Weakly not-taken initial counters.
            pht: vec![1; geom.pattern_entries as usize],
        }
    }

    /// Forgets every branch, in place: the cold state [`BranchUnit::new`]
    /// builds (`Cpu::reset_cold`'s test compares the two).
    pub(crate) fn clear(&mut self) {
        let assoc = self.geom.assoc;
        self.tags.fill(INVALID);
        for (i, rank) in self.lru.iter_mut().enumerate() {
            *rank = (i as u32 % assoc) as u8;
        }
        self.hist.fill(0);
        self.pht.fill(1);
    }

    #[inline]
    fn set_of(&self, addr: u64) -> u32 {
        // Branch instructions are at least 2 bytes apart; drop the low bit.
        modulo(addr >> 1, self.sets as u64) as u32
    }

    #[inline]
    fn pht_index(&self, addr: u64, history: u8) -> usize {
        let h = ((addr >> 1) << self.geom.history_bits) | history as u64;
        modulo(h, self.geom.pattern_entries as u64) as usize
    }

    /// Finds `addr` in the BTB: the index of its set's way 0, and the way
    /// holding it, if any.
    #[inline]
    fn find(&self, addr: u64) -> (usize, Option<usize>) {
        let base = (self.set_of(addr) * self.geom.assoc) as usize;
        let set = &self.tags[base..base + self.geom.assoc as usize];
        (base, set.iter().position(|&tag| tag == addr))
    }

    fn touch(&mut self, base: usize, way: usize) {
        let old = self.lru[base + way];
        for w in 0..self.geom.assoc as usize {
            if self.lru[base + w] < old {
                self.lru[base + w] += 1;
            }
        }
        self.lru[base + way] = 0;
    }

    fn allocate(&mut self, base: usize, addr: u64, first_direction: bool) {
        let assoc = self.geom.assoc as usize;
        let mut victim = 0;
        let mut rank = 0;
        for w in 0..assoc {
            if self.tags[base + w] == INVALID {
                victim = w;
                break;
            }
            if self.lru[base + w] >= rank {
                victim = w;
                rank = self.lru[base + w];
            }
        }
        self.tags[base + victim] = addr;
        self.hist[base + victim] = if first_direction {
            self.history_mask
        } else {
            0
        };
        self.touch(base, victim);
    }

    /// Executes one branch: predicts, compares with `taken`, trains, and
    /// returns the outcome. `backward` selects the static prediction used on
    /// a BTB miss (backward ⇒ predicted taken).
    pub fn execute(&mut self, addr: u64, taken: bool, backward: bool) -> BranchOutcome {
        match self.find(addr) {
            (base, Some(way)) => {
                let idx = base + way;
                let history = self.hist[idx] & self.history_mask;
                let pi = self.pht_index(addr, history);
                let counter = self.pht[pi];
                let predicted_taken = counter >= 2;
                // Train the pattern table and the local history.
                self.pht[pi] = if taken {
                    (counter + 1).min(3)
                } else {
                    counter.saturating_sub(1)
                };
                self.hist[idx] = ((history << 1) | taken as u8) & self.history_mask;
                self.touch(base, way);
                BranchOutcome {
                    btb_hit: true,
                    mispredicted: predicted_taken != taken,
                }
            }
            (base, None) => {
                let predicted_taken = backward;
                // The Pentium II allocates BTB entries for taken branches.
                if taken {
                    self.allocate(base, addr, taken);
                }
                BranchOutcome {
                    btb_hit: false,
                    mispredicted: predicted_taken != taken,
                }
            }
        }
    }

    /// Touches only the BTB (no pattern-table training) and reports whether
    /// the entry was resident. Used for bulk-modelled structural branches
    /// whose direction accuracy is declared by the code block rather than
    /// simulated per instance; BTB *occupancy* is still real, so BTB pressure
    /// between code paths emerges from the simulation (the paper reports
    /// ≈50% BTB miss rates, §5.3).
    pub fn probe(&mut self, addr: u64, mostly_taken: bool) -> bool {
        match self.find(addr) {
            (base, Some(way)) => {
                self.touch(base, way);
                true
            }
            (base, None) => {
                if mostly_taken {
                    self.allocate(base, addr, true);
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchUnit {
        BranchUnit::new(BtbGeom {
            entries: 512,
            assoc: 4,
            history_bits: 4,
            pattern_entries: 1024,
        })
    }

    #[test]
    fn always_taken_branch_becomes_predictable() {
        let mut b = unit();
        let mut misses = 0;
        for _ in 0..100 {
            if b.execute(0x4000, true, true).mispredicted {
                misses += 1;
            }
        }
        assert!(
            misses <= 3,
            "saturating counters learn an always-taken branch, got {misses}"
        );
    }

    #[test]
    fn alternating_branch_learned_by_two_level_history() {
        let mut b = unit();
        let mut late_misses = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let out = b.execute(0x4000, taken, false);
            if i >= 50 && out.mispredicted {
                late_misses += 1;
            }
        }
        // A 2-bit counter alone would mispredict ~50%; local history should
        // learn the TNTN pattern almost perfectly.
        assert!(
            late_misses <= 5,
            "two-level predictor should learn alternation, got {late_misses}"
        );
    }

    #[test]
    fn static_prediction_on_btb_miss_backward_taken() {
        let mut b = unit();
        // Never-taken forward branch: never allocated, static predicts
        // not-taken, so never mispredicted.
        for _ in 0..10 {
            let out = b.execute(0x9000, false, false);
            assert!(!out.btb_hit);
            assert!(!out.mispredicted);
        }
        // First execution of a taken backward branch: BTB miss but static
        // prediction (backward ⇒ taken) is correct.
        let out = b.execute(0xa000, true, true);
        assert!(!out.btb_hit);
        assert!(!out.mispredicted);
        // Now it is in the BTB.
        assert!(b.execute(0xa000, true, true).btb_hit);
    }

    #[test]
    fn btb_capacity_pressure_causes_misses() {
        let mut b = unit();
        // 4096 hot taken branches through a 512-entry BTB: after warmup the
        // hit rate must stay well below 1.
        for _ in 0..3 {
            for i in 0..4096u64 {
                b.execute(0x1000 + i * 16, true, true);
            }
        }
        let mut hits = 0;
        for i in 0..4096u64 {
            if b.execute(0x1000 + i * 16, true, true).btb_hit {
                hits += 1;
            }
        }
        assert!(
            hits < 1024,
            "BTB thrashing expected, got {hits} hits of 4096"
        );
    }

    #[test]
    fn probe_allocates_only_taken() {
        let mut b = unit();
        assert!(!b.probe(0x5000, false));
        assert!(!b.probe(0x5000, false), "not allocated for not-taken");
        assert!(!b.probe(0x6000, true));
        assert!(b.probe(0x6000, true), "allocated after taken probe");
    }

    #[test]
    fn random_5050_branch_mispredicts_often() {
        let mut b = unit();
        // Deterministic pseudo-random direction stream.
        let mut x = 0x12345678u64;
        let mut miss = 0;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 33) & 1 == 1;
            if b.execute(0x7000, taken, false).mispredicted {
                miss += 1;
            }
        }
        assert!(
            miss > 300,
            "unpredictable branch should mispredict ~50%, got {miss}/1000"
        );
    }
}
