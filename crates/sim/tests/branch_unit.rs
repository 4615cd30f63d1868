//! Direct unit tests for the branch prediction hardware ([`BranchUnit`]):
//! the BTB + Yeh–Patt two-level adaptive predictor + static fallback that
//! every data-dependent qualify branch runs through (§5.3). The inline
//! module tests cover the headline learning behaviours; this suite pins the
//! *hardware* contracts the selection-mode experiments lean on — the static
//! fallback rule, 2-bit counter saturation/hysteresis, BTB set
//! aliasing/eviction, and the unpredictability gap between random and
//! biased direction streams.

use wdtg_sim::{BranchOutcome, BranchUnit, BtbGeom};

fn unit() -> BranchUnit {
    // The Pentium II geometry used by CpuConfig::pentium_ii_xeon().
    BranchUnit::new(BtbGeom {
        entries: 512,
        assoc: 4,
        history_bits: 4,
        pattern_entries: 1024,
    })
}

/// Deterministic pseudo-random direction stream (LCG high bit).
fn lcg_stream(seed: u64, n: usize) -> Vec<bool> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) & 1 == 1
        })
        .collect()
}

#[test]
fn static_fallback_is_backward_taken_forward_not_taken() {
    // §5.3: "On a BTB miss, the prediction is static (backward branch is
    // taken, forward is not taken)." All four (direction, actual) corners
    // on a cold BTB:
    let mut b = unit();
    // Backward + taken: static correct.
    let out = b.execute(0x1000, true, true);
    assert!(!out.btb_hit && !out.mispredicted);
    // Backward + not taken: static wrong.
    let out = b.execute(0x2000, false, true);
    assert!(!out.btb_hit && out.mispredicted);
    // Forward + not taken: static correct.
    let out = b.execute(0x3000, false, false);
    assert!(!out.btb_hit && !out.mispredicted);
    // Forward + taken: static wrong.
    let out = b.execute(0x4000, true, false);
    assert!(!out.btb_hit && out.mispredicted);
}

#[test]
fn not_taken_branches_never_enter_the_btb() {
    // The Pentium II allocates BTB entries for *taken* branches only: a
    // never-taken branch stays static forever (and stays correct, since
    // forward ⇒ predicted not-taken).
    let mut b = unit();
    for _ in 0..50 {
        let out = b.execute(0x5000, false, false);
        assert!(!out.btb_hit, "never-taken branch must never be allocated");
        assert!(!out.mispredicted);
    }
}

#[test]
fn two_bit_counters_saturate_and_give_hysteresis() {
    // Train a branch strongly taken, then flip its direction once: a 2-bit
    // saturating counter absorbs the single anomaly (one misprediction) and
    // keeps predicting taken immediately afterwards — the defining
    // hysteresis a 1-bit scheme would not have. `history_bits: 0` degrades
    // the two-level scheme to the bare counter, isolating saturation from
    // history-pattern effects.
    let mut b = BranchUnit::new(BtbGeom {
        entries: 512,
        assoc: 4,
        history_bits: 0,
        pattern_entries: 1024,
    });
    for _ in 0..32 {
        b.execute(0x6000, true, true);
    }
    // The anomaly mispredicts (counter saturated at strongly-taken)...
    assert!(b.execute(0x6000, false, true).mispredicted);
    // ...but one contrary outcome must not flip the prediction: the counter
    // dropped 3 → 2, which still predicts taken, so the very next taken
    // execution is correct and re-saturates.
    assert!(
        !b.execute(0x6000, true, true).mispredicted,
        "one anomaly must not flip a saturated counter"
    );
    for _ in 0..8 {
        assert!(!b.execute(0x6000, true, true).mispredicted);
    }
    // Hysteresis is symmetric: it takes *two* contrary outcomes to change
    // the prediction.
    assert!(b.execute(0x6000, false, true).mispredicted); // 3 -> 2
    assert!(b.execute(0x6000, false, true).mispredicted); // 2 -> 1
    assert!(
        !b.execute(0x6000, false, true).mispredicted,
        "after two contrary outcomes the counter predicts the new direction"
    );
}

#[test]
fn btb_set_aliasing_evicts_within_one_set() {
    // 4-way sets: five branches that alias to the same set must thrash,
    // while four coexist. Set index is ((addr >> 1) % sets) with
    // sets = 512/4 = 128, so addresses 2*128*k apart (shifted) alias.
    let set_stride = 2 * 128; // one full wrap of the set index
    let base = 0x10_0000;
    let mut four = unit();
    for _ in 0..4 {
        for w in 0..4u64 {
            four.execute(base + w * set_stride, true, true);
        }
    }
    // All four ways resident.
    for w in 0..4u64 {
        assert!(
            four.execute(base + w * set_stride, true, true).btb_hit,
            "4 branches must coexist in a 4-way set"
        );
    }
    let mut five = unit();
    for _ in 0..4 {
        for w in 0..5u64 {
            five.execute(base + w * set_stride, true, true);
        }
    }
    // Round-robin over 5 entries in a 4-way LRU set: every access misses.
    let hits: usize = (0..5u64)
        .filter(|w| five.execute(base + w * set_stride, true, true).btb_hit)
        .count();
    assert!(
        hits < 5,
        "5 aliased branches cannot all stay resident in a 4-way set"
    );
    // Branches in *different* sets are unaffected by the aliasing storm.
    let mut mixed = unit();
    mixed.execute(0x2, true, true);
    for _ in 0..8 {
        for w in 0..5u64 {
            mixed.execute(base + w * set_stride, true, true);
        }
    }
    assert!(
        mixed.execute(0x2, true, true).btb_hit,
        "eviction must be contained to the aliased set"
    );
}

#[test]
fn random_stream_mispredicts_far_more_than_biased_stream() {
    // The Fig 5.4 mechanism in isolation: a ~50%-random direction stream
    // defeats every level of the predictor, while an all-taken stream is
    // learned almost immediately. The gap must be at least 4x (it is far
    // larger in practice).
    let n = 2_000;
    let mut random = unit();
    let random_misses: usize = lcg_stream(0x5744_5447, n)
        .into_iter()
        .filter(|&taken| random.execute(0x7000, taken, false).mispredicted)
        .count();
    let mut biased = unit();
    let biased_misses: usize = (0..n)
        .filter(|_| biased.execute(0x7000, true, false).mispredicted)
        .count();
    assert!(
        random_misses >= n * 35 / 100,
        "a coin-flip branch should mispredict near 50%, got {random_misses}/{n}"
    );
    assert!(
        random_misses >= 4 * biased_misses.max(1),
        "random stream must mispredict >=4x an all-taken stream: \
         {random_misses} vs {biased_misses}"
    );
}

#[test]
fn misprediction_rate_is_maximal_near_even_direction_mix() {
    // Sweep the taken-probability of a pseudo-random stream: the simulated
    // predictor's misprediction rate must be unimodal-ish with its maximum
    // at the 50% mix — the microarchitectural driver behind the branching
    // executor's T_B peak at 50% selectivity.
    let n = 4_000;
    let mut rates = Vec::new();
    for pct in [1u64, 25, 50, 75, 99] {
        let mut b = unit();
        let mut x = 0x1234_5678u64;
        let misses = (0..n)
            .filter(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let taken = (x >> 33) % 100 < pct;
                b.execute(0x8000, taken, false).mispredicted
            })
            .count();
        rates.push(misses as f64 / n as f64);
    }
    let peak = rates
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(peak, 2, "misprediction must peak at the 50% mix: {rates:?}");
    assert!(rates[2] > 2.0 * rates[0] && rates[2] > 2.0 * rates[4]);
}

/// Oracle for [`BranchUnit`]'s indexing, sharing nothing with it: every index
/// is a `%`, and each BTB set is a `Vec` of `(branch, local history)` kept
/// most-recent-first by removing and re-inserting at the front.
struct ModuloBranchUnit {
    geom: BtbGeom,
    sets: Vec<Vec<(u64, u64)>>,
    pht: Vec<u8>,
}

impl ModuloBranchUnit {
    fn new(geom: BtbGeom) -> Self {
        ModuloBranchUnit {
            geom,
            sets: vec![Vec::new(); (geom.entries / geom.assoc) as usize],
            pht: vec![1; geom.pattern_entries as usize],
        }
    }

    /// Moves `addr`'s entry to the front of its set and returns its history;
    /// `allocate` creates a missing entry (history all ones: first seen
    /// taken), dropping the set's least recently used one when full.
    fn touch(&mut self, addr: u64, allocate: bool) -> Option<&mut u64> {
        let (assoc, ones) = (self.geom.assoc as usize, (1 << self.geom.history_bits) - 1);
        let n = self.sets.len() as u64;
        let set = &mut self.sets[((addr >> 1) % n) as usize];
        let entry = match set.iter().position(|&(a, _)| a == addr) {
            Some(at) => set.remove(at),
            None if allocate => {
                set.truncate(assoc - 1);
                set.insert(0, (addr, ones));
                return None;
            }
            None => return None,
        };
        set.insert(0, entry);
        Some(&mut set[0].1)
    }

    fn execute(&mut self, addr: u64, taken: bool, backward: bool) -> BranchOutcome {
        let (bits, entries) = (self.geom.history_bits, self.geom.pattern_entries as u64);
        let Some(history) = self.touch(addr, taken) else {
            return BranchOutcome {
                btb_hit: false,
                mispredicted: backward != taken,
            };
        };
        let at = ((((addr >> 1) << bits) | *history) % entries) as usize;
        *history = ((*history << 1) | taken as u64) & ((1 << bits) - 1);
        let counter = self.pht[at];
        self.pht[at] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        BranchOutcome {
            btb_hit: true,
            mispredicted: (counter >= 2) != taken,
        }
    }

    fn probe(&mut self, addr: u64, mostly_taken: bool) -> bool {
        self.touch(addr, mostly_taken).is_some()
    }
}

#[test]
fn indexing_matches_a_modulo_reference_at_any_geometry() {
    // 96 sets and a 1 000-entry pattern table take the `%` arm of the
    // unit's indexing, the paper's 128 sets and 1 024 entries the mask arm;
    // both must place every branch where the plain modulo does. 700 branch
    // sites over either BTB keep sets full and evicting.
    let odd = BtbGeom {
        entries: 384,
        assoc: 4,
        history_bits: 4,
        pattern_entries: 1000,
    };
    let paper = BtbGeom {
        entries: 512,
        pattern_entries: 1024,
        ..odd
    };
    for geom in [odd, paper] {
        let mut unit = BranchUnit::new(geom);
        let mut reference = ModuloBranchUnit::new(geom);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut hits = 0;
        for step in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = 0x40_0000 + ((x >> 40) % 700) * 6;
            // Each site has its own bias, so histories and counters differ.
            let taken = (x >> 20) % 8 < addr % 9;
            if (x >> 33).is_multiple_of(4) {
                let hit = unit.probe(addr, taken);
                assert_eq!(hit, reference.probe(addr, taken), "step {step}");
                hits += hit as u32;
            } else {
                let backward = (x >> 35) & 1 == 1;
                let out = unit.execute(addr, taken, backward);
                assert_eq!(out, reference.execute(addr, taken, backward), "step {step}");
                hits += out.btb_hit as u32;
            }
        }
        assert!((20_000..180_000).contains(&hits), "{hits} hits: one-sided");
    }
}
