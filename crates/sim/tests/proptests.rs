//! Property-based tests for the processor model's core invariants.

use proptest::prelude::*;
use wdtg_sim::{
    segment, BranchSite, BranchUnit, BtbGeom, Cache, CacheAccess, CacheGeom, CodeBlock, Cpu,
    CpuConfig, InterruptCfg, MemDep,
};

/// Reference model: fully associative LRU over the same trace, used to check
/// that a 1-set cache with associativity == capacity behaves identically.
fn reference_lru_misses(trace: &[u64], capacity: usize, line_bytes: u64) -> u64 {
    let mut stack: Vec<u64> = Vec::new();
    let mut misses = 0;
    for &addr in trace {
        let line = addr / line_bytes;
        if let Some(pos) = stack.iter().position(|&l| l == line) {
            stack.remove(pos);
        } else {
            misses += 1;
            if stack.len() == capacity {
                stack.pop();
            }
        }
        stack.insert(0, line);
    }
    misses
}

/// Oracle for [`Cache`], deliberately naive and sharing nothing with it: each
/// set is a `Vec` of `(line, dirty)` kept most-recent-first by removing and
/// re-inserting at the front.
struct NaiveCache {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

impl NaiveCache {
    fn new(sets: usize, assoc: usize) -> Self {
        NaiveCache {
            sets: vec![Vec::new(); sets],
            assoc,
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    /// Puts `line` in front of its set; a full set first drops its last
    /// (least recently used) entry, which is the reported eviction.
    fn fill(&mut self, line: u64, dirty: bool) -> CacheAccess {
        let assoc = self.assoc;
        let set = self.set(line);
        let victim = if set.len() == assoc { set.pop() } else { None };
        set.insert(0, (line, dirty));
        let dirty_writeback = victim.is_some_and(|(_, dirty)| dirty);
        self.writebacks += dirty_writeback as u64;
        CacheAccess {
            hit: false,
            evicted: victim.map(|(line, _)| line),
            dirty_writeback,
        }
    }

    fn access(&mut self, line: u64, write: bool) -> CacheAccess {
        self.accesses += 1;
        let set = self.set(line);
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = set.remove(pos);
            set.insert(0, (line, dirty || write));
            return CacheAccess {
                hit: true,
                evicted: None,
                dirty_writeback: false,
            };
        }
        self.misses += 1;
        self.fill(line, write)
    }

    fn probe(&mut self, line: u64) -> bool {
        self.set(line).iter().any(|&(l, _)| l == line)
    }

    fn install(&mut self, line: u64) -> Option<u64> {
        if self.probe(line) {
            return None;
        }
        self.fill(line, false).evicted
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set(line);
        let before = set.len();
        set.retain(|&(l, _)| l != line);
        set.len() < before
    }
}

/// Walks `lines` to the end through [`Cache::hit_run`], resuming after each
/// miss as instruction fetch does, and holds every call's hits and miss to
/// the model's outcomes for the same lines.
fn hit_run_matches_model(
    cache: &mut Cache,
    model: &mut NaiveCache,
    lines: impl Iterator<Item = u64> + Clone,
    write: bool,
) {
    let (mut got, mut want) = (lines.clone(), lines);
    loop {
        let (hits, miss) = cache.hit_run(&mut got, write);
        let mut want_hits = 0;
        let want_miss = loop {
            let Some(line) = want.next() else { break None };
            let outcome = model.access(line, write);
            if !outcome.hit {
                break Some((line, outcome));
            }
            want_hits += 1;
        };
        prop_assert_eq!((hits, miss), (want_hits, want_miss));
        if miss.is_none() {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single-set cache must match textbook fully-associative LRU exactly.
    #[test]
    fn cache_matches_reference_lru(trace in proptest::collection::vec(0u64..4096, 1..400)) {
        // 8 lines of 32 bytes in one set.
        let mut c = Cache::new(CacheGeom { size_bytes: 256, line_bytes: 32, assoc: 8 });
        let mut misses = 0;
        for &addr in &trace {
            if !c.access(addr, false).hit {
                misses += 1;
            }
        }
        prop_assert_eq!(misses, reference_lru_misses(&trace, 8, 32));
    }

    /// The line just accessed is always resident (LRU never evicts the MRU).
    #[test]
    fn most_recent_line_is_always_resident(trace in proptest::collection::vec(0u64..100_000, 1..300)) {
        let mut c = Cache::new(CacheGeom { size_bytes: 1024, line_bytes: 32, assoc: 4 });
        for &addr in &trace {
            c.access(addr, false);
            prop_assert!(c.probe(addr));
        }
    }

    /// Doubling capacity never increases misses for the same trace
    /// (stack property of LRU within a fixed set mapping: compare a
    /// fully-associative small cache to a fully-associative larger one).
    #[test]
    fn lru_miss_count_monotone_in_capacity(trace in proptest::collection::vec(0u64..8192, 1..400)) {
        let small = reference_lru_misses(&trace, 4, 32);
        let large = reference_lru_misses(&trace, 8, 32);
        prop_assert!(large <= small);
    }

    /// Every cycle the CPU spends is charged to exactly one Table 3.1
    /// component: ledger total == cycle counter, always.
    #[test]
    fn ledger_identity_holds_for_random_workloads(
        ops in proptest::collection::vec((0u8..4, 0u64..1_000_000, any::<bool>()), 1..300)
    ) {
        let mut cpu = Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(
            InterruptCfg { period_cycles: 10_000, kernel_code_bytes: 4096, kernel_data_bytes: 512 }));
        let block = CodeBlock::builder("p", 900)
            .private(segment::PRIVATE, 4096)
            .at(segment::CODE);
        let site = BranchSite { addr: segment::CODE + 64, backward: false };
        for (kind, addr, flag) in ops {
            match kind {
                0 => cpu.exec_block(&block),
                1 => cpu.load(segment::HEAP + addr, 8, if flag { MemDep::Chase } else { MemDep::Demand }),
                2 => cpu.store(segment::HEAP + addr, 8, MemDep::Demand),
                _ => cpu.branch(site, flag),
            }
        }
        let ledger_total = cpu.ledger().grand_total();
        prop_assert!((ledger_total - cpu.cycles()).abs() < 1e-6,
            "ledger {} != cycles {}", ledger_total, cpu.cycles());
    }

    /// Counters never decrease and user+sup cycles equal total cycles.
    #[test]
    fn mode_cycles_partition_total(
        ops in proptest::collection::vec((0u8..2, 0u64..500_000), 1..200)
    ) {
        use wdtg_sim::Mode;
        let mut cpu = Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(
            InterruptCfg { period_cycles: 7_000, kernel_code_bytes: 2048, kernel_data_bytes: 256 }));
        let block = CodeBlock::builder("p", 1200).private(segment::PRIVATE, 2048).at(segment::CODE);
        for (kind, addr) in ops {
            match kind {
                0 => cpu.exec_block(&block),
                _ => cpu.load(segment::HEAP + addr, 4, MemDep::Demand),
            }
        }
        let split = cpu.cycles_in_mode(Mode::User) + cpu.cycles_in_mode(Mode::Sup);
        prop_assert!((split - cpu.cycles()).abs() < 1e-6);
    }

    /// `Cache` against [`NaiveCache`] over random interleavings of every
    /// entry point — reads, writes, probes, prefetch installs,
    /// back-invalidations, contiguous runs, and stop-at-miss walks over a
    /// span and over an ascending list with gaps — at associativities 1, 2,
    /// 4 and 8 (so both the 4-way instance of the lookup and the generic
    /// one): each call's outcome and the running statistics must agree, and
    /// so must the final contents.
    #[test]
    fn cache_run_fast_path_matches_per_line(
        assoc_log2 in 0u32..4,
        ops in proptest::collection::vec((0u8..9, 0u64..400, 1u64..40, any::<bool>()), 1..400)
    ) {
        const SETS: u32 = 16;
        let assoc = 1u32 << assoc_log2;
        let mut cache = Cache::new(CacheGeom { size_bytes: SETS * 32 * assoc, line_bytes: 32, assoc });
        let mut model = NaiveCache::new(SETS as usize, assoc as usize);
        let mut missed = Vec::new();
        for &(op, line, len, write) in &ops {
            // Confine lines to a few times the capacity so sets conflict.
            let line = line % (3 * (SETS * assoc) as u64);
            match op {
                0 | 1 => prop_assert_eq!(cache.access(line * 32 + 7, write), model.access(line, write)),
                2 => prop_assert_eq!(cache.probe(line * 32), model.probe(line)),
                3 => prop_assert_eq!(cache.install(line * 32), model.install(line)),
                4 => prop_assert_eq!(cache.invalidate_line(line), model.invalidate(line)),
                5 => prop_assert_eq!(cache.access_line(line, write), model.access(line, write)),
                7 => hit_run_matches_model(&mut cache, &mut model, line..line + len, write),
                8 => {
                    let list: Vec<u64> = (line..line + 2 * len).filter(|l| (l ^ len) % 3 != 0).collect();
                    hit_run_matches_model(&mut cache, &mut model, list.iter().copied(), write);
                }
                _ => {
                    missed.clear();
                    let stats = cache.access_run(line, len, write, &mut missed);
                    let mut want_missed = Vec::new();
                    let mut want_writebacks = 0;
                    for l in line..line + len {
                        let acc = model.access(l, write);
                        if !acc.hit {
                            want_missed.push(l);
                        }
                        want_writebacks += acc.dirty_writeback as u64;
                    }
                    prop_assert_eq!(&missed, &want_missed);
                    prop_assert_eq!(
                        (stats.hits, stats.misses, stats.dirty_writebacks),
                        (len - want_missed.len() as u64, want_missed.len() as u64, want_writebacks)
                    );
                }
            }
            prop_assert_eq!(
                (cache.accesses(), cache.misses(), cache.writebacks()),
                (model.accesses, model.misses, model.writebacks)
            );
        }
        for line in 0..3 * (SETS * assoc) as u64 {
            prop_assert_eq!(cache.probe(line * 32), model.probe(line));
        }
    }

    /// A branch with a fixed direction is eventually predicted almost
    /// perfectly regardless of its address or direction.
    #[test]
    fn constant_branches_are_learned(addr in 1u64..1_000_000, taken in any::<bool>()) {
        let mut bu = BranchUnit::new(BtbGeom { entries: 512, assoc: 4, history_bits: 4, pattern_entries: 1024 });
        let mut late = 0;
        for i in 0..100 {
            let out = bu.execute(addr, taken, false);
            if i >= 20 && out.mispredicted {
                late += 1;
            }
        }
        prop_assert!(late == 0, "constant branch still mispredicting {late} times");
    }
}
