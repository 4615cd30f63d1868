//! The simulated processor.
//!
//! [`Cpu`] is driven *online* by the instrumented DBMS: executing an operator
//! calls [`Cpu::exec_block`] for its instruction stream and pipeline cost,
//! [`Cpu::load`]/[`Cpu::store`] for each relation/index/private data access
//! (at real simulated addresses), and [`Cpu::branch`] for data-dependent
//! branches. Every cycle spent is charged to exactly one Table 3.1 component
//! in the [`StallLedger`], and every countable occurrence increments the
//! Pentium II counter file, so both the paper's `count × penalty`
//! reconstruction and the ground truth are available.

use std::collections::VecDeque;

use crate::branch::BranchUnit;
use crate::cache::Cache;
use crate::config::CpuConfig;
use crate::events::{CounterFile, Event, Mode};
use crate::mem::segment;
use crate::modulo;
use crate::pipeline::{block_cost, BranchSite, CodeBlock};
use crate::stalls::{add_repeated, Component, StallLedger};
use crate::tlb::Tlb;

/// Cycles of an isolated demand L2 data miss hidden by the out-of-order
/// window (§3.2: data stalls can partially overlap with computation; §5.2.1:
/// the workload is latency-bound, so the overlap is small and the paper's
/// `misses × latency` estimate is close to the truth).
const DEMAND_OVERLAP_CREDIT: f64 = 10.0;

/// x86 instructions retired per conditional-select lane (a `setcc`-style
/// flag materialization plus the `cmov` itself).
pub const SELECT_X86_PER_LANE: u64 = 2;
/// µops retired per conditional-select lane.
pub const SELECT_UOPS_PER_LANE: u64 = 3;
/// Useful-computation cycles per conditional-select lane (µops / width).
pub const SELECT_TC_PER_LANE: f64 = 1.0;
/// Dependency-stall cycles per conditional-select lane: a cmov serializes on
/// both of its inputs, so the chain a predicted branch would have broken
/// stays intact (the classic predication tax).
pub const SELECT_TDEP_PER_LANE: f64 = 0.5;

/// Minimum dynamic-prediction accuracy of a structural branch during the
/// warm iterations of one scaled block run ([`Cpu::exec_block_scaled`]): a
/// tight loop's branches see a stationary pattern the two-level predictor
/// locks onto, so a trained back-edge mispredicts roughly once per thousand
/// iterations (≈ at loop exits) regardless of how the block predicts when
/// invoked once among other code.
pub const LOOP_TRAINED_BIAS: f64 = 0.999;

/// Dependence class of an explicit data access, which determines how much of
/// an L2 miss the out-of-order engine can hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemDep {
    /// Ordinary demand access with some independent work available
    /// (sequential scan reads): a small fixed overlap credit applies.
    Demand,
    /// Pointer-chasing access (B+tree descent, hash-chain walk): the next
    /// access depends on this one, so the full latency is exposed.
    Chase,
}

/// A point-in-time copy of all observable CPU state, for delta measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter file at snapshot time.
    pub counters: CounterFile,
    /// Stall ledger at snapshot time.
    pub ledger: StallLedger,
    /// Cycle counter at snapshot time.
    pub cycles: f64,
}

impl Snapshot {
    /// Componentwise difference `self - earlier`.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self.counters.delta(&earlier.counters),
            ledger: self.ledger.delta(&earlier.ledger),
            cycles: self.cycles - earlier.cycles,
        }
    }

    /// Adds `other`'s counters, ledger and cycles into `self` (one core's
    /// measurement delta folded into a multi-core total).
    pub fn absorb(&mut self, other: &Snapshot) {
        self.counters.absorb(&other.counters);
        self.ledger.absorb(&other.ledger);
        self.cycles += other.cycles;
    }
}

/// The merged view of per-core measurement deltas from a sharded execution.
///
/// Shards run sequentially in simulation, each on its own [`Cpu`], so a
/// "parallel" phase is really N independent per-core deltas. Two summaries
/// matter and they are *different numbers*:
///
/// * [`CoreMerge::total`] — counters, stall ledger and cycles summed across
///   cores: the machine-wide *work* (what a fleet-wide emon would count);
/// * [`CoreMerge::wall_cycles`] — the maximum per-core cycle count: the
///   simulated wall clock of the phase, since the slowest core finishes
///   last. Speedup curves divide 1-core wall by N-core wall.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMerge {
    /// Counters/ledger/cycles summed across cores (total work).
    pub total: Snapshot,
    /// Max per-core cycles (the merged wall clock).
    pub wall_cycles: f64,
    /// How many per-core deltas were merged.
    pub cores: usize,
}

/// Merges per-core measurement deltas (see [`CoreMerge`]). Deterministic:
/// summation order is the slice order, so identical inputs produce
/// bit-identical merges.
pub fn merge_cores(deltas: &[Snapshot]) -> CoreMerge {
    let mut total = Snapshot {
        counters: CounterFile::new(),
        ledger: StallLedger::new(),
        cycles: 0.0,
    };
    let mut wall = 0.0f64;
    for d in deltas {
        total.absorb(d);
        wall = wall.max(d.cycles);
    }
    CoreMerge {
        total,
        wall_cycles: wall,
        cores: deltas.len(),
    }
}

/// Slots in a core's rotation table: an engine profile places 35 blocks and
/// the core adds its kernel block, so the table stays sparse.
const ROTATION_SLOTS: usize = 128;
/// The key of an empty slot (no block starts at the top of the address
/// space).
const NO_BLOCK: u64 = u64::MAX;

/// The probe rotation of every block a core has run, keyed by the block's
/// `base`: successive calls of one code path take different routes through
/// its function, so what a call fetches and probes depends on how many
/// calls of that block came before it — on this core. Open-addressed and
/// held inline, so a lookup touches no heap.
#[derive(Debug)]
struct Rotations([(u64, u32); ROTATION_SLOTS]);

impl Rotations {
    const COLD: Rotations = Rotations([(NO_BLOCK, 0); ROTATION_SLOTS]);

    /// The slot holding `base`, or the empty one it would take (at rotation
    /// zero); `None` when every slot holds another block. Fibonacci hashing
    /// spreads blocks laid out at a regular stride.
    #[inline]
    fn find(&self, base: u64) -> Option<usize> {
        let home = (base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            >> (u64::BITS - ROTATION_SLOTS.ilog2())) as usize;
        (home..home + ROTATION_SLOTS)
            .map(|i| i % ROTATION_SLOTS)
            .find(|&i| self.0[i].0 == base || self.0[i].0 == NO_BLOCK)
    }
}

/// The simulated Pentium II Xeon-class processor.
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    line_shift: u32,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    branch_unit: BranchUnit,
    counters: CounterFile,
    residue: Box<[[f64; Event::COUNT]; 2]>,
    ledger: StallLedger,
    cycles: f64,
    cycles_by_mode: [f64; 2],
    mode: Mode,
    next_interrupt: f64,
    kernel_block: Option<CodeBlock>,
    rotations: Rotations,
    prefetch_q: VecDeque<(u64, f64)>,
    prefetch_bus_free: f64,
    run_miss_buf: Vec<u64>,
    /// Routes instruction fetch through the per-line reference walk.
    #[cfg(test)]
    per_line_ifetch: bool,
    /// Fetch runs whose middle went through the known-miss lane.
    #[cfg(test)]
    known_miss_runs: u64,
}

impl Cpu {
    /// Creates a cold processor with the given configuration.
    ///
    /// # Panics
    /// Panics if the line sizes of the three caches differ, or if a cache or
    /// TLB geometry is one the model cannot index ([`Cache::new`] names it).
    pub fn new(cfg: CpuConfig) -> Self {
        assert_eq!(
            cfg.l1i.line_bytes, cfg.l2.line_bytes,
            "line sizes must agree"
        );
        assert_eq!(
            cfg.l1d.line_bytes, cfg.l2.line_bytes,
            "line sizes must agree"
        );
        let kernel_block = (cfg.interrupts.period_cycles > 0).then(|| {
            CodeBlock::builder("nt.kernel_interrupt", cfg.interrupts.kernel_code_bytes)
                .private(
                    segment::KERNEL_DATA,
                    cfg.interrupts.kernel_data_bytes.max(64),
                )
                .dep_frac(0.25)
                .fu_frac(0.2)
                .at(segment::KERNEL_CODE)
        });
        Cpu {
            line_shift: cfg.l2.line_shift(),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            branch_unit: BranchUnit::new(cfg.btb),
            counters: CounterFile::new(),
            residue: Box::new([[0.0; Event::COUNT]; 2]),
            ledger: StallLedger::new(),
            cycles: 0.0,
            cycles_by_mode: [0.0; 2],
            mode: Mode::User,
            next_interrupt: cfg.interrupts.period_cycles as f64,
            kernel_block,
            rotations: Rotations::COLD,
            prefetch_q: VecDeque::with_capacity(8),
            prefetch_bus_free: 0.0,
            run_miss_buf: Vec::with_capacity(64),
            #[cfg(test)]
            per_line_ifetch: false,
            #[cfg(test)]
            known_miss_runs: 0,
            cfg,
        }
    }

    /// The configuration this processor was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Total elapsed cycles (both modes).
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Elapsed cycles attributed to `mode`.
    pub fn cycles_in_mode(&self, mode: Mode) -> f64 {
        self.cycles_by_mode[mode as usize]
    }

    /// The hardware counter file (ground truth; `wdtg-emon` restricts reads
    /// to two events per run like the real tool).
    pub fn counters(&self) -> &CounterFile {
        &self.counters
    }

    /// The ground-truth stall ledger.
    pub fn ledger(&self) -> &StallLedger {
        &self.ledger
    }

    /// L1 instruction cache (read-only access for statistics).
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Unified L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Captures counters, ledger and cycles for later delta measurement.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            ledger: self.ledger.clone(),
            cycles: self.cycles,
        }
    }

    /// The probe rotation the next call of `block` on this core starts from:
    /// zero for a block the core has not run since it was cold, and one
    /// more per fetch phase, private-data probe and branch probe of every
    /// call since.
    pub fn rotation(&self, block: &CodeBlock) -> u32 {
        let slot = self.rotations.find(block.base);
        slot.map_or(0, |i| self.rotations.0[i].1)
    }

    /// Zeroes counters, ledger and the cycle clock but keeps all
    /// microarchitectural state (cache, TLB, BTB contents, block rotations)
    /// warm — the §4.3 methodology measures only after warm-up runs.
    pub fn reset_stats(&mut self) {
        self.counters.reset();
        self.ledger.reset();
        *self.residue = [[0.0; Event::COUNT]; 2];
        self.cycles = 0.0;
        self.cycles_by_mode = [0.0; 2];
        self.next_interrupt = self.cfg.interrupts.period_cycles as f64;
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
    }

    /// Returns the processor, in place, to the cold state [`Cpu::new`] builds
    /// from the same configuration: caches, TLBs, BTB and predictor empty,
    /// counters, ledger and clock at zero, user mode, the interrupt timer
    /// rewound, every block's rotation back at zero, no prefetch in flight.
    /// The stream of calls that follows therefore produces, bit for bit,
    /// what it would on a new processor — without the ~300 KB of
    /// allocations a new one makes, which is what lets the SQL planner give
    /// every candidate a pristine core on a worker thread that allocates
    /// nothing large.
    pub fn reset_cold(&mut self) {
        self.reset_stats();
        // Exhaustive, so a field added to `Cpu` cannot be forgotten here;
        // the fields bound to `_` are configuration (the kernel block is
        // built from it), or what `reset_stats` has just zeroed (counters,
        // residue, ledger, clock, timer).
        let Cpu {
            cfg: _,
            line_shift: _,
            l1i,
            l1d,
            l2,
            itlb,
            dtlb,
            branch_unit,
            counters: _,
            residue: _,
            ledger: _,
            cycles: _,
            cycles_by_mode: _,
            mode,
            next_interrupt: _,
            kernel_block: _,
            rotations,
            prefetch_q,
            prefetch_bus_free,
            run_miss_buf,
            #[cfg(test)]
                per_line_ifetch: _,
            #[cfg(test)]
            known_miss_runs,
        } = self;
        l1i.clear();
        l1d.clear();
        l2.clear();
        itlb.clear();
        dtlb.clear();
        branch_unit.clear();
        *mode = Mode::User;
        *rotations = Rotations::COLD;
        prefetch_q.clear();
        *prefetch_bus_free = 0.0;
        run_miss_buf.clear();
        #[cfg(test)]
        {
            *known_miss_runs = 0;
        }
    }

    #[inline]
    fn charge(&mut self, component: Component, cycles: f64) {
        self.ledger.charge(self.mode, component, cycles);
        self.cycles += cycles;
        self.cycles_by_mode[self.mode as usize] += cycles;
        self.bump_frac(Event::CpuClkUnhalted, cycles);
    }

    #[inline]
    fn charge_ifu(&mut self, component: Component, cycles: f64) {
        self.charge(component, cycles);
        // IFU_MEM_STALL counts all cycles the fetch unit waits on memory
        // (L1I, L2 instruction and ITLB stalls) — the paper's "actual stall
        // time" source for T_L1I (Table 4.2).
        self.bump_frac(Event::IfuMemStall, cycles);
    }

    /// `times` fetch stalls of `cycles` each, leaving every counter, residue
    /// and clock bit-for-bit where `times` calls of [`Cpu::charge_ifu`] would.
    ///
    /// The first stall is one such call. For a whole `cycles >= 1.0` the rest
    /// are paid together. A `bump_frac` of such an amount leaves a residue
    /// below 1 that is a multiple of `ulp(cycles)`, so every later one adds
    /// exactly `cycles` to its counter and the residue back where it was:
    /// the two counters take one integer bump. The three `f64` accumulators
    /// take one addition each where [`add_repeated`] can show it rounds as
    /// the repeated ones would, and the repeated ones where it cannot.
    fn charge_ifu_repeated(&mut self, component: Component, cycles: f64, times: u64) {
        if times == 0 {
            return;
        }
        self.charge_ifu(component, cycles);
        let rest = times - 1;
        // The upper bound keeps `ulp(cycles)` far below 1 and the integer
        // product below in range; a penalty is a `u32` of cycles.
        if cycles.fract() != 0.0 || !(1.0..=u32::MAX as f64).contains(&cycles) {
            for _ in 0..rest {
                self.charge_ifu(component, cycles);
            }
            return;
        }
        let mode = self.mode as usize;
        self.ledger
            .charge_repeated(self.mode, component, cycles, rest);
        self.cycles = add_repeated(self.cycles, cycles, rest);
        self.cycles_by_mode[mode] = add_repeated(self.cycles_by_mode[mode], cycles, rest);
        let whole = cycles as u64 * rest;
        self.bump(Event::CpuClkUnhalted, whole);
        self.bump(Event::IfuMemStall, whole);
    }

    #[inline]
    fn bump(&mut self, event: Event, n: u64) {
        self.counters.bump(self.mode, event, n);
    }

    #[inline]
    fn bump_frac(&mut self, event: Event, amount: f64) {
        let r = &mut self.residue[self.mode as usize][event as usize];
        *r += amount;
        if *r >= 1.0 {
            // The residue is never negative, so truncating is `floor`, and
            // the trip through `u64` is exact; `f64::floor` itself is a
            // library call on baseline x86-64, made on every charge.
            let whole = *r as u64;
            self.counters.bump(self.mode, event, whole);
            *r -= whole as f64;
        }
    }

    // ------------------------------------------------------------------
    // Instruction side
    // ------------------------------------------------------------------

    /// Fetches the `bytes` of code at `base` as one run of lines.
    ///
    /// `run_lines`: sequential fetch-run length in lines (taken-branch
    /// spacing); the stream prefetcher can only hide misses inside a run.
    ///
    /// **Two passes.** The whole window goes through the L1I first
    /// ([`Cache::access_run`], which collects the misses), then its misses
    /// go through L2 as one list ([`Cpu::l2_ifetch_fill`]). That reorders
    /// L1I work against L2 work, and is exact when nothing on the L2 side
    /// reads or writes the L1I: no stream-buffer fill can happen on this
    /// fetch, and L2 is not inclusive (so it back-invalidates nothing).
    /// Then each cache sees its own accesses in the original order, the
    /// L1I charges nothing on a hit, and the cycle charges — floating-point
    /// sums whose order is part of the simulated result — are made in the
    /// order the per-line walk makes them. Under the stream buffer or an
    /// inclusive L2 the walk instead stops at each L1I miss
    /// ([`Cache::hit_run`]) and services it, stream-buffer fill included,
    /// before it resumes. Integer event counts commute, so the per-line and
    /// per-miss ones are added once per call.
    ///
    /// An L1I miss that hits L2 is only *counted* (`owed`) until something
    /// reads the clock or charges another component: a queued data
    /// prefetch to check for completion, an L2 miss, the end of the fetch.
    /// The owed stalls are then paid at once by
    /// [`Cpu::charge_ifu_repeated`], which is exact.
    ///
    /// **Known-miss lane.** In the two-pass case a run longer than twice
    /// the L1I's capacity has a middle — everything but the first and last
    /// `capacity` lines — where each line must miss and be evicted again
    /// before the run ends ([`Cache::miss_run`] has the argument). The
    /// middle is accounted in the L1I without visiting its sets, and the L2
    /// pass takes the head's misses, the middle as a range, then the
    /// tail's misses.
    fn ifetch(&mut self, base: u64, bytes: u32, run_lines: u32) {
        #[cfg(test)]
        if self.per_line_ifetch {
            return self.ifetch_per_line(base, bytes, run_lines);
        }
        let last = base + bytes.max(1) as u64 - 1;
        self.itlb_walk(base, last);
        let first_line = base >> self.line_shift;
        let last_line = last >> self.line_shift;
        let end_line = last_line + 1;
        self.bump(Event::IfuIfetch, end_line - first_line);
        // Xeon instruction stream prefetch: bring the next sequential line
        // close to the fetch unit so straight-line code misses at most once
        // per run (§3.2). A taken branch redirects the fetch stream and ends
        // the run, so branch-dense code (interpreters) defeats the
        // prefetcher — this couples T_L1I to branch behaviour (§5.3).
        let stream = self.cfg.pipe.ifetch_stream_buffer && run_lines >= 2;
        let mut owed = 0u64;
        let misses = if stream || self.cfg.pipe.inclusive_l2 {
            let mut misses = 0u64;
            let mut lines = first_line..end_line;
            while let (_, Some((line, _))) = self.l1i.hit_run(&mut lines, false) {
                misses += 1;
                owed = self.l2_ifetch_fill(line..line + 1, owed);
                let next = line + 1;
                // `bytes` is a u32, so a position within the path fits one too.
                if stream
                    && line < last_line
                    && !((line - first_line + 1) as u32).is_multiple_of(run_lines)
                    && self.l2.probe_line(next)
                    && !self.l1i.install_line(next).hit
                {
                    self.bump(Event::SimStreamBufHit, 1);
                }
            }
            misses
        } else {
            let capacity = self.l1i.capacity_lines();
            let (middle, tail) = if end_line - first_line > 2 * capacity {
                (first_line + capacity, end_line - capacity)
            } else {
                (end_line, end_line)
            };
            let mut missed = std::mem::take(&mut self.run_miss_buf);
            missed.clear();
            self.l1i
                .access_run(first_line, middle - first_line, false, &mut missed);
            let head = missed.len();
            if tail > middle {
                self.l1i.miss_run(tail - middle);
                self.l1i
                    .access_run(tail, end_line - tail, false, &mut missed);
                #[cfg(test)]
                {
                    self.known_miss_runs += 1;
                }
            }
            if !missed.is_empty() || tail > middle {
                owed = self.l2_ifetch_fill(missed[..head].iter().copied(), owed);
                owed = self.l2_ifetch_fill(middle..tail, owed);
                owed = self.l2_ifetch_fill(missed[head..].iter().copied(), owed);
            }
            let misses = missed.len() as u64 + (tail - middle);
            self.run_miss_buf = missed;
            misses
        };
        self.charge_l1i_stalls(owed);
        if misses > 0 {
            self.bump(Event::IfuIfetchMiss, misses);
            self.bump(Event::L2Ifetch, misses);
            self.bump(Event::L2Rqsts, misses);
            self.bump(Event::L2Ads, misses);
        }
    }

    /// ITLB lookup per 4 KB page of the path `base..=last`.
    fn itlb_walk(&mut self, base: u64, last: u64) {
        for page in (base >> 12)..=(last >> 12) {
            if !self.itlb.access(page << 12) {
                self.bump(Event::ItlbMiss, 1);
                self.charge_ifu(Component::Titlb, self.cfg.pipe.itlb_miss_penalty as f64);
            }
        }
    }

    /// Pays the fetch stalls of `owed` L1I misses that hit L2.
    #[inline]
    fn charge_l1i_stalls(&mut self, owed: u64) {
        self.charge_ifu_repeated(Component::Tl1i, self.cfg.pipe.l1_miss_penalty as f64, owed);
    }

    /// The L2 half of L1I misses: services `lines`, every one of them
    /// missed in the L1I, from L2/memory, in order. `owed` is the caller's
    /// count of earlier misses whose L1I stall is not charged yet; the new
    /// count comes back — one more per L2 hit, starting from zero again
    /// once anything here had to see the clock or charge another
    /// component, the owed stalls paid first. While data prefetches are
    /// queued that is every line, since a completed one must land in L2
    /// before the next lookup; otherwise L2 hits are consumed as one run
    /// that stops only at an L2 miss. The request counters every miss bumps
    /// (`IFU_IFETCH_MISS`, `L2_IFETCH`, `L2_RQSTS`, `L2_ADS`) are the
    /// caller's.
    #[inline]
    fn l2_ifetch_fill(&mut self, mut lines: impl Iterator<Item = u64>, mut owed: u64) -> u64 {
        loop {
            let l2acc = if self.prefetch_q.is_empty() {
                let (hits, miss) = self.l2.hit_run(&mut lines, false);
                owed += hits;
                match miss {
                    Some((_, l2acc)) => l2acc,
                    None => return owed,
                }
            } else {
                let Some(line) = lines.next() else {
                    return owed;
                };
                self.charge_l1i_stalls(owed);
                owed = 0;
                self.pop_completed_prefetches();
                let l2acc = self.l2.access_line(line, false);
                if l2acc.hit {
                    owed += 1;
                    continue;
                }
                l2acc
            };
            self.charge_l1i_stalls(owed);
            owed = 0;
            self.charge_ifu(Component::Tl2i, self.cfg.pipe.mem_latency as f64);
            self.bump(Event::SimL2IfetchMiss, 1);
            self.bump(Event::L2LinesIn, 1);
            self.bump(Event::BusTranIfetch, 1);
            self.bump(Event::BusTranMem, 1);
            self.bump(Event::BusTranAny, 1);
            self.bump(Event::BusTranBurst, 1);
            self.handle_l2_eviction(l2acc.evicted, l2acc.dirty_writeback);
        }
    }

    /// The line-at-a-time walk that [`Cpu::ifetch`] replaced, kept as the
    /// reference the differential test holds it to: every line through the
    /// public single-line [`Cache`] calls, every counter bumped per line.
    #[cfg(test)]
    fn ifetch_per_line(&mut self, base: u64, bytes: u32, run_lines: u32) {
        let last = base + bytes.max(1) as u64 - 1;
        self.itlb_walk(base, last);
        let first_line = base >> self.line_shift;
        let last_line = last >> self.line_shift;
        for line in first_line..=last_line {
            self.bump(Event::IfuIfetch, 1);
            if self.l1i.access_line(line, false).hit {
                continue;
            }
            self.bump(Event::IfuIfetchMiss, 1);
            self.bump(Event::L2Ifetch, 1);
            self.bump(Event::L2Rqsts, 1);
            self.bump(Event::L2Ads, 1);
            let owed = self.l2_ifetch_fill(line..line + 1, 0);
            self.charge_l1i_stalls(owed);
            if self.cfg.pipe.ifetch_stream_buffer
                && run_lines >= 2
                && line < last_line
                && !(line - first_line + 1).is_multiple_of(run_lines as u64)
            {
                let next_addr = (line + 1) << self.line_shift;
                if !self.l1i.probe(next_addr) && self.l2.probe(next_addr) {
                    self.l1i.install(next_addr);
                    self.bump(Event::SimStreamBufHit, 1);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Data side
    // ------------------------------------------------------------------

    /// Explicit data read of `len` bytes at simulated address `addr`.
    pub fn load(&mut self, addr: u64, len: u32, dep: MemDep) {
        self.data_access(addr, len, dep, false);
    }

    /// Explicit data write of `len` bytes at simulated address `addr`.
    pub fn store(&mut self, addr: u64, len: u32, dep: MemDep) {
        self.data_access(addr, len, dep, true);
    }

    fn data_access(&mut self, addr: u64, len: u32, dep: MemDep, write: bool) {
        let len = len.max(1);
        self.bump(Event::DataMemRefs, 1);
        let last = addr + len as u64 - 1;
        for page in (addr >> 12)..=(last >> 12) {
            if !self.dtlb.access(page << 12) {
                self.bump(Event::SimDtlbMiss, 1);
                self.charge(Component::Tdtlb, self.cfg.pipe.dtlb_miss_penalty as f64);
            }
        }
        let first_line = addr >> self.line_shift;
        let last_line = last >> self.line_shift;
        if last_line > first_line {
            self.bump(Event::MisalignMemRef, 1);
        }
        for line in first_line..=last_line {
            self.data_line_access(line, dep, write);
        }
    }

    fn data_line_access(&mut self, line: u64, dep: MemDep, write: bool) {
        let acc = self.l1d.access_line(line, write);
        if acc.dirty_writeback {
            self.bump(Event::DcuMLinesOut, 1);
        }
        if acc.hit {
            return;
        }
        self.bump(Event::DcuLinesIn, 1);
        if write {
            self.bump(Event::DcuMLinesIn, 1);
        }
        self.l2_data_fill(line, dep, write);
    }

    /// Services an L1D-missed line from L2/memory: the shared tail of the
    /// per-line and contiguous-run data paths.
    fn l2_data_fill(&mut self, line: u64, dep: MemDep, write: bool) {
        self.pop_completed_prefetches();
        self.bump(if write { Event::L2St } else { Event::L2Ld }, 1);
        self.bump(Event::L2Rqsts, 1);
        self.bump(Event::L2Ads, 1);
        let l2acc = self.l2.access_line(line, write);
        if l2acc.hit {
            self.charge(Component::Tl1d, self.cfg.pipe.l1_miss_penalty as f64);
            return;
        }
        // L2 miss: either a late prefetch is in flight or main memory is hit.
        self.bump(Event::SimL2DataMiss, 1);
        self.bump(Event::L2LinesIn, 1);
        self.bump(Event::BusTranMem, 1);
        self.bump(Event::BusTranAny, 1);
        self.bump(Event::BusTranBurst, 1);
        self.bump(
            if write {
                Event::BusTranRfo
            } else {
                Event::BusTranBrd
            },
            1,
        );
        let charged = if let Some(pos) = self.prefetch_q.iter().position(|&(l, _)| l == line) {
            let (_, ready) = self.prefetch_q.remove(pos).expect("position valid");
            self.bump(Event::SimPrefetchLate, 1);
            (ready - self.cycles).max(0.0) + self.cfg.pipe.l1_miss_penalty as f64
        } else {
            let pipe = &self.cfg.pipe;
            match dep {
                MemDep::Chase => pipe.mem_latency as f64,
                MemDep::Demand => {
                    (pipe.mem_latency as f64 - DEMAND_OVERLAP_CREDIT).max(pipe.bus_occupancy as f64)
                }
            }
        };
        self.charge(Component::Tl2d, charged);
        self.bump_frac(Event::DcuMissOutstanding, charged);
        self.handle_l2_eviction(l2acc.evicted, l2acc.dirty_writeback);
    }

    /// Contiguous-run data read: equivalent cache/TLB behaviour to reading
    /// `len` bytes at `addr` line by line, but with batched bookkeeping —
    /// one `DATA_MEM_REFS` count for the whole span, one DTLB check per 4 KB
    /// page, and the L1D walked through [`Cache::access_run`]. L1D-missed
    /// lines still take the exact per-line L2/memory path (prefetch matching
    /// included), so stall cycles and miss counters match the per-record
    /// equivalent; only access-granularity counters (`DATA_MEM_REFS`,
    /// `MISALIGN_MEM_REF`) are amortized. This is the simulator's fast lane
    /// for the DBMS's batched scans.
    pub fn load_run(&mut self, addr: u64, len: u32, dep: MemDep) {
        let len = len.max(1);
        self.bump(Event::DataMemRefs, 1);
        let last = addr + len as u64 - 1;
        for page in (addr >> 12)..=(last >> 12) {
            if !self.dtlb.access(page << 12) {
                self.bump(Event::SimDtlbMiss, 1);
                self.charge(Component::Tdtlb, self.cfg.pipe.dtlb_miss_penalty as f64);
            }
        }
        let first_line = addr >> self.line_shift;
        let last_line = last >> self.line_shift;
        if last_line > first_line {
            self.bump(Event::MisalignMemRef, 1);
        }
        let mut missed = std::mem::take(&mut self.run_miss_buf);
        missed.clear();
        let stats = self
            .l1d
            .access_run(first_line, last_line - first_line + 1, false, &mut missed);
        if stats.dirty_writebacks > 0 {
            self.bump(Event::DcuMLinesOut, stats.dirty_writebacks);
        }
        if !missed.is_empty() {
            self.bump(Event::DcuLinesIn, missed.len() as u64);
            for &line in &missed {
                self.l2_data_fill(line, dep, false);
            }
        }
        self.run_miss_buf = missed;
    }

    /// Contiguous-run data write: the store-side twin of [`Cpu::load_run`],
    /// added for the partitioned join's partition buffers — a radix scatter
    /// appends values to each partition's column buffer in contiguous spans,
    /// so the write traffic is run-shaped even though rows arrive in scatter
    /// order. Cache/TLB behaviour (lines allocated, RFO bus traffic, dirty
    /// state, stall cycles) is identical to storing the span value by value;
    /// only access-granularity counters are amortized, exactly like
    /// `load_run`.
    pub fn store_run(&mut self, addr: u64, len: u32, dep: MemDep) {
        let len = len.max(1);
        self.bump(Event::DataMemRefs, 1);
        let last = addr + len as u64 - 1;
        for page in (addr >> 12)..=(last >> 12) {
            if !self.dtlb.access(page << 12) {
                self.bump(Event::SimDtlbMiss, 1);
                self.charge(Component::Tdtlb, self.cfg.pipe.dtlb_miss_penalty as f64);
            }
        }
        let first_line = addr >> self.line_shift;
        let last_line = last >> self.line_shift;
        if last_line > first_line {
            self.bump(Event::MisalignMemRef, 1);
        }
        let mut missed = std::mem::take(&mut self.run_miss_buf);
        missed.clear();
        let stats = self
            .l1d
            .access_run(first_line, last_line - first_line + 1, true, &mut missed);
        if stats.dirty_writebacks > 0 {
            self.bump(Event::DcuMLinesOut, stats.dirty_writebacks);
        }
        if !missed.is_empty() {
            self.bump(Event::DcuLinesIn, missed.len() as u64);
            self.bump(Event::DcuMLinesIn, missed.len() as u64);
            for &line in &missed {
                self.l2_data_fill(line, dep, true);
            }
        }
        self.run_miss_buf = missed;
    }

    fn handle_l2_eviction(&mut self, evicted: Option<u64>, dirty: bool) {
        let Some(line) = evicted else { return };
        self.bump(Event::L2LinesOut, 1);
        if dirty {
            self.bump(Event::L2MLinesOut, 1);
            self.bump(Event::BusTransWb, 1);
            self.bump(Event::BusTranAny, 1);
        }
        if self.cfg.pipe.inclusive_l2 {
            // Inclusion forces the L1s to drop lines the L2 replaces — the
            // §5.2.2 mechanism by which L2 data pressure could cause L1I
            // misses (not the Xeon's behaviour; ablation A3).
            self.l1i.invalidate_line(line);
            self.l1d.invalidate_line(line);
        }
    }

    /// Issues a software/stream prefetch for the line containing `addr`.
    ///
    /// Completion takes a full memory latency, the bus serialises requests,
    /// and at most `outstanding_misses` prefetches may be in flight (excess
    /// requests are dropped, as MSHR-full prefetches are on real hardware).
    /// System B's cache-conscious scan is built on this (§5.2.1: B has an L2
    /// data miss rate of only 2% on the sequential selection).
    pub fn prefetch_data(&mut self, addr: u64) {
        self.pop_completed_prefetches();
        let line = addr >> self.line_shift;
        if self.l2.probe(addr) || self.prefetch_q.iter().any(|&(l, _)| l == line) {
            return;
        }
        if self.prefetch_q.len() >= self.cfg.pipe.outstanding_misses as usize {
            return;
        }
        self.bump(Event::SimPrefetchIssued, 1);
        let start = self.cycles.max(self.prefetch_bus_free);
        self.prefetch_bus_free = start + self.cfg.pipe.bus_occupancy as f64;
        self.prefetch_q
            .push_back((line, start + self.cfg.pipe.mem_latency as f64));
    }

    fn pop_completed_prefetches(&mut self) {
        while let Some(&(line, ready)) = self.prefetch_q.front() {
            if ready > self.cycles {
                break;
            }
            self.prefetch_q.pop_front();
            let evicted = self.l2.install_line(line).evicted;
            // Prefetch fills are bus transactions but not demand-allocated
            // lines: L2_LINES_IN keeps its demand-miss semantics, so the
            // Table 4.2 formulae see prefetch-hidden lines as L2 hits —
            // exactly how System B's low L2 data miss rate shows up in §5.2.1.
            self.bump(Event::BusTranMem, 1);
            self.bump(Event::BusTranAny, 1);
            self.bump(Event::BusTranBurst, 1);
            self.handle_l2_eviction(evicted, false);
        }
    }

    // ------------------------------------------------------------------
    // Branches
    // ------------------------------------------------------------------

    /// Executes a data-dependent branch through the full BTB + two-level
    /// adaptive predictor. Mispredictions charge the 17-cycle penalty
    /// (Table 4.2).
    pub fn branch(&mut self, site: BranchSite, taken: bool) {
        self.bump(Event::BrInstRetired, 1);
        self.bump(Event::BrInstDecoded, 1);
        if taken {
            self.bump(Event::BrTakenRetired, 1);
        }
        let out = self.branch_unit.execute(site.addr, taken, site.backward);
        if !out.btb_hit {
            self.bump(Event::BtbMisses, 1);
        }
        if out.mispredicted {
            self.bump(Event::BrMissPredRetired, 1);
            self.bump(Event::SimDataBranchMiss, 1);
            if taken {
                self.bump(Event::BrMissPredTakenRet, 1);
            }
            self.bump(Event::Baclears, 1);
            self.charge(Component::Tb, self.cfg.pipe.mispredict_penalty as f64);
        }
    }

    /// Executes `lanes` conditional-select operations (cmov-style): the
    /// branch-free alternative to running a data-dependent branch per row.
    ///
    /// Where [`Cpu::branch`] routes each qualify decision through the BTB +
    /// two-level predictor and charges the 17-cycle penalty on every
    /// misprediction, a predicated executor computes the qualify bit
    /// arithmetically and *selects* the outcome — no branch instruction, no
    /// BTB entry, no possible misprediction. The price is paid up front and
    /// unconditionally: each lane retires [`SELECT_X86_PER_LANE`] extra x86
    /// instructions ([`SELECT_UOPS_PER_LANE`] µops, counted in
    /// [`Event::SimSelectOps`]), occupies the pipeline for
    /// [`SELECT_TC_PER_LANE`] cycles of useful work, and — because a
    /// conditional move joins both of its inputs into the dependent chain
    /// where a predicted branch would have cut it — adds
    /// [`SELECT_TDEP_PER_LANE`] cycles of dependency stall.
    ///
    /// This is the batch executor's fast lane: one call covers a whole
    /// vector of rows (the select loop's surrounding code is charged
    /// separately by the caller's `CodeBlock`s, exactly like the
    /// [`Cpu::load_run`] split between code blocks and data traffic). Row
    /// engines call it with `lanes == 1` per tuple.
    pub fn select_run(&mut self, lanes: u32) {
        if lanes == 0 {
            return;
        }
        let lanes_f = lanes as f64;
        self.bump(Event::SimSelectOps, lanes as u64);
        self.bump(Event::InstRetired, SELECT_X86_PER_LANE * lanes as u64);
        self.bump(Event::InstDecoded, SELECT_X86_PER_LANE * lanes as u64);
        self.bump(Event::UopsRetired, SELECT_UOPS_PER_LANE * lanes as u64);
        self.charge(Component::Tc, SELECT_TC_PER_LANE * lanes_f);
        self.charge(Component::Tdep, SELECT_TDEP_PER_LANE * lanes_f);
        self.bump_frac(Event::PartialRatStalls, SELECT_TDEP_PER_LANE * lanes_f);
    }

    // ------------------------------------------------------------------
    // Blocks
    // ------------------------------------------------------------------

    /// Executes one invocation of an instrumented code block: instruction
    /// fetch over its path, pipeline cost, implicit private-data references
    /// and bulk-modelled structural branches.
    ///
    /// What a call fetches and probes rotates from call to call; the core
    /// keeps that rotation per `block.base` ([`Cpu::rotation`]), so any
    /// number of cores may share a block, and blocks at one `base` are one
    /// block to a core.
    ///
    /// # Panics
    /// On the first call of a block after 128 others since the core was cold.
    pub fn exec_block(&mut self, block: &CodeBlock) {
        self.exec_block_scaled_inner(block, 1, true);
    }

    /// Executes `times` back-to-back invocations of a block (e.g. a
    /// field-extraction loop running once per column). The code is fetched
    /// once — consecutive iterations stay I-cache resident — while pipeline
    /// cost, retirement counts, data references and branches scale with
    /// `times`.
    pub fn exec_block_scaled(&mut self, block: &CodeBlock, times: u32) {
        if times > 0 {
            self.exec_block_scaled_inner(block, times, true);
        }
    }

    fn exec_block_scaled_inner(&mut self, block: &CodeBlock, times: u32, allow_interrupt: bool) {
        let run_lines = block.seq_run_lines(self.cfg.l1i.line_bytes);
        // Successive invocations take different branches through the
        // function, so the fetched window shifts within the function's
        // extent (functions are laid out with ~1.5x their hot-path size).
        // This makes a block's effective footprint larger than one path and
        // produces the partial L1I miss rates real engines show, instead of
        // all-or-nothing residency.
        let slot = self.rotations.find(block.base).unwrap_or_else(|| {
            panic!("a core runs at most {ROTATION_SLOTS} code blocks (distinct `base`s)")
        });
        self.rotations.0[slot].0 = block.base;
        let mut rot = self.rotations.0[slot].1;
        let phase = (rot % 5) as u64;
        rot = rot.wrapping_add(1);
        let offset = phase * (block.path_bytes as u64 / 8);
        self.ifetch(block.base + offset, block.path_bytes, run_lines);

        let times_f = times as f64;
        let cost = block_cost(&self.cfg.pipe, block);
        self.charge(Component::Tc, cost.tc * times_f);
        if cost.tdep > 0.0 {
            self.charge(Component::Tdep, cost.tdep * times_f);
            self.bump_frac(Event::PartialRatStalls, cost.tdep * times_f);
        }
        if cost.tfu > 0.0 {
            self.charge(Component::Tfu, cost.tfu * times_f);
            self.bump_frac(Event::ResourceStalls, cost.tfu * times_f);
        }
        if cost.tild > 0.0 {
            self.charge(Component::Tild, cost.tild * times_f);
            self.bump_frac(Event::IldStall, cost.tild * times_f);
        }
        self.bump(Event::InstRetired, block.x86_instrs as u64 * times as u64);
        self.bump(Event::InstDecoded, block.x86_instrs as u64 * times as u64);
        self.bump(Event::UopsRetired, block.uops as u64 * times as u64);

        // Implicit private-data references: counted in bulk, cache behaviour
        // sampled with a few rotating representative probes over the block's
        // private working set (each `data_access` below counts one reference,
        // the rest are pre-counted so the total equals `mem_refs × times`).
        let mem_refs = block.mem_refs as u64 * times as u64;
        if mem_refs > 0 {
            let probes = (block.mem_refs / 8).clamp(1, 4).min(block.mem_refs) as u64;
            let probes = probes.min(mem_refs);
            self.bump(Event::DataMemRefs, mem_refs - probes);
            for _ in 0..probes {
                let r = rot as u64;
                rot = rot.wrapping_add(1);
                let off = modulo(
                    r.wrapping_mul(197) << self.line_shift,
                    block.private_bytes as u64,
                );
                self.data_access(block.private_base + off, 4, MemDep::Demand, false);
            }
        }

        // Structural branches, bulk-modelled: BTB occupancy is simulated with
        // rotating representative sites; direction accuracy is the declared
        // bias (dynamic) or the static rule's accuracy (on BTB miss). A
        // scaled execution is a loop running `times` back-to-back
        // iterations, and the prediction hardware trains within it:
        //
        // * a site that misses the BTB pays the static rule only for its
        //   first iteration — the taken execution allocates the entry,
        //   exactly what `BranchUnit::probe` has just simulated — and runs
        //   under the dynamic predictor for the remaining `times - 1`;
        // * the dynamic accuracy of those warm iterations is at least
        //   [`LOOP_TRAINED_BIAS`]: inside one tight run the loop's few
        //   branches see a stationary pattern the two-level predictor locks
        //   onto (a trained back-edge mispredicts about once, at loop
        //   exit), whereas the *declared* bias describes the block invoked
        //   once among other code, histories polluted.
        //
        // With `times == 1` both refinements vanish and this degenerates to
        // the single-invocation model.
        if block.dyn_branches > 0 {
            let dynamic = block.dyn_branches as u64 * times as u64;
            self.bump(Event::BrInstRetired, dynamic);
            self.bump(Event::BrInstDecoded, dynamic);
            self.bump_frac(Event::BrTakenRetired, dynamic as f64 * block.taken_frac);
            let sites = block.branch_sites.max(1) as u32;
            let probes = sites.min(4);
            let weight = dynamic as f64 / probes as f64;
            let spacing = (block.path_bytes / (sites + 1)).max(4) as u64;
            let penalty = self.cfg.pipe.mispredict_penalty as f64;
            let warm_bias = if times > 1 {
                block.dyn_bias.max(LOOP_TRAINED_BIAS)
            } else {
                block.dyn_bias
            };
            for _ in 0..probes {
                let idx = (rot % sites) as u64;
                rot = rot.wrapping_add(1);
                let addr = block.base + 2 + idx * spacing;
                let hit = self.branch_unit.probe(addr, block.taken_frac >= 0.5);
                let (cold, warm) = if hit {
                    (0.0, weight)
                } else {
                    let cold = weight / times_f;
                    (cold, weight - cold)
                };
                if cold > 0.0 {
                    self.bump_frac(Event::BtbMisses, cold);
                }
                let mispred = cold * (1.0 - block.static_acc) + warm * (1.0 - warm_bias);
                if mispred > 0.0 {
                    self.bump_frac(Event::BrMissPredRetired, mispred);
                    self.bump_frac(Event::BrMissPredTakenRet, mispred * block.taken_frac);
                    self.charge(Component::Tb, mispred * penalty);
                }
            }
        }

        // Written back before an interrupt runs the kernel block, which may
        // claim a slot of its own.
        self.rotations.0[slot].1 = rot;
        if allow_interrupt {
            self.maybe_interrupt();
        }
    }

    // ------------------------------------------------------------------
    // OS interrupt model
    // ------------------------------------------------------------------

    fn maybe_interrupt(&mut self) {
        if self.cfg.interrupts.period_cycles == 0 {
            return;
        }
        while self.cycles >= self.next_interrupt {
            self.next_interrupt += self.cfg.interrupts.period_cycles as f64;
            self.bump(Event::HwIntRx, 1);
            let prev = self.mode;
            self.mode = Mode::Sup;
            self.bump(Event::SimKernelEntries, 1);
            let block = self.kernel_block.take().expect("kernel block configured");
            self.exec_block_scaled_inner(&block, 1, false);
            self.kernel_block = Some(block);
            self.mode = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterruptCfg;

    fn quiet_cpu() -> Cpu {
        Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()))
    }

    fn block(path_bytes: u32) -> CodeBlock {
        CodeBlock::builder("t", path_bytes)
            .private(segment::PRIVATE, 2048)
            .at(segment::CODE)
    }

    /// The simulated core must be freely movable across OS threads (the
    /// morsel executor ships each shard's `Cpu` with its task) — a
    /// compile-time lock against reintroducing `Rc`/`Cell`/`thread_local!`
    /// state into the simulator.
    #[test]
    fn cpu_and_snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cpu>();
        assert_send_sync::<CpuConfig>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<CodeBlock>();
    }

    /// `ifetch` — the two passes, the stop-at-each-miss walk of the
    /// ablations, batched stall charges, known-miss lane — against the
    /// per-line walk it replaced, which charges one miss at a time: after
    /// every step of a random mix of block executions (64 B to 200 KB, at
    /// overlapping unaligned bases, with fetch runs from none to the whole
    /// path) and data traffic, both processors must show the same counters,
    /// ledger and cycle clock — exact `f64` equality — and the same L1I/L2
    /// statistics and contents: every set's lines in LRU order, with dirty
    /// bits, since a wrong stamp shows only as order until a later eviction
    /// exposes it. Four sizes sit on the lane's threshold (a fetch of more
    /// than 1 024 lines here): 1 023 to 1 026 lines' worth of bytes, which
    /// span that many lines or one more as base and fetch phase fall, so the
    /// lane is refused by one line and by two, and taken with a middle of
    /// one, two and three lines.
    #[test]
    fn ifetch_matches_the_per_line_reference_walk() {
        const SIZES: [u32; 12] = [
            64,
            300,
            2800,
            12 << 10,
            1023 * 32,
            1024 * 32,
            1025 * 32,
            1026 * 32,
            48 << 10,
            100_000,
            190_000,
            200 << 10,
        ];
        const DYN_BRANCHES: [u16; 5] = [0, 1, 4, 25, 400];
        let interrupts_on = InterruptCfg {
            period_cycles: 9_000,
            kernel_code_bytes: 12 * 1024,
            kernel_data_bytes: 2048,
        };
        for corner in 0..8u32 {
            let (stream, inclusive, interrupts) =
                (corner & 1 != 0, corner & 2 != 0, corner & 4 != 0);
            let mut cfg = CpuConfig::pentium_ii_xeon()
                .with_inclusive_l2(inclusive)
                .with_interrupts(if interrupts {
                    interrupts_on
                } else {
                    InterruptCfg::disabled()
                });
            cfg.pipe.ifetch_stream_buffer = stream;
            if inclusive {
                // Small enough that code and data keep evicting each other.
                cfg = cfg.with_l2_size(128 * 1024);
            }
            let mut rng =
                proptest::TestRng::from_name("ifetch_matches_the_per_line_reference_walk");
            let mut pick = |n: u64| rng.next_u64() % n;
            // Every size twice, each at its own base.
            let blocks: Vec<CodeBlock> = (0..24)
                .map(|i| {
                    CodeBlock::builder("t", SIZES[i % 12])
                        .private(segment::PRIVATE, 2048)
                        .branches(3, DYN_BRANCHES[pick(5) as usize])
                        .at(segment::CODE + pick(64) * 1000)
                })
                .collect();
            let mut cpu = Cpu::new(cfg.clone());
            let mut reference = Cpu::new(cfg);
            reference.per_line_ifetch = true;
            for step in 0..300 {
                let (op, which, addr, len) = (
                    pick(8),
                    pick(24) as usize,
                    segment::HEAP + pick(1 << 20),
                    1 + pick(200) as u32,
                );
                for cpu in [&mut cpu, &mut reference] {
                    match op {
                        0..=3 => cpu.exec_block(&blocks[which]),
                        4 => cpu.exec_block_scaled(&blocks[which], len % 5),
                        5 => cpu.load(addr, len, MemDep::Demand),
                        6 => cpu.store(addr, len, MemDep::Chase),
                        _ => cpu.prefetch_data(addr),
                    }
                }
                let at = format!("corner {corner}, step {step}, op {op}");
                assert_eq!(cpu.snapshot(), reference.snapshot(), "{at}");
                assert_eq!(cpu.cycles_by_mode, reference.cycles_by_mode, "{at}");
                for (got, want) in [(cpu.l1i(), reference.l1i()), (cpu.l2(), reference.l2())] {
                    assert_eq!(
                        (got.accesses(), got.misses(), got.writebacks()),
                        (want.accesses(), want.misses(), want.writebacks()),
                        "{at}"
                    );
                    assert!(got.contents() == want.contents(), "{at}: contents differ");
                }
            }
            assert!(cpu.l1i().misses() > 10_000, "corner {corner} barely missed");
            if stream {
                assert!(cpu.counters().total(Event::SimStreamBufHit) > 0);
            }
            // The long blocks here all have fetch runs of two lines or more,
            // so a stream-buffer corner streams on every long fetch.
            if stream || inclusive {
                assert_eq!(cpu.known_miss_runs, 0, "corner {corner} took the lane");
            } else {
                assert!(
                    cpu.known_miss_runs > 20,
                    "corner {corner} never took the lane"
                );
            }
        }
    }

    fn accumulator() -> (
        std::ops::Range<usize>,
        std::ops::Range<u64>,
        proptest::strategy::Any<u64>,
    ) {
        (0..7, 0..80_000, proptest::any::<u64>())
    }

    /// A starting value within 5 000 of an edge of [`add_repeated`]'s guard:
    /// a whole number, a number of eighths, or one with all 52 fraction bits
    /// random (so that sums round, and land on ties), a third of the time
    /// each.
    fn starting_at((edge, eighths, bits): (usize, u64, u64)) -> f64 {
        const EDGES: [f64; 7] = [
            0.0,
            1024.0,
            1e6,
            (1u64 << 32) as f64,
            (1u64 << 50) as f64,
            (1u64 << 52) as f64,
            (1u64 << 53) as f64,
        ];
        let near = (EDGES[edge] + (eighths as f64 - 40_000.0) / 8.0).max(0.0);
        match bits % 3 {
            0 => near.floor(),
            1 => near,
            _ => near + (bits >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The batched fetch-stall charge against the calls it stands for, on
        /// two processors started alike: in either mode, from clocks and
        /// ledger totals on both sides of every bound the guard names (a
        /// supervisor-mode total of a few cycles, whole and fractional
        /// values just below 2^10, 2^32, 2^50 and 2^53), for whole and
        /// fractional amounts, everything observable must be equal — `==`
        /// on `f64`, not a tolerance.
        #[test]
        fn batched_fetch_stalls_equal_the_repeated_charge(
            supervisor in proptest::any::<bool>(),
            clock in accumulator(),
            mode_clock in accumulator(),
            ledger in accumulator(),
            residues in (0u64..1 << 20, 0u64..1 << 20),
            amount in 0usize..9,
            k in 1u64..=6000,
        ) {
            const AMOUNTS: [f64; 9] = [4.0, 1.0, 62.0, 3.0, 4096.0, 0.0, 0.5, 4.25, 17.3];
            let (mut batched, mut repeated) = (quiet_cpu(), quiet_cpu());
            for cpu in [&mut batched, &mut repeated] {
                cpu.mode = if supervisor { Mode::Sup } else { Mode::User };
                cpu.cycles = starting_at(clock);
                cpu.cycles_by_mode[cpu.mode as usize] = starting_at(mode_clock);
                cpu.ledger.charge(cpu.mode, Component::Tl1i, starting_at(ledger));
                let residue = &mut cpu.residue[cpu.mode as usize];
                residue[Event::CpuClkUnhalted as usize] = residues.0 as f64 / (1u64 << 20) as f64;
                residue[Event::IfuMemStall as usize] = residues.1 as f64 / (1u64 << 20) as f64;
            }
            batched.charge_ifu_repeated(Component::Tl1i, AMOUNTS[amount], k);
            for _ in 0..k {
                repeated.charge_ifu(Component::Tl1i, AMOUNTS[amount]);
            }
            proptest::prop_assert_eq!(batched.snapshot(), repeated.snapshot());
            proptest::prop_assert_eq!(batched.cycles_by_mode, repeated.cycles_by_mode);
            proptest::prop_assert_eq!(batched.residue, repeated.residue);
        }
    }

    #[test]
    fn ledger_total_equals_cycle_counter() {
        let mut cpu = quiet_cpu();
        let b = block(900);
        for _ in 0..100 {
            cpu.exec_block(&b);
            cpu.load(segment::HEAP + 128, 4, MemDep::Demand);
            cpu.branch(
                BranchSite {
                    addr: segment::CODE + 10,
                    backward: false,
                },
                true,
            );
        }
        assert!(
            (cpu.ledger().grand_total() - cpu.cycles()).abs() < 1e-6,
            "every cycle must be charged to exactly one component"
        );
    }

    #[test]
    fn repeated_block_becomes_l1i_resident() {
        let mut cpu = quiet_cpu();
        let b = block(4096); // extent fits comfortably in 16 KB L1I
                             // Warm all fetch phases of the block.
        for _ in 0..8 {
            cpu.exec_block(&b);
        }
        let snap = cpu.snapshot();
        cpu.exec_block(&b);
        let d = cpu.snapshot().delta(&snap);
        assert_eq!(
            d.counters.total(Event::IfuIfetchMiss),
            0,
            "warm code must hit L1I"
        );
        assert_eq!(d.ledger.total(Component::Tl1i), 0.0);
    }

    #[test]
    fn code_larger_than_l1i_keeps_missing() {
        let mut cpu = quiet_cpu();
        let b = block(48 * 1024); // 3x the 16 KB L1I
                                  // Warm every fetch phase so the whole 72 KB extent is L2-resident.
        for _ in 0..8 {
            cpu.exec_block(&b);
        }
        let snap = cpu.snapshot();
        cpu.exec_block(&b);
        let d = cpu.snapshot().delta(&snap);
        assert!(
            d.counters.total(Event::IfuIfetchMiss) > 1000,
            "a 48 KB path cannot fit the 16 KB L1I"
        );
        // But it fits in the 512 KB L2, so these are L1I (not L2I) stalls.
        assert_eq!(d.counters.total(Event::SimL2IfetchMiss), 0);
        assert!(d.ledger.total(Component::Tl1i) > 0.0);
    }

    #[test]
    fn sequential_data_misses_once_per_line() {
        let mut cpu = quiet_cpu();
        // 256 4-byte loads over 1 KB = 32 lines.
        for i in 0..256u64 {
            cpu.load(segment::HEAP + i * 4, 4, MemDep::Demand);
        }
        let c = cpu.counters();
        assert_eq!(c.total(Event::DataMemRefs), 256);
        assert_eq!(c.total(Event::DcuLinesIn), 32);
        assert_eq!(c.total(Event::SimL2DataMiss), 32);
    }

    #[test]
    fn load_run_matches_per_record_loads_on_misses_and_stalls() {
        // A 64 KB span read as 100-byte records vs. as contiguous runs: the
        // line sequence is identical, so cache misses and memory stall
        // cycles must agree exactly; only access-granularity counters
        // (DATA_MEM_REFS) are amortized.
        let mut row = quiet_cpu();
        let mut run = quiet_cpu();
        for rep in 0..2 {
            for rec in 0..655u64 {
                row.load(segment::HEAP + rec * 100, 100, MemDep::Demand);
            }
            run.load_run(segment::HEAP, 65500, MemDep::Demand);
            if rep == 0 {
                // Also exercise the warm (all-hit) fast path on pass 2.
                row.reset_stats();
                run.reset_stats();
            }
        }
        let (cr, cu) = (row.counters(), run.counters());
        assert_eq!(cu.total(Event::DcuLinesIn), cr.total(Event::DcuLinesIn));
        assert_eq!(
            cu.total(Event::SimL2DataMiss),
            cr.total(Event::SimL2DataMiss)
        );
        assert_eq!(cu.total(Event::SimDtlbMiss), cr.total(Event::SimDtlbMiss));
        assert!(
            (run.ledger().total(Component::Tl2d) - row.ledger().total(Component::Tl2d)).abs()
                < 1e-6
        );
        assert!(
            (run.ledger().total(Component::Tl1d) - row.ledger().total(Component::Tl1d)).abs()
                < 1e-6
        );
        assert_eq!(
            cu.total(Event::DataMemRefs),
            1,
            "one bookkeeping ref per run"
        );
        assert_eq!(cr.total(Event::DataMemRefs), 655);
    }

    #[test]
    fn store_run_matches_per_record_stores_on_misses_and_stalls() {
        // The write twin of the load_run parity test: a 64 KB span written
        // as 8-byte appends vs. as contiguous runs must allocate the same
        // lines, mark the same dirty state and charge the same stall cycles.
        let mut row = quiet_cpu();
        let mut run = quiet_cpu();
        for rep in 0..2 {
            for rec in 0..8192u64 {
                row.store(segment::HEAP + rec * 8, 8, MemDep::Demand);
            }
            run.store_run(segment::HEAP, 8192 * 8, MemDep::Demand);
            if rep == 0 {
                row.reset_stats();
                run.reset_stats();
            }
        }
        let (cr, cu) = (row.counters(), run.counters());
        assert_eq!(cu.total(Event::DcuLinesIn), cr.total(Event::DcuLinesIn));
        assert_eq!(cu.total(Event::DcuMLinesIn), cr.total(Event::DcuMLinesIn));
        assert_eq!(
            cu.total(Event::SimL2DataMiss),
            cr.total(Event::SimL2DataMiss)
        );
        assert_eq!(cu.total(Event::BusTranRfo), cr.total(Event::BusTranRfo));
        assert!(
            (run.ledger().total(Component::Tl2d) - row.ledger().total(Component::Tl2d)).abs()
                < 1e-6
        );
        assert_eq!(cu.total(Event::DataMemRefs), 1);
        assert_eq!(cr.total(Event::DataMemRefs), 8192);
    }

    #[test]
    fn chase_misses_cost_more_than_demand_misses() {
        let mut a = quiet_cpu();
        let mut b = quiet_cpu();
        for i in 0..64u64 {
            a.load(segment::HEAP + i * 64, 4, MemDep::Demand);
            b.load(segment::HEAP + i * 64, 4, MemDep::Chase);
        }
        let ta = a.ledger().total(Component::Tl2d);
        let tb = b.ledger().total(Component::Tl2d);
        assert!(
            tb > ta,
            "pointer chasing exposes full latency: {tb} <= {ta}"
        );
    }

    #[test]
    fn timely_prefetch_converts_misses_to_l2_hits() {
        let mut cpu = quiet_cpu();
        let addr = segment::HEAP + 4096;
        cpu.prefetch_data(addr);
        // Burn enough cycles for the prefetch to complete.
        let b = block(512);
        for _ in 0..20 {
            cpu.exec_block(&b);
        }
        let snap = cpu.snapshot();
        cpu.load(addr, 4, MemDep::Demand);
        let d = cpu.snapshot().delta(&snap);
        assert_eq!(
            d.counters.total(Event::SimL2DataMiss),
            0,
            "prefetched line is an L2 hit"
        );
        assert!(d.ledger.total(Component::Tl2d) == 0.0);
        assert!(
            d.ledger.total(Component::Tl1d) > 0.0,
            "still an L1 miss that hit L2"
        );
    }

    #[test]
    fn late_prefetch_charges_partial_latency() {
        let mut cpu = quiet_cpu();
        let addr = segment::HEAP + 8192;
        cpu.prefetch_data(addr);
        let snap = cpu.snapshot();
        cpu.load(addr, 4, MemDep::Demand); // immediately: prefetch still in flight
        let d = cpu.snapshot().delta(&snap);
        assert_eq!(d.counters.total(Event::SimPrefetchLate), 1);
        let charged = d.ledger.total(Component::Tl2d);
        let full = CpuConfig::pentium_ii_xeon().pipe.mem_latency as f64;
        assert!(charged > 0.0 && charged <= full + 4.0);
    }

    #[test]
    fn select_run_charges_compute_not_branch_stalls() {
        let mut cpu = quiet_cpu();
        let snap = cpu.snapshot();
        cpu.select_run(1000);
        let d = cpu.snapshot().delta(&snap);
        assert_eq!(d.counters.total(Event::SimSelectOps), 1000);
        assert_eq!(
            d.counters.total(Event::InstRetired),
            SELECT_X86_PER_LANE * 1000
        );
        assert_eq!(d.counters.total(Event::BrInstRetired), 0, "no branches");
        assert_eq!(d.ledger.total(Component::Tb), 0.0, "no mispredict stalls");
        assert!((d.ledger.total(Component::Tc) - SELECT_TC_PER_LANE * 1000.0).abs() < 1e-9);
        assert!((d.ledger.total(Component::Tdep) - SELECT_TDEP_PER_LANE * 1000.0).abs() < 1e-9);
        assert!((d.ledger.grand_total() - d.cycles).abs() < 1e-6);
    }

    #[test]
    fn merge_cores_sums_work_and_takes_max_wall() {
        // Two cores doing different amounts of the same kind of work: the
        // merged total must equal the sum, the wall clock the slower core.
        let mut fast = quiet_cpu();
        let mut slow = quiet_cpu();
        let b = block(900);
        for _ in 0..10 {
            fast.exec_block(&b);
            fast.load(segment::HEAP + 64, 4, MemDep::Demand);
        }
        for _ in 0..30 {
            slow.exec_block(&b);
            slow.load(segment::HEAP + 4096, 4, MemDep::Demand);
        }
        let deltas = [fast.snapshot(), slow.snapshot()];
        let m = merge_cores(&deltas);
        assert_eq!(m.cores, 2);
        assert!((m.total.cycles - (fast.cycles() + slow.cycles())).abs() < 1e-9);
        assert_eq!(m.wall_cycles, slow.cycles().max(fast.cycles()));
        assert_eq!(
            m.total.counters.total(Event::InstRetired),
            fast.counters().total(Event::InstRetired) + slow.counters().total(Event::InstRetired)
        );
        assert!(
            (m.total.ledger.grand_total() - m.total.cycles).abs() < 1e-6,
            "merged ledger must still account for every merged cycle"
        );
        // Merging is deterministic: same inputs, bit-identical result.
        assert_eq!(m, merge_cores(&deltas));
    }

    #[test]
    fn data_branch_misses_are_counted_separately() {
        let mut cpu = quiet_cpu();
        let site = BranchSite {
            addr: segment::CODE + 40,
            backward: false,
        };
        // Forward branch, first execution taken: static predicts not-taken.
        cpu.branch(site, true);
        assert_eq!(cpu.counters().total(Event::SimDataBranchMiss), 1);
        // select_run never touches the data-branch counter.
        cpu.select_run(64);
        assert_eq!(cpu.counters().total(Event::SimDataBranchMiss), 1);
    }

    #[test]
    fn mispredicted_branch_charges_17_cycles() {
        let mut cpu = quiet_cpu();
        let site = BranchSite {
            addr: segment::CODE + 100,
            backward: false,
        };
        // Train taken... static predicts not-taken for forward: first taken
        // execution mispredicts.
        let snap = cpu.snapshot();
        cpu.branch(site, true);
        let d = cpu.snapshot().delta(&snap);
        assert_eq!(d.counters.total(Event::BrMissPredRetired), 1);
        assert_eq!(d.ledger.total(Component::Tb), 17.0);
    }

    #[test]
    fn interrupts_run_in_supervisor_mode_and_pollute_l1i() {
        let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg {
            period_cycles: 5_000,
            kernel_code_bytes: 12 * 1024,
            kernel_data_bytes: 2048,
        });
        let mut cpu = Cpu::new(cfg);
        let b = block(8 * 1024);
        for _ in 0..200 {
            cpu.exec_block(&b);
        }
        assert!(cpu.counters().total(Event::HwIntRx) > 10);
        assert!(cpu.cycles_in_mode(Mode::Sup) > 0.0);
        assert!(
            cpu.counters().get(Mode::Sup, Event::InstRetired) > 0,
            "kernel instructions are counted in supervisor mode"
        );
        // User-mode L1I misses persist at steady state because the kernel
        // footprint keeps evicting the loop's code (§5.2.2 hypothesis).
        let snap = cpu.snapshot();
        for _ in 0..200 {
            cpu.exec_block(&b);
        }
        let d = cpu.snapshot().delta(&snap);
        assert!(
            d.counters.get(Mode::User, Event::IfuIfetchMiss) > 0,
            "kernel pollution must cause steady-state user L1I misses"
        );
    }

    #[test]
    fn no_interrupts_means_pure_user_mode() {
        let mut cpu = quiet_cpu();
        let b = block(2048);
        for _ in 0..100 {
            cpu.exec_block(&b);
        }
        assert_eq!(cpu.cycles_in_mode(Mode::Sup), 0.0);
        assert_eq!(cpu.counters().total(Event::HwIntRx), 0);
    }

    #[test]
    fn reset_stats_keeps_caches_warm() {
        let mut cpu = quiet_cpu();
        let b = block(4096);
        for _ in 0..8 {
            cpu.exec_block(&b); // warm every fetch phase
        }
        cpu.reset_stats();
        assert_eq!(cpu.cycles(), 0.0);
        cpu.exec_block(&b);
        assert_eq!(
            cpu.counters().total(Event::IfuIfetchMiss),
            0,
            "caches stayed warm"
        );
    }

    /// A mixed stream (code, data, prefetches, data-dependent branches)
    /// long enough to take interrupts and wrap the L1s.
    fn mixed_stream(cpu: &mut Cpu, blocks: &[CodeBlock], salt: u64) {
        for i in 0..3_000u64 {
            let x = (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            cpu.exec_block(&blocks[(x >> 60) as usize % blocks.len()]);
            let addr = segment::HEAP + (x >> 20) % (2 << 20);
            cpu.load(addr, 8, MemDep::Demand);
            cpu.store(addr ^ 0x40, 4, MemDep::Chase);
            cpu.prefetch_data(addr + 4096);
            let site = BranchSite {
                addr: segment::CODE + 0x100 + (x >> 50) * 2,
                backward: i % 3 == 0,
            };
            cpu.branch(site, x & 4 != 0);
        }
    }

    #[test]
    fn reset_cold_is_indistinguishable_from_a_new_processor() {
        let timer = InterruptCfg {
            period_cycles: 9_000,
            kernel_code_bytes: 12 * 1024,
            kernel_data_bytes: 2048,
        };
        for interrupts in [InterruptCfg::disabled(), timer] {
            let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(interrupts);
            let blocks = [300, 20 << 10, 100_000].map(|bytes| {
                CodeBlock::builder("t", bytes)
                    .private(segment::PRIVATE, 2048)
                    .at(segment::CODE + 2 * bytes as u64)
            });
            let mut fresh = Cpu::new(cfg.clone());
            mixed_stream(&mut fresh, &blocks, 7);

            let mut reused = Cpu::new(cfg);
            mixed_stream(&mut reused, &blocks, 99);
            assert_ne!(reused.snapshot(), Cpu::new(reused.cfg.clone()).snapshot());
            reused.reset_cold();
            assert_eq!(reused.snapshot(), Cpu::new(reused.cfg.clone()).snapshot());
            mixed_stream(&mut reused, &blocks, 7);

            assert_eq!(reused.snapshot(), fresh.snapshot());
            assert_eq!(reused.cycles_by_mode, fresh.cycles_by_mode);
            assert_eq!(reused.next_interrupt, fresh.next_interrupt);
            for (got, want) in [
                (reused.l1i(), fresh.l1i()),
                (reused.l1d(), fresh.l1d()),
                (reused.l2(), fresh.l2()),
            ] {
                assert_eq!(
                    (got.accesses(), got.misses(), got.writebacks()),
                    (want.accesses(), want.misses(), want.writebacks())
                );
            }
        }
    }

    /// The rotation is the core's: one step per fetch phase and per probe,
    /// kept per `base`, warm across `reset_stats`, gone after `reset_cold`,
    /// and a block shared by two cores never sees the other core's calls.
    #[test]
    fn each_core_keeps_its_own_rotation_per_block() {
        let a = block(300);
        let b = CodeBlock::builder("u", 300)
            .private(segment::PRIVATE, 2048)
            .at(segment::CODE + 4096);
        let mut cpu = quiet_cpu();
        cpu.exec_block(&a);
        cpu.exec_block(&a);
        // One fetch phase, four private-data and four branch probes a call.
        assert_eq!(cpu.rotation(&a), 18);
        assert_eq!(cpu.rotation(&b), 0, "another base");
        assert_eq!(quiet_cpu().rotation(&a), 0, "another core");
        let alias = CodeBlock {
            name: "alias",
            ..a.clone()
        };
        assert_eq!(cpu.rotation(&alias), 18, "a base is a block");
        cpu.reset_stats();
        assert_eq!(cpu.rotation(&a), 18);
        cpu.reset_cold();
        assert_eq!(cpu.rotation(&a), 0);

        let mut alone = quiet_cpu();
        let (mut x, mut y) = (quiet_cpu(), quiet_cpu());
        for _ in 0..50 {
            alone.exec_block(&a);
            x.exec_block(&a);
            y.exec_block(&a);
            y.exec_block(&b);
        }
        assert_eq!(x.snapshot(), alone.snapshot());
    }

    #[test]
    #[should_panic(expected = "at most 128 code blocks")]
    fn a_core_refuses_one_block_more_than_its_table_holds() {
        let mut cpu = quiet_cpu();
        for i in 0..ROTATION_SLOTS as u64 {
            cpu.exec_block(&CodeBlock::builder("t", 64).at(segment::CODE + i * 64));
        }
        // A full table still finds every block it holds.
        let first = CodeBlock::builder("t", 64).at(segment::CODE);
        cpu.exec_block(&first);
        assert_eq!(cpu.rotation(&first), 8, "two calls of four steps");
        cpu.exec_block(&CodeBlock::builder("t", 64).at(segment::MISC));
    }

    #[test]
    fn inclusive_l2_back_invalidates_l1() {
        // Force inclusion with a tiny L2 so evictions are frequent, then
        // check L1D lines disappear when their L2 lines are replaced.
        let mut cfg = CpuConfig::pentium_ii_xeon()
            .with_interrupts(InterruptCfg::disabled())
            .with_inclusive_l2(true);
        cfg.l2.size_bytes = 4 * 1024; // smaller than L1s, extreme inclusion pressure
        let mut cpu = Cpu::new(cfg);
        for i in 0..4096u64 {
            cpu.load(segment::HEAP + i * 32, 4, MemDep::Demand);
        }
        let snap = cpu.snapshot();
        for i in 0..4096u64 {
            cpu.load(segment::HEAP + i * 32, 4, MemDep::Demand);
        }
        let d = cpu.snapshot().delta(&snap);
        // Without inclusion the 16 KB L1D would keep ~512 hot lines; with a
        // 4 KB inclusive L2 nearly everything is invalidated before reuse.
        assert!(d.counters.total(Event::DcuLinesIn) > 3500);
    }

    #[test]
    fn user_and_kernel_counters_are_separated() {
        let cfg = CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg {
            period_cycles: 20_000,
            kernel_code_bytes: 2048,
            kernel_data_bytes: 1024,
        });
        let mut cpu = Cpu::new(cfg);
        let b = block(1024);
        for _ in 0..500 {
            cpu.exec_block(&b);
        }
        let user_instr = cpu.counters().get(Mode::User, Event::InstRetired);
        let sup_instr = cpu.counters().get(Mode::Sup, Event::InstRetired);
        assert!(user_instr > sup_instr, "most work is user mode");
        assert!(sup_instr > 0);
    }
}
