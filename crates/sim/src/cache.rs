//! Set-associative cache model with true LRU replacement.
//!
//! Used for the split L1 caches and the unified L2 (Table 4.1), and — over
//! page numbers — for both TLBs. The model is functional: it tracks which
//! line addresses are resident and reports hit/miss plus any eviction (so an
//! inclusive outer level can back-invalidate inner levels, the ablation of
//! §5.2.2). Timing is charged by the caller.
//!
//! # Accounting rules
//!
//! * A byte address maps to line `addr >> line_shift` and set
//!   `line & (sets - 1)` (the set count is a power of two, checked at
//!   construction); whether two fields share a line is therefore decided
//!   purely by the addresses storage hands out — which is how the NSM/PAX
//!   page-layout comparison works: PAX packs a column's values into
//!   adjacent addresses so a narrow projection occupies fewer lines, and
//!   this model observes that without any layout-specific code.
//! * Demand accesses count in `accesses`/`misses`; [`Cache::install`]
//!   (prefetch fill) and [`Cache::probe`] count in neither, so miss *rates*
//!   are demand-only, like the Pentium II counters the paper reads.
//! * Misses allocate (write-allocate) into the first invalid way, else evict
//!   the true-LRU way; evicting a dirty line counts one writeback
//!   (write-back policy, Table 4.1).
//! * [`Cache::access_run`] (a span, collecting its misses) and
//!   [`Cache::hit_run`] (any sequence of lines, stopping at a miss) are the
//!   multi-line entry points used by batched scans and instruction fetch:
//!   residency, LRU state and statistics end up identical to per-line
//!   [`Cache::access_line`] calls — a property-tested invariant — only the
//!   per-call bookkeeping is amortized.
//!
//! # Storage
//!
//! This module is the simulator's own hot path, so its layout is chosen for
//! the *host's* cache. Each set is one contiguous record — its `assoc` tags
//! followed by one stamp per way — and records start on host cache-line
//! boundaries, so at the paper's 4-way geometry a simulated access reads and
//! writes exactly one 64-byte host line. A way's stamp is the value of a
//! per-cache clock when the way was last used, with the dirty bit in bit 0:
//! a hit is a tag scan plus one store, the LRU way is the valid way with the
//! smallest stamp, and a touch rewrites no other way's state. Every demand
//! access goes through one set lookup, `Cache::touch`, which has a 4-way
//! instance of known record length beside the generic one; every
//! multi-line entry point goes through one loop, `Cache::walk`, which keeps
//! the clock and the statistics in locals for the whole walk and asks its
//! caller after each miss whether to go on — [`Cache::access_run`] collects
//! the misses and never stops, [`Cache::hit_run`] stops at the first. That
//! is what lets [`crate::cpu::Cpu`] fetch in two passes: a whole fetch
//! window through the L1I, then its misses through L2 as one list. One
//! exception reads and writes no set at all: `Cache::miss_run` accounts for
//! a stretch of sequential lines the caller has proved must miss *and* be
//! evicted again before anything can observe them, by advancing `clock`
//! and the statistics alone.
//!
//! Stall *cycles* for misses are charged by the [`crate::cpu::Cpu`] into the
//! [`crate::stalls::StallLedger`]; this module only decides hit or miss.

use std::ops::ControlFlow;

use crate::config::CacheGeom;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Line address (not byte address) evicted to make room, if any.
    /// Only reported for misses in a full set; clean and dirty evictions are
    /// both reported, `dirty_writeback` distinguishes them.
    pub evicted: Option<u64>,
    /// Whether the eviction wrote back a dirty line.
    pub dirty_writeback: bool,
}

const HIT: CacheAccess = CacheAccess {
    hit: true,
    evicted: None,
    dirty_writeback: false,
};

const INVALID: u64 = u64::MAX;

/// Bit 0 of a way's stamp: the line was written since it was filled.
const DIRTY: u64 = 1;

/// `u64` words per host cache line, the boundary set records start on.
const HOST_LINE_WORDS: usize = 8;

/// Aggregate outcome of a contiguous run of line accesses
/// ([`Cache::access_run`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Lines that were already resident.
    pub hits: u64,
    /// Lines that missed (also appended to the caller's miss buffer).
    pub misses: u64,
    /// Dirty lines written back while allocating missed lines.
    pub dirty_writebacks: u64,
}

/// One cache level.
///
/// `words[origin..]` holds one record per set, `2 * assoc` words each: the
/// set's tags (line addresses, `INVALID` when empty), then one stamp per
/// way — `clock` at the way's last use, with `DIRTY` in bit 0. Stamps of
/// valid ways are distinct, so ascending stamp order is LRU-to-MRU order; an
/// empty way's stamp is never compared, because victim selection takes the
/// first invalid way before it looks at a stamp. `origin` skips the few
/// words it takes to put set 0 on a host cache-line boundary.
#[derive(Debug)]
pub struct Cache {
    geom: CacheGeom,
    line_shift: u32,
    assoc: usize,
    set_mask: u64,
    words: Vec<u64>,
    origin: usize,
    /// Next stamp to hand out; advances by 2 so bit 0 stays free for `DIRTY`.
    clock: u64,
    // statistics
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

impl Clone for Cache {
    /// Copies the records into a fresh allocation, which is aligned anew.
    fn clone(&self) -> Self {
        let mut copy = Cache::new(self.geom);
        let n = self.words.len() - (HOST_LINE_WORDS - 1);
        copy.words[copy.origin..][..n].copy_from_slice(&self.words[self.origin..][..n]);
        copy.clock = self.clock;
        copy.accesses = self.accesses;
        copy.misses = self.misses;
        copy.writebacks = self.writebacks;
        copy
    }
}

impl Cache {
    /// Creates an empty (cold) cache with the given geometry.
    ///
    /// # Panics
    /// Panics, naming the geometry, if it is one the model cannot index:
    /// zero associativity, a line size that is not a power of two, or a set
    /// count (`size_bytes / (line_bytes * assoc)`) that is zero or not a
    /// power of two.
    pub fn new(geom: CacheGeom) -> Self {
        assert!(
            geom.assoc > 0 && geom.line_bytes.is_power_of_two(),
            "unmodellable cache geometry {geom:?}: \
             assoc must be at least 1 and line_bytes a power of two"
        );
        let sets = geom.sets();
        assert!(
            sets.is_power_of_two(),
            "unmodellable cache geometry {geom:?}: size_bytes / (line_bytes * assoc) \
             gives {sets} sets, which must be a power of two and at least 1"
        );
        let assoc = geom.assoc as usize;
        let words = vec![INVALID; sets as usize * 2 * assoc + HOST_LINE_WORDS - 1];
        // `align_offset` may decline to answer; records are then merely
        // unaligned, never out of bounds.
        let origin = match words.as_ptr().align_offset(HOST_LINE_WORDS * 8) {
            off if off < HOST_LINE_WORDS => off,
            _ => 0,
        };
        Cache {
            geom,
            line_shift: geom.line_shift(),
            assoc,
            set_mask: sets as u64 - 1,
            words,
            origin,
            clock: 0,
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Geometry this cache was built with.
    pub fn geom(&self) -> &CacheGeom {
        &self.geom
    }

    /// Converts a byte address to a line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Index in `words` of the record of the set `line` maps to.
    #[inline]
    fn record_of(&self, line: u64) -> usize {
        self.origin + (line & self.set_mask) as usize * 2 * self.assoc
    }

    /// Accesses the line containing byte address `addr`.
    ///
    /// On a miss the line is allocated (write-allocate); `write` marks the
    /// line dirty (write-back policy — Table 4.1: L1-D and L2 are write-back).
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        let line = self.line_of(addr);
        self.access_line(line, write)
    }

    /// Same as [`Cache::access`] but takes a pre-computed line address.
    #[inline]
    pub fn access_line(&mut self, line: u64, write: bool) -> CacheAccess {
        let stamp = self.clock | write as u64;
        self.clock += 2;
        self.accesses += 1;
        let Some((evicted, dirty_writeback)) = self.touch(line, stamp) else {
            return HIT;
        };
        self.misses += 1;
        self.writebacks += dirty_writeback as u64;
        CacheAccess {
            hit: false,
            evicted,
            dirty_writeback,
        }
    }

    /// The set lookup of one demand access: re-stamps a resident `line`
    /// with `stamp`, keeping its dirty bit, and returns `None`; else fills
    /// it ([`fill`]) and returns the eviction.
    ///
    /// The paper's geometry is 4-way at every level, so that associativity
    /// gets its own instance of the lookup, in which the record's length is
    /// a constant: walks over 16 KB-plus fetch windows took about 1.4× the
    /// host time per line with the generic instance alone.
    #[inline(always)]
    fn touch(&mut self, line: u64, stamp: u64) -> Option<(Option<u64>, bool)> {
        if self.assoc == 4 {
            self.touch_ways::<4>(line, stamp)
        } else {
            self.touch_ways::<0>(line, stamp)
        }
    }

    /// [`Cache::touch`] at a fixed associativity `WAYS`, or at `self.assoc`
    /// when `WAYS` is 0.
    #[inline(always)]
    fn touch_ways<const WAYS: usize>(
        &mut self,
        line: u64,
        stamp: u64,
    ) -> Option<(Option<u64>, bool)> {
        let assoc = if WAYS == 0 { self.assoc } else { WAYS };
        let record = self.origin + (line & self.set_mask) as usize * 2 * assoc;
        let (tags, stamps) = self.words[record..][..2 * assoc].split_at_mut(assoc);
        match tags.iter().position(|&tag| tag == line) {
            Some(way) => {
                stamps[way] = stamp | (stamps[way] & DIRTY);
                None
            }
            None => Some(fill(tags, stamps, line, stamp)),
        }
    }

    /// Demand-accesses the lines `lines` yields for as long as they hit,
    /// re-stamping each (and marking it dirty on a `write`). At the first
    /// miss the line is allocated and returned with the outcome, and the
    /// walk stops there, so the caller can service the miss — in whatever
    /// order its own accounting needs — before it resumes with the rest of
    /// `lines`; `None` means every line hit. Also returns the hits consumed
    /// before the miss. The callers' sequences ascend: a span of code or
    /// data, or the lines an inner level missed.
    #[inline]
    pub fn hit_run(
        &mut self,
        lines: &mut impl Iterator<Item = u64>,
        write: bool,
    ) -> (u64, Option<(u64, CacheAccess)>) {
        let mut miss = None;
        let accessed = self.walk(lines, write, |line, outcome| {
            miss = Some((line, outcome));
            ControlFlow::Break(())
        });
        (accessed - miss.is_some() as u64, miss)
    }

    /// The one line-walking loop, behind every demand entry point but the
    /// single line: accesses the lines `lines` yields, in order, and after
    /// each miss asks `on_miss` — given the line and the outcome — whether
    /// to go on. Returns the lines accessed. The clock and the statistics
    /// live in locals for the length of the walk.
    #[inline(always)]
    fn walk(
        &mut self,
        lines: &mut impl Iterator<Item = u64>,
        write: bool,
        mut on_miss: impl FnMut(u64, CacheAccess) -> ControlFlow<()>,
    ) -> u64 {
        let mut clock = self.clock;
        let (mut accessed, mut misses, mut writebacks) = (0, 0, 0);
        for line in lines {
            let stamp = clock | write as u64;
            clock += 2;
            accessed += 1;
            let Some((evicted, dirty_writeback)) = self.touch(line, stamp) else {
                continue;
            };
            misses += 1;
            writebacks += dirty_writeback as u64;
            let outcome = CacheAccess {
                hit: false,
                evicted,
                dirty_writeback,
            };
            if on_miss(line, outcome).is_break() {
                break;
            }
        }
        self.clock = clock;
        self.accesses += accessed;
        self.misses += misses;
        self.writebacks += writebacks;
        accessed
    }

    /// Accounts for `lines` demand accesses that all miss, without touching a
    /// set: `clock` and the statistics end up where `lines` calls of
    /// [`Cache::access_line`] would leave them, the sets where they were.
    ///
    /// That equals the real walk only under the caller's proof, which for a
    /// sequential run of reads with no install or invalidation in between
    /// is short. A line at least [`Cache::capacity_lines`] into the
    /// run misses, because the `assoc` earlier lines of the run that share
    /// its set are by then the set's whole content. And a fill at least that
    /// far from the run's end is gone by the end, because `assoc` later
    /// lines of the run miss into its set and each evicts an older stamp
    /// than any of theirs. So for a run longer than twice the capacity, the
    /// lines between the first and the last `capacity_lines()` may be
    /// skipped here and the two ends walked through `access_run`: the last
    /// stretch finds other tags in the ways than the real walk would, but
    /// misses on every line either way and leaves each set holding the same
    /// lines under the same stamps — all that a later access can tell.
    #[inline]
    pub(crate) fn miss_run(&mut self, lines: u64) {
        self.clock += 2 * lines;
        self.accesses += lines;
        self.misses += lines;
    }

    /// Lines the cache holds when full (`sets × assoc`).
    #[inline]
    pub(crate) fn capacity_lines(&self) -> u64 {
        (self.set_mask + 1) * self.assoc as u64
    }

    /// Contiguous-run entry point: accesses `lines` sequential line
    /// addresses starting at `first_line`. Behaviour (residency, LRU state,
    /// statistics, writeback counting) is identical to calling
    /// [`Cache::access_line`] once per line; the saving is bookkeeping, not
    /// semantics. Missed lines are appended to `missed` in access order, and
    /// the walk never stops for them, so an outer level can service them
    /// afterwards as one list.
    pub fn access_run(
        &mut self,
        first_line: u64,
        lines: u64,
        write: bool,
        missed: &mut Vec<u64>,
    ) -> RunStats {
        let (misses, writebacks) = (self.misses, self.writebacks);
        self.walk(&mut (first_line..first_line + lines), write, |line, _| {
            missed.push(line);
            ControlFlow::Continue(())
        });
        let misses = self.misses - misses;
        RunStats {
            hits: lines - misses,
            misses,
            dirty_writebacks: self.writebacks - writebacks,
        }
    }

    /// Returns whether the line containing `addr` is resident, without
    /// updating LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        self.probe_line(self.line_of(addr))
    }

    /// Same as [`Cache::probe`] but takes a pre-computed line address.
    #[inline]
    pub(crate) fn probe_line(&self, line: u64) -> bool {
        self.words[self.record_of(line)..][..self.assoc].contains(&line)
    }

    /// Installs a line without counting an access or a miss (used for
    /// prefetches, which the hardware performs off the demand path).
    /// Returns the evicted line, if any.
    pub fn install(&mut self, addr: u64) -> Option<u64> {
        self.install_line(self.line_of(addr)).evicted
    }

    /// Same as [`Cache::install`] but takes a pre-computed line address and
    /// reports the whole outcome: `hit` means the line was already resident,
    /// in which case nothing — not even its LRU position — changes.
    pub(crate) fn install_line(&mut self, line: u64) -> CacheAccess {
        let assoc = self.assoc;
        let record = self.record_of(line);
        let (tags, stamps) = self.words[record..][..2 * assoc].split_at_mut(assoc);
        if tags.contains(&line) {
            return HIT;
        }
        let (evicted, dirty_writeback) = fill(tags, stamps, line, self.clock);
        self.clock += 2;
        self.writebacks += dirty_writeback as u64;
        CacheAccess {
            hit: false,
            evicted,
            dirty_writeback,
        }
    }

    /// Invalidates the line if resident (back-invalidation under inclusion).
    /// Returns true if a line was removed.
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let record = self.record_of(line);
        let tags = &mut self.words[record..][..self.assoc];
        match tags.iter().position(|&tag| tag == line) {
            Some(way) => {
                tags[way] = INVALID;
                true
            }
            None => false,
        }
    }

    /// Total accesses since construction (demand only).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses since construction (demand only).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty lines written back since construction.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Demand miss rate (misses / accesses), 0 if never accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Clears statistics but keeps cache contents (used between the warm-up
    /// runs and the measured runs, per the §4.3 methodology).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Empties the cache in place: every way invalid, the clock and the
    /// statistics at zero — the state [`Cache::new`] leaves, in the same
    /// allocation.
    pub(crate) fn clear(&mut self) {
        self.words.fill(INVALID);
        self.clock = 0;
        self.reset_stats();
    }

    /// Every set's resident lines with their dirty bits, most recent first:
    /// all that a later access can tell of the cache's state.
    #[cfg(test)]
    pub(crate) fn contents(&self) -> Vec<Vec<(u64, bool)>> {
        (0..=self.set_mask)
            .map(|set| {
                let record = &self.words[self.record_of(set)..][..2 * self.assoc];
                let (tags, stamps) = record.split_at(self.assoc);
                let mut ways: Vec<(u64, u64)> = tags
                    .iter()
                    .zip(stamps)
                    .filter(|(&tag, _)| tag != INVALID)
                    .map(|(&tag, &stamp)| (stamp, tag))
                    .collect();
                ways.sort_unstable_by(|a, b| b.cmp(a));
                ways.iter()
                    .map(|&(stamp, tag)| (tag, stamp & DIRTY != 0))
                    .collect()
            })
            .collect()
    }
}

/// Miss path of one set: puts `line` (stamped `stamp`) into the first invalid
/// way, else over the way with the oldest stamp. Returns
/// `(evicted_line, dirty_writeback)`.
#[inline]
fn fill(tags: &mut [u64], stamps: &mut [u64], line: u64, stamp: u64) -> (Option<u64>, bool) {
    let mut victim = 0;
    let mut oldest = u64::MAX;
    for (way, (&tag, &used)) in tags.iter().zip(stamps.iter()).enumerate() {
        if tag == INVALID {
            victim = way;
            break;
        }
        if used < oldest {
            victim = way;
            oldest = used;
        }
    }
    let old = tags[victim];
    let evicted = (old != INVALID).then_some(old);
    let dirty_writeback = evicted.is_some() && stamps[victim] & DIRTY != 0;
    tags[victim] = line;
    stamps[victim] = stamp;
    (evicted, dirty_writeback)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32-byte lines = 256 bytes.
        Cache::new(CacheGeom {
            size_bytes: 256,
            line_bytes: 32,
            assoc: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x101f, false).hit, "same 32-byte line");
        assert!(!c.access(0x1020, false).hit, "next line");
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines = 128 B).
        let a = 0x0u64;
        let b = 0x80u64;
        let d = 0x100u64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        let acc = c.access(d, false); // evicts b (LRU)
        assert_eq!(acc.evicted, Some(c.line_of(b)));
        assert!(c.access(a, false).hit);
        assert!(!c.access(b, false).hit, "b was evicted");
    }

    #[test]
    fn write_back_counts_dirty_evictions_only() {
        let mut c = small();
        c.access(0x0, true); // dirty
        c.access(0x80, false); // clean
        c.access(0x100, false); // evicts 0x0 (LRU, dirty) -> writeback
        assert_eq!(c.writebacks(), 1);
        let acc = c.access(0x180, false); // evicts 0x80, clean
        assert!(!acc.dirty_writeback);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn install_does_not_count_stats() {
        let mut c = small();
        c.install(0x40);
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert!(c.access(0x40, false).hit);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0x40, false);
        let line = c.line_of(0x40);
        assert!(c.invalidate_line(line));
        assert!(!c.access(0x40, false).hit);
        assert!(!c.invalidate_line(line + 99));
    }

    #[test]
    fn sequential_scan_larger_than_cache_always_misses_after_warmup() {
        let mut c = small();
        // 1 KB scan over a 256-byte cache: every line is evicted before reuse.
        for rep in 0..3 {
            for addr in (0..1024u64).step_by(32) {
                let acc = c.access(addr, false);
                if rep > 0 {
                    assert!(!acc.hit, "capacity misses expected on every pass");
                }
            }
        }
    }

    #[test]
    fn access_run_matches_per_line_accesses() {
        // Same interleaved trace through both paths must leave identical
        // tags, LRU state, stats and miss sequences.
        let mut per_line = small();
        let mut run = small();
        let spans: [(u64, u64, bool); 6] = [
            (0, 12, false),
            (4, 3, true),
            (100, 9, false),
            (0, 12, false),
            (7, 1, true),
            (2, 20, false),
        ];
        let mut want_missed = Vec::new();
        let mut got_missed = Vec::new();
        for &(first, lines, write) in &spans {
            for line in first..first + lines {
                if !per_line.access_line(line, write).hit {
                    want_missed.push(line);
                }
            }
            run.access_run(first, lines, write, &mut got_missed);
        }
        assert_eq!(got_missed, want_missed);
        assert_eq!(run.accesses(), per_line.accesses());
        assert_eq!(run.misses(), per_line.misses());
        assert_eq!(run.writebacks(), per_line.writebacks());
        assert_eq!(run.contents(), per_line.contents());
    }

    #[test]
    fn clone_keeps_contents_lru_order_and_stats() {
        let mut c = small();
        for (addr, write) in [(0x0, true), (0x80, false), (0x20, false), (0x0, false)] {
            c.access(addr, write);
        }
        let mut copy = c.clone();
        assert_eq!(copy.contents(), c.contents());
        assert_eq!((copy.accesses(), copy.misses()), (c.accesses(), c.misses()));
        // Both evict the same (dirty, LRU) line next.
        assert_eq!(copy.access(0x100, false), c.access(0x100, false));
    }

    #[test]
    #[should_panic(expected = "gives 0 sets")]
    fn geometry_smaller_than_one_set_is_rejected() {
        Cache::new(CacheGeom {
            size_bytes: 64,
            line_bytes: 32,
            assoc: 4,
        });
    }

    #[test]
    #[should_panic(expected = "gives 3 sets")]
    fn non_power_of_two_set_count_is_rejected() {
        Cache::new(CacheGeom {
            size_bytes: 3 * 64,
            line_bytes: 32,
            assoc: 2,
        });
    }

    #[test]
    #[should_panic(expected = "assoc must be at least 1")]
    fn zero_associativity_is_rejected() {
        Cache::new(CacheGeom {
            size_bytes: 256,
            line_bytes: 32,
            assoc: 0,
        });
    }

    #[test]
    fn working_set_within_capacity_has_no_misses_after_warmup() {
        let mut c = small();
        for _ in 0..4 {
            for addr in (0..256u64).step_by(32) {
                c.access(addr, false);
            }
        }
        c.reset_stats();
        for addr in (0..256u64).step_by(32) {
            assert!(c.access(addr, false).hit);
        }
        assert_eq!(c.miss_rate(), 0.0);
    }
}
