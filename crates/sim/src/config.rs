//! Hardware configuration for the simulated processor.
//!
//! The default configuration ([`CpuConfig::pentium_ii_xeon`]) mirrors Table 4.1
//! of the paper: a 400 MHz Pentium II Xeon with split 16 KB L1 caches, a
//! unified 512 KB L2, 32-byte lines, 4-way associativity everywhere,
//! non-blocking caches with 4 outstanding misses, and a ~60–70 cycle main
//! memory latency.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line (block) size in bytes. Table 4.1: 32 bytes at both levels.
    pub line_bytes: u32,
    /// Set associativity. Table 4.1: 4-way at both levels.
    pub assoc: u32,
}

impl CacheGeom {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// log2(line size), used to extract line addresses.
    pub fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }
}

/// Geometry of a translation look-aside buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeom {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub assoc: u32,
    /// Page size in bytes (4 KB on the Pentium II under NT 4.0).
    pub page_bytes: u32,
}

/// Geometry of the branch target buffer and its two-level adaptive predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbGeom {
    /// Number of BTB entries (the Pentium II has a 512-entry BTB).
    pub entries: u32,
    /// BTB associativity (4-way on the Pentium II).
    pub assoc: u32,
    /// Bits of per-branch local history kept in each BTB entry (Yeh–Patt \[20\]).
    pub history_bits: u32,
    /// Number of 2-bit counters in the shared pattern history table.
    pub pattern_entries: u32,
}

/// Pipeline and penalty parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCfg {
    /// Maximum µops decoded/retired per cycle (3 on the Pentium II).
    pub width: u32,
    /// Penalty in cycles for an L1 miss that hits in L2 (Table 4.1: 4 cycles).
    pub l1_miss_penalty: u32,
    /// Main-memory access latency in cycles (paper §5.2.1: 60–70 observed).
    pub mem_latency: u32,
    /// Extra bus occupancy per memory transaction; makes back-to-back misses
    /// slightly more expensive than a lone miss and bounds the benefit of
    /// overlapping (the workload stays latency-bound, §4.3).
    pub bus_occupancy: u32,
    /// Branch misprediction penalty in cycles (Table 4.2: 17 cycles).
    pub mispredict_penalty: u32,
    /// ITLB miss penalty in cycles (Table 4.2: 32 cycles).
    pub itlb_miss_penalty: u32,
    /// DTLB miss penalty (page-walk) in cycles. The paper could not measure
    /// T_DTLB (no event code); the simulator still models it.
    pub dtlb_miss_penalty: u32,
    /// Maximum outstanding cache misses that can overlap (Table 4.1: 4).
    pub outstanding_misses: u32,
    /// Whether the L2 enforces inclusion of the L1s. The Xeon does *not*
    /// (§5.2.2 discusses this when analysing L1I miss growth); the flag exists
    /// so the inclusion hypothesis can be tested as an ablation.
    pub inclusive_l2: bool,
    /// Whether the instruction-fetch unit has a sequential stream prefetcher
    /// ("the Xeon exploits spatial locality in the instruction stream with
    /// special instruction-prefetching hardware", §3.2).
    pub ifetch_stream_buffer: bool,
}

/// Periodic operating-system interrupt model (NT 4.0 timer/DPC activity).
///
/// §5.2.2 hypothesises that NT's periodic interrupts replace L1I contents with
/// operating-system code, which would explain why larger records (more cycles
/// per record) suffer more instruction misses. The model executes a kernel
/// code/data footprint every `period_cycles` cycles in supervisor mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptCfg {
    /// Cycles between interrupts. 0 disables the model.
    pub period_cycles: u64,
    /// Static code footprint of the interrupt path, in bytes.
    pub kernel_code_bytes: u32,
    /// Kernel data touched per interrupt, in bytes.
    pub kernel_data_bytes: u32,
}

impl InterruptCfg {
    /// Interrupts disabled (useful for ablations and unit tests).
    pub fn disabled() -> Self {
        InterruptCfg {
            period_cycles: 0,
            kernel_code_bytes: 0,
            kernel_data_bytes: 0,
        }
    }
}

/// Full configuration of the simulated processor.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// First-level instruction cache (Table 4.1: 16 KB, 4-way, 32 B lines).
    pub l1i: CacheGeom,
    /// First-level data cache (Table 4.1: 16 KB, 4-way, 32 B lines, write-back).
    pub l1d: CacheGeom,
    /// Unified second-level cache (Table 4.1: 512 KB, 4-way, 32 B lines).
    pub l2: CacheGeom,
    /// Instruction TLB.
    pub itlb: TlbGeom,
    /// Data TLB.
    pub dtlb: TlbGeom,
    /// Branch target buffer + predictor.
    pub btb: BtbGeom,
    /// Pipeline widths and penalties.
    pub pipe: PipelineCfg,
    /// OS interrupt model.
    pub interrupts: InterruptCfg,
}

impl CpuConfig {
    /// The configuration used for all experiments in the paper: a 400 MHz
    /// Pentium II Xeon with a 512 KB L2 cache (Table 4.1) running NT 4.0.
    pub fn pentium_ii_xeon() -> Self {
        CpuConfig {
            l1i: CacheGeom {
                size_bytes: 16 * 1024,
                line_bytes: 32,
                assoc: 4,
            },
            l1d: CacheGeom {
                size_bytes: 16 * 1024,
                line_bytes: 32,
                assoc: 4,
            },
            l2: CacheGeom {
                size_bytes: 512 * 1024,
                line_bytes: 32,
                assoc: 4,
            },
            itlb: TlbGeom {
                entries: 32,
                assoc: 4,
                page_bytes: 4096,
            },
            dtlb: TlbGeom {
                entries: 64,
                assoc: 4,
                page_bytes: 4096,
            },
            btb: BtbGeom {
                entries: 512,
                assoc: 4,
                history_bits: 4,
                pattern_entries: 1024,
            },
            pipe: PipelineCfg {
                width: 3,
                l1_miss_penalty: 4,
                mem_latency: 62,
                bus_occupancy: 6,
                mispredict_penalty: 17,
                itlb_miss_penalty: 32,
                dtlb_miss_penalty: 24,
                outstanding_misses: 4,
                inclusive_l2: false,
                ifetch_stream_buffer: true,
            },
            interrupts: InterruptCfg {
                period_cycles: 120_000,
                kernel_code_bytes: 10 * 1024,
                kernel_data_bytes: 3 * 1024,
            },
        }
    }

    /// Same processor with a different unified L2 capacity (ablation A2;
    /// §5.2.1 notes L2 sizes were growing towards 2 MB/8 MB). The size must
    /// leave a power-of-two set count; [`crate::Cpu::new`] rejects one that
    /// does not.
    pub fn with_l2_size(mut self, size_bytes: u32) -> Self {
        self.l2.size_bytes = size_bytes;
        self
    }

    /// Same processor with a different BTB entry count (ablation A1; ref \[7\]
    /// evaluates BTBs up to 16 K entries).
    pub fn with_btb_entries(mut self, entries: u32) -> Self {
        self.btb.entries = entries;
        self
    }

    /// Same processor with a different branch-misprediction penalty — a
    /// deeper pipeline. §6 warns that "processors with longer pipelines
    /// will suffer more" from mispredictions; this knob moves the machine
    /// in that direction (the Pentium 4 generation paid ~2x the P6's
    /// 17 cycles) so branch-sensitive trade-offs like predication can be
    /// studied on both sides of their crossover.
    pub fn with_mispredict_penalty(mut self, cycles: u32) -> Self {
        self.pipe.mispredict_penalty = cycles;
        self
    }

    /// Same processor with L2 inclusion of the L1 caches forced on
    /// (the inclusion hypothesis of §5.2.2).
    pub fn with_inclusive_l2(mut self, on: bool) -> Self {
        self.pipe.inclusive_l2 = on;
        self
    }

    /// Same processor with the OS interrupt model replaced.
    pub fn with_interrupts(mut self, cfg: InterruptCfg) -> Self {
        self.interrupts = cfg;
        self
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::pentium_ii_xeon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_geometry_matches_table_4_1() {
        let c = CpuConfig::pentium_ii_xeon();
        assert_eq!(c.l1i.size_bytes, 16 * 1024);
        assert_eq!(c.l1d.size_bytes, 16 * 1024);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l1i.line_bytes, 32);
        assert_eq!(c.l2.line_bytes, 32);
        assert_eq!(c.l1d.assoc, 4);
        assert_eq!(c.l2.assoc, 4);
        assert_eq!(c.pipe.l1_miss_penalty, 4);
        assert_eq!(c.pipe.outstanding_misses, 4);
        assert!(!c.pipe.inclusive_l2, "the Xeon does not enforce inclusion");
    }

    #[test]
    fn cache_sets_derived_correctly() {
        let g = CacheGeom {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            assoc: 4,
        };
        assert_eq!(g.sets(), 128);
        assert_eq!(g.line_shift(), 5);
        let l2 = CacheGeom {
            size_bytes: 512 * 1024,
            line_bytes: 32,
            assoc: 4,
        };
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    fn penalties_match_table_4_2() {
        let c = CpuConfig::pentium_ii_xeon();
        assert_eq!(c.pipe.mispredict_penalty, 17);
        assert_eq!(c.pipe.itlb_miss_penalty, 32);
        assert!((60..=70).contains(&c.pipe.mem_latency));
    }

    #[test]
    fn builders_modify_only_their_field() {
        let base = CpuConfig::pentium_ii_xeon();
        let big = base.clone().with_l2_size(8 * 1024 * 1024);
        assert_eq!(big.l2.size_bytes, 8 * 1024 * 1024);
        assert_eq!(big.l1d, base.l1d);
        let btb = base.clone().with_btb_entries(16 * 1024);
        assert_eq!(btb.btb.entries, 16 * 1024);
        assert_eq!(btb.l2, base.l2);
    }
}
