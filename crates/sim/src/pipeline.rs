//! Instrumented code blocks: the unit of instruction-stream simulation.
//!
//! We cannot execute the x86 binaries of four commercial DBMSs, so the DBMS
//! substrate is *instrumented*: every operator code path declares a
//! [`CodeBlock`] describing the path through it — its code-address range
//! (which drives ITLB/L1I/L2 instruction fetch), its retired x86
//! instructions and µops (which drive T_C), its implicit private-data
//! references (register spills, locals, latches — §5.2 observes these
//! dominate data references and mostly hit L1D), its structural branches,
//! and its dependency/functional-unit profile (which drives T_DEP/T_FU).
//!
//! Executing the *real* Rust implementation of an operator calls
//! [`crate::Cpu::exec_block`] with the operator's block, plus explicit
//! [`crate::Cpu::load`]/[`crate::Cpu::store`]/[`crate::Cpu::branch`] calls
//! for the data accesses and data-dependent branches whose behaviour must
//! *emerge* from the simulation rather than being declared.
//!
//! A block is immutable data, shared freely between cores and threads.
//! Successive calls of one path take different routes through its
//! function; the [`crate::Cpu`] models that with a probe rotation it keeps
//! per block `base`, so the rotation is state of one simulated core, never
//! of the block.

use crate::config::PipelineCfg;

/// Average bytes per x86 instruction assumed when deriving instruction
/// counts from a path length (CISC x86 averages ~3.5 bytes).
pub const BYTES_PER_X86_INSTR: f64 = 3.5;
/// Average µops per x86 instruction ("translated into up to three RISC
/// instructions (µops) each", §4.1; database integer code with complex
/// addressing averages ~2).
pub const UOPS_PER_X86_INSTR: f64 = 2.0;

/// A declared code path through one engine function.
#[derive(Debug, Clone)]
pub struct CodeBlock {
    /// Human-readable name (operator/function name), used in reports.
    pub name: &'static str,
    /// Simulated address of the first instruction byte. It is also the
    /// block's identity on a core: two blocks at one `base` share the
    /// core's probe rotation ([`crate::Cpu::exec_block`]).
    pub base: u64,
    /// Length in bytes of the dynamic path through the function. The fetch
    /// unit touches `path_bytes / line_bytes` I-cache lines per invocation.
    pub path_bytes: u32,
    /// x86 instructions retired per invocation.
    pub x86_instrs: u32,
    /// µops retired per invocation.
    pub uops: u32,
    /// Implicit data references per invocation (locals, spills, metadata) —
    /// serviced from the block's private working region.
    pub mem_refs: u32,
    /// Base simulated address of the private working region.
    pub private_base: u64,
    /// Size of the private working set the implicit references cycle
    /// through. Small (≤ a few KB) working sets stay L1D-resident.
    pub private_bytes: u32,
    /// Static conditional-branch sites on the path (BTB footprint).
    pub branch_sites: u16,
    /// Dynamic branches executed per invocation (bulk-modelled).
    pub dyn_branches: u16,
    /// Fraction of the dynamic branches that are taken.
    pub taken_frac: f64,
    /// Accuracy of the two-level predictor on these branches when their BTB
    /// entry is resident (structural loop/call branches are ~95–99%
    /// predictable).
    pub dyn_bias: f64,
    /// Accuracy of the static backward-taken/forward-not-taken rule on these
    /// branches when the BTB misses.
    pub static_acc: f64,
    /// Length of the longest data-dependency chain, as a fraction of µops.
    /// Values above `1/width` make the block dependency-bound (T_DEP).
    pub dep_frac: f64,
    /// Pressure on the busiest functional-unit port, as a fraction of µops.
    /// Values above `1/width` make the block FU-bound (T_FU).
    pub fu_frac: f64,
    /// Fraction of x86 instructions longer than 7 bytes, each charging one
    /// instruction-length-decoder stall cycle (T_ILD).
    pub long_instr_frac: f64,
}

impl CodeBlock {
    /// Starts building a block for a path of `path_bytes` bytes; instruction
    /// and µop counts, branch counts and memory references are derived from
    /// the path length with typical x86 ratios and can be overridden.
    pub fn builder(name: &'static str, path_bytes: u32) -> CodeBlockBuilder {
        let x86 = (path_bytes as f64 / BYTES_PER_X86_INSTR).round() as u32;
        let x86 = x86.max(1);
        CodeBlockBuilder {
            block: CodeBlock {
                name,
                base: 0,
                path_bytes,
                x86_instrs: x86,
                uops: ((x86 as f64) * UOPS_PER_X86_INSTR).round() as u32,
                // "Memory references account for at least half of the
                // instructions retired" (§5.4); implicit references cover the
                // private-data part, explicit loads/stores add the rest.
                mem_refs: ((x86 as f64) * 0.45).round() as u32,
                private_base: 0,
                private_bytes: 2048,
                // "Branch instructions account for 20% of the total
                // instructions retired" (§5.3).
                branch_sites: ((x86 as f64) * 0.08).ceil() as u16,
                dyn_branches: ((x86 as f64) * 0.20).round() as u16,
                taken_frac: 0.6,
                dyn_bias: 0.96,
                static_acc: 0.62,
                dep_frac: 0.22,
                fu_frac: 0.18,
                long_instr_frac: 0.04,
            },
        }
    }

    /// Number of I-cache lines the path spans for a given line size.
    pub fn lines(&self, line_bytes: u32) -> u32 {
        self.path_bytes.div_ceil(line_bytes).max(1)
    }

    /// Average sequential fetch-run length in lines: how many consecutive
    /// I-cache lines the fetch unit streams through before a taken branch
    /// redirects it. The Xeon's instruction prefetcher only hides misses
    /// within such runs (§3.2), so branch-dense code (interpreters) gets no
    /// benefit while lean straight-line kernels do.
    pub fn seq_run_lines(&self, line_bytes: u32) -> u32 {
        let taken = self.dyn_branches as f64 * self.taken_frac;
        let run_bytes = self.path_bytes as f64 / (1.0 + taken);
        (run_bytes / line_bytes as f64) as u32
    }
}

/// Builder for [`CodeBlock`]; all setters override the derived defaults.
#[derive(Debug, Clone)]
pub struct CodeBlockBuilder {
    block: CodeBlock,
}

#[allow(missing_docs)] // setters mirror the documented CodeBlock fields
impl CodeBlockBuilder {
    pub fn x86_instrs(mut self, v: u32) -> Self {
        self.block.x86_instrs = v.max(1);
        self.block.uops = ((self.block.x86_instrs as f64) * UOPS_PER_X86_INSTR).round() as u32;
        self
    }
    pub fn uops(mut self, v: u32) -> Self {
        self.block.uops = v.max(1);
        self
    }
    pub fn mem_refs(mut self, v: u32) -> Self {
        self.block.mem_refs = v;
        self
    }
    pub fn private(mut self, base: u64, bytes: u32) -> Self {
        self.block.private_base = base;
        self.block.private_bytes = bytes.max(64);
        self
    }
    pub fn branches(mut self, sites: u16, dynamic: u16) -> Self {
        self.block.branch_sites = sites.max(1);
        self.block.dyn_branches = dynamic;
        self
    }
    pub fn taken_frac(mut self, v: f64) -> Self {
        self.block.taken_frac = v.clamp(0.0, 1.0);
        self
    }
    pub fn dyn_bias(mut self, v: f64) -> Self {
        self.block.dyn_bias = v.clamp(0.0, 1.0);
        self
    }
    pub fn static_acc(mut self, v: f64) -> Self {
        self.block.static_acc = v.clamp(0.0, 1.0);
        self
    }
    pub fn dep_frac(mut self, v: f64) -> Self {
        self.block.dep_frac = v.clamp(0.0, 1.0);
        self
    }
    pub fn fu_frac(mut self, v: f64) -> Self {
        self.block.fu_frac = v.clamp(0.0, 1.0);
        self
    }
    pub fn long_instr_frac(mut self, v: f64) -> Self {
        self.block.long_instr_frac = v.clamp(0.0, 1.0);
        self
    }

    /// Places the block at `base` in the code segment and finishes it.
    pub fn at(mut self, base: u64) -> CodeBlock {
        self.block.base = base;
        self.block
    }
}

/// A data-dependent branch site simulated individually (full BTB +
/// two-level-adaptive path), e.g. the selection predicate's qualify branch.
#[derive(Debug, Clone, Copy)]
pub struct BranchSite {
    /// Simulated address of the branch instruction.
    pub addr: u64,
    /// Whether the branch jumps backwards (static prediction: taken).
    pub backward: bool,
}

/// Cycle cost of one block invocation, before instruction-fetch and data
/// stalls (those are simulated, not computed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCost {
    /// Useful computation cycles: µops / retire width — the paper's
    /// "estimated minimum based on µops retired" (Table 4.2).
    pub tc: f64,
    /// Dependency-stall cycles.
    pub tdep: f64,
    /// Functional-unit-stall cycles.
    pub tfu: f64,
    /// Instruction-length-decoder stall cycles.
    pub tild: f64,
}

/// Computes the dispatch-model cost of one invocation of `block`.
///
/// Dispatch needs `uops/width` cycles; the dependency chain needs
/// `uops × dep_frac` cycles (one µop of the chain per cycle); the busiest
/// port needs `uops × fu_frac` cycles. Execution time is the maximum, and
/// the excess over the dispatch minimum is attributed to T_DEP and T_FU in
/// proportion to how far each constraint exceeds the minimum.
pub fn block_cost(pipe: &PipelineCfg, block: &CodeBlock) -> BlockCost {
    let uops = block.uops as f64;
    let dispatch = uops / pipe.width as f64;
    let dep = uops * block.dep_frac;
    let fu = uops * block.fu_frac;
    let bound = dispatch.max(dep).max(fu);
    let excess = bound - dispatch;
    let dep_raw = (dep - dispatch).max(0.0);
    let fu_raw = (fu - dispatch).max(0.0);
    let (tdep, tfu) = if excess <= 0.0 || dep_raw + fu_raw <= 0.0 {
        (0.0, 0.0)
    } else {
        let scale = excess / (dep_raw + fu_raw);
        (dep_raw * scale, fu_raw * scale)
    };
    let tild = block.x86_instrs as f64 * block.long_instr_frac;
    BlockCost {
        tc: dispatch,
        tdep,
        tfu,
        tild,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    fn pipe() -> PipelineCfg {
        CpuConfig::pentium_ii_xeon().pipe
    }

    #[test]
    fn builder_derives_paper_ratios() {
        let b = CodeBlock::builder("scan", 700).at(0x40_0000);
        assert_eq!(b.x86_instrs, 200);
        assert_eq!(b.uops, 400);
        // ~20% of instructions are branches (§5.3).
        assert!((b.dyn_branches as f64 / b.x86_instrs as f64 - 0.20).abs() < 0.01);
        assert_eq!(b.lines(32), 22);
    }

    #[test]
    fn dispatch_bound_block_has_no_resource_stalls() {
        let b = CodeBlock::builder("lean", 350)
            .dep_frac(0.1)
            .fu_frac(0.1)
            .long_instr_frac(0.0)
            .at(0x40_0000);
        let c = block_cost(&pipe(), &b);
        assert_eq!(c.tdep, 0.0);
        assert_eq!(c.tfu, 0.0);
        assert!((c.tc - b.uops as f64 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn dependency_bound_block_charges_tdep() {
        let b = CodeBlock::builder("chase", 350)
            .dep_frac(0.8)
            .fu_frac(0.1)
            .at(0);
        let c = block_cost(&pipe(), &b);
        assert!(c.tdep > 0.0);
        assert_eq!(c.tfu, 0.0);
        // Total equals the binding constraint.
        let total = c.tc + c.tdep + c.tfu;
        assert!((total - b.uops as f64 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn mixed_pressure_splits_proportionally() {
        let b = CodeBlock::builder("mixed", 350)
            .dep_frac(0.6)
            .fu_frac(0.5)
            .at(0);
        let c = block_cost(&pipe(), &b);
        assert!(c.tdep > c.tfu && c.tfu > 0.0);
        let total = c.tc + c.tdep + c.tfu;
        assert!(
            (total - b.uops as f64 * 0.6).abs() < 1e-9,
            "max constraint binds"
        );
    }
}
