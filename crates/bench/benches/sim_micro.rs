//! Microbenchmarks of the simulator substrate: the harness must be fast
//! enough to run paper-scale workloads, so its own hot paths are tracked.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wdtg_sim::{
    segment, BranchSite, BranchUnit, BtbGeom, Cache, CacheGeom, CodeBlock, Cpu, CpuConfig,
    InterruptCfg, MemDep,
};

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/cache");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("l2_access_mixed", |b| {
        let mut cache = Cache::new(CacheGeom {
            size_bytes: 512 * 1024,
            line_bytes: 32,
            assoc: 4,
        });
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..1024 {
                i = i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                cache.access(i % (4 << 20), false);
            }
            cache.misses()
        })
    });
    g.finish();
}

fn bench_branch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/branch");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("predict_train", |b| {
        let mut bu = BranchUnit::new(BtbGeom {
            entries: 512,
            assoc: 4,
            history_bits: 4,
            pattern_entries: 1024,
        });
        let mut i = 0u64;
        b.iter(|| {
            let mut miss = 0u32;
            for _ in 0..1024 {
                i = i.wrapping_add(1);
                let out = bu.execute(0x4000 + (i % 700) * 16, i.is_multiple_of(3), false);
                miss += out.mispredicted as u32;
            }
            miss
        })
    });
    g.finish();
}

fn bench_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/cpu");
    g.throughput(Throughput::Elements(256));
    g.bench_function("exec_block_plus_loads", |b| {
        let mut cpu =
            Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()));
        let block = CodeBlock::builder("bench", 2800)
            .private(segment::PRIVATE, 4096)
            .at(segment::CODE);
        let site = BranchSite {
            addr: segment::CODE + 32,
            backward: false,
        };
        let mut addr = segment::HEAP;
        b.iter(|| {
            for i in 0..256u64 {
                cpu.exec_block(&block);
                cpu.load(addr, 8, MemDep::Demand);
                cpu.branch(site, i % 7 == 0);
                addr += 100;
            }
            cpu.cycles()
        })
    });
    g.finish();
}

/// Instruction fetch, the simulator's own top line (`Cpu::ifetch` under
/// `exec_block`): a block that stays L1I-resident, one whose five fetch
/// phases overflow the 16 KB L1I, one that thrashes it on every call (the
/// transaction-begin path's size), and a cycle of two 16 KB blocks that each
/// fit the L1I but together overflow it, so every line misses the L1I and
/// hits L2 — below the known-miss lane's 1 024-line threshold. One element
/// is one fetched line, so host ns/line is 1e9 / the printed rate.
fn bench_ifetch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/ifetch");
    for (id, path_bytes, count) in [
        ("resident_2800B", 2800u32, 1u64),
        ("partial_12KB", 12 << 10, 1),
        ("thrashing_190KB", 190_000, 1),
        ("overflow_2x16KB", 16 << 10, 2),
    ] {
        // 64 KB apart: more than one block's extent, and a multiple of the
        // L1I's way size, so the blocks share sets.
        let blocks: Vec<CodeBlock> = (0..count)
            .map(|i| {
                CodeBlock::builder("bench", path_bytes)
                    .private(segment::PRIVATE, 4096)
                    .at(segment::CODE + i * (64 << 10))
            })
            .collect();
        let lines = blocks[0].lines(32) as u64 * count;
        let calls = (8192 / lines).max(1);
        g.throughput(Throughput::Elements(lines * calls));
        g.bench_function(id, |b| {
            let mut cpu =
                Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()));
            b.iter(|| {
                for _ in 0..calls {
                    for block in &blocks {
                        cpu.exec_block(block);
                    }
                }
                cpu.cycles()
            })
        });
    }
    g.finish();
}

/// The fixed cost of a block call, everything in `exec_block` but fetch
/// misses: blocks the sizes of a row operator's inner step and of a scan's
/// per-page path, both L1I-resident after the first calls, so what is left
/// is the phase rotation, the hit-run over the path, the pipeline charges
/// and the up to eight private-data and branch probes. One element is one
/// call, so host ns/call is 1e9 / the printed rate.
fn bench_exec_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/exec_block");
    g.throughput(Throughput::Elements(1024));
    for (id, path_bytes) in [("resident_300B", 300u32), ("scan_3600B", 3600)] {
        let block = CodeBlock::builder("bench", path_bytes)
            .private(segment::PRIVATE, 4096)
            .at(segment::CODE);
        g.bench_function(id, |b| {
            let mut cpu =
                Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()));
            b.iter(|| {
                for _ in 0..1024 {
                    cpu.exec_block(&block);
                }
                cpu.cycles()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_branch,
    bench_cpu,
    bench_ifetch,
    bench_exec_block
);
criterion_main!(benches);
