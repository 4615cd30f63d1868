//! The pool scheduler: morsel-driven OS-thread parallel execution.
//!
//! The shard router ([`crate::shard`]) has two schedulers for its per-shard
//! sub-queries. One is a plain loop on the calling thread; this module is
//! the other — a scoped worker pool with work-stealing deques
//! ([`run_jobs_parallel`], configured by [`ParallelConfig`]) under which
//! each shard's scan is also morselized (`Database::agg_partial`) — and it
//! produces **bit-identical** answers and merged counters for every worker
//! count, morsel schedule and steal order.
//!
//! # The determinism argument
//!
//! The cache and branch simulators are stateful: a core's counters depend
//! on the exact instruction/data stream it has seen. Parallel execution
//! stays bit-identical to sequential execution because that stream is
//! pinned *before* any thread runs:
//!
//! 1. **A shard is a simulated core.** Each shard owns its
//!    [`wdtg_sim::Cpu`], arenas and buffer pool; no simulated state is
//!    shared between shards.
//! 2. **Morsels of one shard run in order on that shard's core.** A
//!    shard's sub-query is one *task*: its morsel sequence, executed
//!    front-to-back on its own `Cpu`. The stream each core sees is a pure
//!    function of (data, plan, morsel size) — never of the host schedule.
//! 3. **The deque schedules tasks, not state.** Work stealing decides
//!    *which OS thread* runs a task and *when* — a worker adopts the
//!    shard's `Cpu` for the duration of the task (`Cpu` is `Send`). Since
//!    threads share no simulated state, the schedule cannot perturb any
//!    counter.
//! 4. **Merging is order-insensitive.** Partial aggregates merge with
//!    exact integer arithmetic ([`crate::AggState::merge`], commutative and
//!    associative), counter merging sums per-core deltas and takes the max
//!    for wall clock ([`wdtg_sim::merge_cores`]), and both are applied in
//!    shard order after all tasks complete. Errors are surfaced in shard
//!    order too, so even a failing run reports the same typed error under
//!    every schedule.
//!
//! Consequently `ShardedDatabase::run_parallel` with 1 worker, 8 workers,
//! or any steal seed produces the same bytes;
//! `tests/parallel_equivalence.rs` holds it to that. Host wall-clock time,
//! of course, *does* change with workers — that is the point — and the
//! `bench scale` headline reports it next to the modeled (simulated)
//! scaling.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::fault::splitmix64;

/// Knobs for one parallel run. All of them affect only *host* scheduling —
/// answers and merged simulated counters are bit-identical for every
/// configuration with the same `morsel_rows` (and for aggregate answers,
/// identical across `morsel_rows` too, since partials merge exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// OS worker threads. `0` means one per available host core
    /// ([`std::thread::available_parallelism`]); `1` runs inline on the
    /// calling thread (the sequential baseline).
    pub workers: usize,
    /// Target rows per morsel. Morsels are page-aligned (at least one heap
    /// page); `u32::MAX` gives one whole-table morsel per shard, which
    /// reproduces [`crate::ShardedDatabase::run`]'s per-shard stream exactly.
    pub morsel_rows: u32,
    /// Seed perturbing the task deal and steal-victim order — host
    /// schedule only, asserted harmless by the steal-order stress test.
    pub steal_seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 0,
            morsel_rows: 16 * 1024,
            steal_seed: 0,
        }
    }
}

impl ParallelConfig {
    /// Config with explicit worker count (0 = one per host core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Config with explicit morsel size in rows.
    pub fn with_morsel_rows(mut self, rows: u32) -> Self {
        self.morsel_rows = rows;
        self
    }

    /// Config with an explicit steal-schedule seed.
    pub fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// The worker count after resolving `0` to the host's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs `op` once per job across a scoped worker pool with work-stealing
/// deques, returning per-job outputs **in job order** regardless of the
/// schedule.
///
/// Tasks (job indices) are dealt round-robin into per-worker deques, in an
/// order shuffled by `seed`; a worker pops its own deque from the front and
/// steals from the back of a seeded rotation of victims when empty. The
/// calling thread is worker 0 and `workers - 1` threads are spawned beside
/// it: it would otherwise sleep until they finish, and what a job allocates
/// on the host (a join's staged build rows, say) then lands, for that
/// worker's share, in memory the caller can reuse afterwards rather than in
/// one more thread's allocator arena. With `workers <= 1` the jobs run
/// inline on the calling thread in job order — the sequential baseline the
/// equivalence suite compares against.
///
/// Each job value is handed to exactly one worker by value (`T: Send`), so
/// jobs that own mutable state — a `&mut Database` shard, or a whole
/// [`crate::Database`] replica in the OLTP driver — move across threads without
/// any shared simulated state.
pub fn run_jobs_parallel<T, R, F>(jobs: Vec<T>, workers: usize, seed: u64, op: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| op(i, j))
            .collect();
    }

    // Deal tasks round-robin in a seed-shuffled order. The shuffle (like
    // the steal order below) only stresses the scheduler: per-job work is
    // schedule-independent, and outputs are re-indexed by job below.
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, &job_no) in order.iter().enumerate() {
        deques[k % workers]
            .lock()
            .expect("deque lock poisoned")
            .push_back(job_no);
    }

    // One claimable slot per job hands the exclusive value to whichever
    // worker wins the task; results land in per-job cells so
    // post-processing is in job order no matter who computed what.
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let op = &op;

    // One worker's loop. Own deque first (front), then steal from the back
    // of a seeded rotation of victims. No task is ever re-queued, so finding
    // every deque empty means all tasks are claimed and this worker is done.
    let work = |w: usize| {
        let mut rng = splitmix64(seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        loop {
            let mut task = deques[w].lock().expect("deque lock poisoned").pop_front();
            if task.is_none() {
                rng = splitmix64(rng);
                let start = (rng % workers as u64) as usize;
                for k in 0..workers {
                    let v = (start + k) % workers;
                    if v == w {
                        continue;
                    }
                    task = deques[v].lock().expect("deque lock poisoned").pop_back();
                    if task.is_some() {
                        break;
                    }
                }
            }
            let Some(job_no) = task else { break };
            let job = slots[job_no]
                .lock()
                .expect("slot lock poisoned")
                .take()
                .expect("job task claimed twice");
            let out = op(job_no, job);
            *results[job_no].lock().expect("result lock poisoned") = Some(out);
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..workers {
            scope.spawn(move || work(w));
        }
        work(0);
    });

    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result lock poisoned")
                .expect("worker pool completed every job task")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CancelToken;
    use crate::{AggState, ShardedDatabase};

    /// Compile-time lock on the `Send + Sync` refactor: parallel execution
    /// moves whole shards (Cpu, arenas, buffer pool, fault state) across
    /// OS threads, and shares profiles/tokens between them. If any of
    /// these types regresses to `Rc`/`Cell` plumbing, this stops
    /// compiling — the `assert_send_sync` satellite of the refactor.
    #[test]
    fn engine_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}

        assert_send::<wdtg_sim::Cpu>();
        assert_send_sync::<wdtg_sim::Snapshot>();
        assert_send::<crate::db::Database>();
        assert_send::<crate::db::DbCtx>();
        assert_send::<ShardedDatabase>();
        assert_send_sync::<crate::profiles::EngineProfile>();
        assert_send_sync::<crate::profiles::EngineBlocks>();
        assert_send_sync::<crate::heap::HeapFile>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<crate::fault::FaultPlan>();
        assert_send::<crate::fault::FaultInjector>();
        assert_send_sync::<crate::fault::ResourceBudget>();
        assert_send_sync::<crate::query::Query>();
        assert_send_sync::<AggState>();
        assert_send_sync::<ParallelConfig>();
    }

    #[test]
    fn effective_workers_resolves_zero_to_host_parallelism() {
        assert!(ParallelConfig::default().effective_workers() >= 1);
        assert_eq!(
            ParallelConfig::default()
                .with_workers(3)
                .effective_workers(),
            3
        );
    }

    #[test]
    fn steal_seed_and_worker_count_only_affect_scheduling_metadata() {
        let a = ParallelConfig::default().with_steal_seed(7).with_workers(4);
        let b = ParallelConfig::default().with_steal_seed(9).with_workers(2);
        // Same morsel size => same simulated stream (the full proof lives
        // in tests/parallel_equivalence.rs; this pins the config contract).
        assert_eq!(a.morsel_rows, b.morsel_rows);
    }
}
