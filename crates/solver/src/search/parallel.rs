//! The work-stealing parallel search.
//!
//! With [`SolverConfig::threads`] > 1 the search runs on a worker pool wired
//! together by three pieces of shared state, each synchronised as heavily as
//! its traffic warrants:
//!
//! * **a lock-free shared dominance table** ([`super::dominance`]), probed
//!   on every node: all workers prune against (and feed) one CAS-claimed
//!   open-addressing memo, so a state explored by any worker is never
//!   re-explored by another — per-worker private memos previously
//!   re-explored ~2.7× the serial node count at 4 threads;
//! * **an atomic incumbent bound**, read on every node: a makespan proved by
//!   one worker immediately prunes every other worker's subtrees;
//! * **per-worker mutex-guarded deques of subtree tasks**
//!   ([`super::frontier`]), touched ~10² times per solve (62–135 pushes,
//!   1–24 steals, 0–3 contended accesses against 1.4 M – 16 M nodes on the
//!   benchmark's `solve_parallel`): the root frontier seeds the deques
//!   round-robin, and workers exploring shallow nodes publish later siblings
//!   as stealable tasks while the queues run below the spawn cap. A worker
//!   whose deque empties steals the oldest (largest) task from a peer whose
//!   lock is free, so load balances far below the root even when the root
//!   frontier is narrow or lopsided.
//!
//! Cooperative cancellation and deadlines are preserved in stolen subtrees —
//! the DFS checks them at its usual node-batch boundaries regardless of how
//! the subtree reached the worker — and *idle* workers waiting for stealable
//! work check them too, so an abort never waits on a straggler.
//!
//! Every thread count proves the same optimal makespan: the search is exact
//! (each subtree is explored once, by whichever worker dequeues it, against
//! a monotonically tightening shared bound), so only tie-breaking among
//! equally good schedules may differ between runs. The one lock-free
//! structure keeps that invariant because every race it admits is
//! *prune-only*: a reader can miss a memo entry, but can never observe a
//! half-written record (see [`super::dominance`] for the ordering argument).
//! The deques hand each task to exactly one taker under their lock; a thief
//! that finds a lock held only looks elsewhere.
//!
//! [`SolverConfig::threads`]: super::SolverConfig::threads

use super::dominance::SharedDominanceTable;
use super::engine::{SearchContext, FLUSH_INTERVAL};
use super::frontier::{SubtreeTask, TaskQueues};
use crate::stats::SolveStats;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Stealable tasks kept buffered per worker before the spawn throttle stops
/// publishing new ones (deep siblings then run inline, which is cheaper).
const SPAWN_BUFFER_PER_WORKER: usize = 8;

/// Steal granularity: workers publish the later siblings of nodes at depths
/// *below* this limit as stealable subtree tasks (subject to the spawn
/// throttle); deeper nodes run the plain sequential loop.
pub(super) const STEAL_DEPTH: usize = 4;

/// How long an idle worker naps once spinning has not produced work.
const IDLE_NAP: Duration = Duration::from_micros(50);

/// Pads (and aligns) a value to a 64-byte cache line so two heavily-written
/// shared words never share a line (false sharing turns every write into a
/// coherence round-trip).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(super) struct CachePadded<T>(pub(super) T);

/// State shared between the parallel workers of one solve.
///
/// The two words every worker touches on (nearly) every node — the incumbent
/// bound and the flushed node counter — sit on their own cache lines; false
/// sharing between them would turn each incumbent read into a miss whenever
/// any worker flushes its node batch.
pub(super) struct SharedSearch {
    /// Exclusive incumbent bound; monotonically non-increasing.
    pub(super) upper: CachePadded<AtomicU64>,
    /// Nodes expanded across all workers (flushed in batches).
    pub(super) nodes: CachePadded<AtomicU64>,
    /// Set when the whole search should stop successfully (satisfiability
    /// deadline met).
    pub(super) stop: AtomicBool,
    /// Set when a node/time budget or an external abort fired; stops busy
    /// and idle workers alike and marks the solve incomplete.
    pub(super) limit_stop: AtomicBool,
    /// Subtree tasks created but not yet fully processed. Zero means no work
    /// exists anywhere and none can appear: workers may exit.
    pub(super) outstanding: CachePadded<AtomicUsize>,
    /// The per-worker task deques.
    pub(super) queues: TaskQueues,
    /// The lock-free shared dominance memo (`None` when dominance pruning is
    /// off).
    pub(super) dominance: Option<SharedDominanceTable>,
    /// Per-worker write-batching interval for `nodes`, shrunk for small node
    /// budgets so the shared `max_nodes` cap stays tight.
    pub(super) flush_interval: u64,
    /// Queue-occupancy bound of the spawn throttle.
    pub(super) spawn_cap: usize,
}

struct WorkerResult {
    stats: SolveStats,
    best_makespan: Option<u64>,
    best_starts: Vec<u64>,
}

/// Runs the work-stealing search over the root frontier of `ctx` with
/// `threads` workers. Returns `true` if the search completed (proved
/// optimal/infeasible or satisfied its deadline), `false` if a limit or an
/// abort stopped it first.
pub(super) fn run_parallel(ctx: &mut SearchContext<'_>, threads: usize) -> bool {
    // The root node mirrors the first iteration of `dfs`.
    ctx.stats.nodes += 1;
    if ctx.unscheduled == 0 {
        ctx.record_incumbent();
        return true;
    }
    if ctx.bound >= ctx.upper {
        ctx.stats.pruned_bound += 1;
        return true;
    }
    let roots = ctx.collect_candidates(0);
    if roots.is_empty() {
        return true;
    }

    let workers = threads;
    let spawn_cap = workers * SPAWN_BUFFER_PER_WORKER;
    let shared = SharedSearch {
        upper: CachePadded(AtomicU64::new(ctx.upper)),
        nodes: CachePadded(AtomicU64::new(ctx.stats.nodes)),
        stop: AtomicBool::new(false),
        limit_stop: AtomicBool::new(false),
        outstanding: CachePadded(AtomicUsize::new(roots.len())),
        // Deque capacity: the round-robin seed share plus everything the
        // spawn throttle can have in flight at once, so a seed push can
        // never overflow (asserted below) and offload pushes rarely do.
        queues: TaskQueues::new(workers, roots.len().div_ceil(workers) + spawn_cap + workers),
        dominance: ctx
            .flat
            .memo_limit(ctx.config)
            .map(|limit| SharedDominanceTable::new(ctx.flat.num_devices, limit)),
        flush_interval: FLUSH_INTERVAL
            .min(ctx.config.max_nodes / (workers as u64 * 2).max(1))
            .max(1),
        spawn_cap,
    };

    // Seed the root frontier round-robin across the deques so every worker
    // starts with local work; stealing takes over once the split turns out
    // lopsided.
    for (idx, &(_, _, i)) in roots.iter().enumerate() {
        let pushed = shared
            .queues
            .push(idx % workers, SubtreeTask { path: vec![i] });
        // A lost seed would leave `outstanding` above zero forever (the
        // workers would never exit); the capacity above rules it out.
        assert!(pushed, "root seed exceeded deque capacity");
    }

    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut worker = ctx.fork(&shared, w as u32);
                let shared = &shared;
                scope.spawn(move || {
                    let mut idle_spins = 0u32;
                    loop {
                        if worker.stop
                            || shared.stop.load(Ordering::Relaxed)
                            || shared.limit_stop.load(Ordering::Relaxed)
                        {
                            break;
                        }
                        let task = shared.queues.pop(w).or_else(|| {
                            let stolen = shared.queues.steal(w, &mut worker.stats.steal_failures);
                            if stolen.is_some() {
                                worker.stats.steals += 1;
                                if let Some(board) = &worker.config.progress {
                                    board.add_steal();
                                }
                            }
                            stolen
                        });
                        let Some(task) = task else {
                            if shared.outstanding.0.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            // Cooperative cancellation reaches idle workers
                            // too: an expired deadline must not wait for the
                            // last busy worker to notice it first.
                            if worker.config.abort.should_stop() {
                                shared.limit_stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            if let Some(limit) = worker.config.time_limit {
                                if worker.started.elapsed() > limit {
                                    shared.limit_stop.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                            idle_spins += 1;
                            if idle_spins > 64 {
                                std::thread::sleep(IDLE_NAP);
                            } else {
                                std::thread::yield_now();
                            }
                            continue;
                        };
                        idle_spins = 0;
                        worker.run_task(&task);
                        shared.outstanding.0.fetch_sub(1, Ordering::Release);
                    }
                    worker.flush();
                    if let Some(board) = &worker.config.progress {
                        board.clear_worker(w as u32);
                    }
                    WorkerResult {
                        stats: worker.stats,
                        best_makespan: worker.best_makespan,
                        best_starts: worker.best_starts,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver worker panicked"))
            .collect()
    });
    ctx.restore_candidates(0, roots);

    let any_limit_stop = shared.limit_stop.load(Ordering::Relaxed);
    let mut deadline_found = false;
    for result in &results {
        ctx.stats.nodes += result.stats.nodes;
        ctx.stats.pruned_bound += result.stats.pruned_bound;
        ctx.stats.pruned_dominance += result.stats.pruned_dominance;
        ctx.stats.incumbents += result.stats.incumbents;
        ctx.stats.steals += result.stats.steals;
        ctx.stats.shared_memo_hits += result.stats.shared_memo_hits;
        ctx.stats.cas_retries += result.stats.cas_retries;
        ctx.stats.steal_failures += result.stats.steal_failures;
        ctx.stats.memo_drops += result.stats.memo_drops;
        deadline_found |= result.best_makespan.is_some() && ctx.deadline.is_some();
    }
    // Deterministic winner: the smallest makespan, first worker on ties.
    for result in results {
        if let Some(makespan) = result.best_makespan {
            if makespan < ctx.best_makespan.unwrap_or(u64::MAX) {
                ctx.best_makespan = Some(makespan);
                ctx.best_starts = result.best_starts;
                ctx.upper = ctx.upper.min(makespan);
            }
        }
    }

    if ctx.deadline.is_some() {
        deadline_found || !any_limit_stop
    } else {
        !any_limit_stop
    }
}
