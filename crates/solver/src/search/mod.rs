//! Exact branch-and-bound search over chronological block orderings.
//!
//! The search enumerates *append orders*: at every node it picks a ready task
//! (all predecessors already scheduled, memory feasible on its devices) and
//! appends it to its devices at the earliest feasible start time. For the
//! constraint system of the Tessel schedule problem this enumeration is exact
//! (see the crate-level documentation), and three prunings keep it fast:
//!
//! 1. **Bound pruning** — a dynamic makespan lower bound built from per-device
//!    remaining load and per-task critical-path tails.
//! 2. **Dominance pruning** — two partial schedules covering the same set of
//!    tasks are compared by their per-device finish-time vectors; the
//!    componentwise-worse one cannot lead to a better completion.
//! 3. **Incumbent pruning** — classical branch-and-bound against the best
//!    solution found so far (seeded with a greedy list schedule).
//!
//! # Module layout
//!
//! * [`engine`] — the allocation-free DFS hot loop: flattened instance data,
//!   earliest starts, bound and ready list maintained incrementally through
//!   undo stacks, children tested before they are applied.
//! * [`dominance`] — the flat open-addressing dominance table, one cache
//!   line per lookup: private to the serial search, split into 64
//!   mutex-guarded stripes for the parallel workers (SIMD-friendly vector
//!   compares live in [`simd`]).
//! * [`frontier`] — subtree tasks and the per-worker mutex-guarded steal
//!   deques of the work-stealing scheduler.
//! * [`parallel`] — the work-stealing worker pool: seeding, stealing,
//!   termination detection and result merging.
//!
//! # Parallel search
//!
//! With [`SolverConfig::threads`] > 1 the search runs **work-stealing**: the
//! root frontier seeds per-worker deques, workers publish shallow subtrees as
//! stealable tasks and steal from peers when their own deque drains, and
//! *all* workers prune against one **shared dominance table** plus an atomic
//! incumbent bound — the two things a node touches. The table is 64
//! mutex-guarded stripes of the serial one, found held ~150 k times in ~24 M
//! nodes on the benchmark's `solve_parallel`. The deques see ~10² operations
//! per solve and sit behind a plain mutex each. Small instances skip the pool
//! entirely: a bounded serial probe
//! ([`SolverConfig::serial_warmstart_nodes`]) solves them before any worker
//! thread is spawned. Every thread count proves the same optimal
//! makespan; only the tie-breaking among equally good schedules may differ.
//! See [`parallel`] for the full design.

mod dominance;
mod engine;
mod frontier;
mod parallel;
mod simd;

use crate::cancel::Abort;
use crate::greedy::{greedy_with_windows, GreedyPriority};
use crate::instance::Instance;
use crate::lower_bound::{device_load_lower_bound, one_machine_bound};
use crate::progress::ProgressBoard;
use crate::propagate::TimeWindows;
use crate::solution::Solution;
use crate::stats::SolveStats;
use crate::Result;
use engine::{FlatInstance, SearchContext};
use std::time::{Duration, Instant};

/// The thread count [`SolverConfig::default`] starts from: `1`, unless the
/// `TESSEL_TEST_THREADS` environment variable overrides it (used by the CI
/// matrix to force every default-configured solve through the work-stealing
/// parallel paths). Read afresh on every call — config construction is off
/// the hot path, and latching the first lookup would hand a stale value to
/// any consumer that changes the variable mid-process.
fn default_threads() -> usize {
    std::env::var("TESSEL_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The serial-warmstart budget [`SolverConfig::default`] starts from: 4096
/// nodes, or `0` (probe disabled) when `TESSEL_TEST_THREADS` is set — the CI
/// matrix sets that variable precisely to force every default-configured
/// solve through the work-stealing parallel paths, which the probe would
/// otherwise short-circuit for small instances. Like [`default_threads`],
/// the variable is read afresh on every call.
fn default_serial_warmstart() -> u64 {
    if std::env::var_os("TESSEL_TEST_THREADS").is_some() {
        0
    } else {
        4096
    }
}

/// Configuration of the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of branch nodes to expand before giving up with the best
    /// incumbent found so far. With multiple threads the budget is shared
    /// across all workers.
    pub max_nodes: u64,
    /// Optional wall-clock limit for a single solve call.
    pub time_limit: Option<Duration>,
    /// Maximum number of finish-time vectors kept in the dominance memo (`0`
    /// disables dominance pruning). In parallel mode the limit sizes the
    /// *shared* table, split evenly over its stripes, so a stripe that hashes
    /// more than its share may drop memos before the whole table is full
    /// (dropped memos only forfeit pruning, never correctness).
    pub dominance_memo_limit: usize,
    /// Number of worker threads running the work-stealing parallel search.
    ///
    /// `1` (the default) runs the classic single-threaded search; `0` uses
    /// [`std::thread::available_parallelism`]. All thread counts prove the
    /// same optimal makespan; only the tie-breaking among equally good
    /// schedules may differ. The default can be overridden with the
    /// `TESSEL_TEST_THREADS` environment variable (read at each
    /// `SolverConfig::default()` call), which the CI matrix uses to exercise
    /// the parallel paths in every default-configured test.
    pub threads: usize,
    /// Node budget of the **serial warmstart probe**: with multiple threads
    /// configured, the search first runs single-threaded for up to this many
    /// nodes and only spawns the worker pool if the instance survives the
    /// probe. Small instances — the bulk of Tessel's repetend enumeration
    /// probes — finish inside the budget and skip thread spawning, worker
    /// forking and shared-table setup entirely, which previously made tiny
    /// 4-thread solves ~5× slower than 1-thread ones. `0` disables the probe.
    /// The default (4096) can be suppressed by setting `TESSEL_TEST_THREADS`,
    /// which CI uses to force the parallel paths. Ignored when `threads <= 1`.
    pub serial_warmstart_nodes: u64,
    /// External abort conditions (cancellation token and/or wall-clock
    /// deadline), checked cooperatively at node-batch boundaries — by every
    /// parallel worker, inside stolen subtrees and while idling for work. An
    /// aborted solve returns its best incumbent (or `Unknown`) with
    /// `stats.complete == false`. The default never aborts.
    pub abort: Abort,
    /// Optional observer of the solve (see [`ProgressBoard`]): live nodes,
    /// memo drops and search depth, published with relaxed atomic stores at
    /// the existing node-batch boundaries, and the finished solve's
    /// [`SolveStats`], absorbed into the board's totals. A schedule search
    /// attaches one board to all its solvers; the daemon's
    /// `/v1/debug/inflight` reads it. The solver never records an incumbent
    /// there. The default observes nothing.
    pub progress: Option<ProgressBoard>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 2_000_000,
            time_limit: Some(Duration::from_secs(20)),
            dominance_memo_limit: 1 << 20,
            threads: default_threads(),
            serial_warmstart_nodes: default_serial_warmstart(),
            abort: Abort::none(),
            progress: None,
        }
    }
}

/// Equality ignores the [`SolverConfig::abort`] and [`SolverConfig::progress`]
/// handles: two configurations that explore the search space identically
/// compare equal even if they are attached to different cancellation tokens
/// or progress boards.
impl PartialEq for SolverConfig {
    fn eq(&self, other: &Self) -> bool {
        self.max_nodes == other.max_nodes
            && self.time_limit == other.time_limit
            && self.dominance_memo_limit == other.dominance_memo_limit
            && self.threads == other.threads
            && self.serial_warmstart_nodes == other.serial_warmstart_nodes
    }
}

impl Eq for SolverConfig {}

impl SolverConfig {
    /// A configuration without node or time limits; the search always proves
    /// optimality or infeasibility (possibly slowly).
    #[must_use]
    pub fn exhaustive() -> Self {
        SolverConfig {
            max_nodes: u64::MAX,
            time_limit: None,
            dominance_memo_limit: 1 << 22,
            ..SolverConfig::default()
        }
    }

    /// A configuration tuned for quick feasibility probes (used by Tessel's
    /// lazy-search optimisation).
    #[must_use]
    pub fn probe() -> Self {
        SolverConfig {
            max_nodes: 200_000,
            time_limit: Some(Duration::from_secs(2)),
            dominance_memo_limit: 1 << 18,
            ..SolverConfig::default()
        }
    }

    /// Returns a copy running with `threads` worker threads (see
    /// [`SolverConfig::threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different serial-warmstart budget (see
    /// [`SolverConfig::serial_warmstart_nodes`]).
    #[must_use]
    pub fn with_serial_warmstart(mut self, nodes: u64) -> Self {
        self.serial_warmstart_nodes = nodes;
        self
    }

    /// Returns a copy publishing live progress into `board` (see
    /// [`SolverConfig::progress`]).
    #[must_use]
    pub fn with_progress(mut self, board: ProgressBoard) -> Self {
        self.progress = Some(board);
        self
    }
}

/// The worker count a thread setting stands for: `0` means the machine's
/// available parallelism, anything else is taken literally. The one place
/// the workspace spells that rule — [`SolverConfig::threads`] and the
/// daemon's per-request thread ask both resolve through it.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Result of a solve call.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// The returned solution is proved optimal (minimisation) or satisfies the
    /// requested deadline (satisfiability).
    Optimal(Solution, SolveStats),
    /// A feasible solution was found but the search stopped before proving
    /// optimality.
    Feasible(Solution, SolveStats),
    /// The search space was exhausted without finding any feasible schedule.
    Infeasible(SolveStats),
    /// The search hit its limits without finding any feasible schedule; the
    /// instance may or may not be feasible.
    Unknown(SolveStats),
}

impl SolveOutcome {
    /// The best solution found, if any.
    #[must_use]
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SolveOutcome::Optimal(s, _) | SolveOutcome::Feasible(s, _) => Some(s),
            SolveOutcome::Infeasible(_) | SolveOutcome::Unknown(_) => None,
        }
    }

    /// Search statistics.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        match self {
            SolveOutcome::Optimal(_, s)
            | SolveOutcome::Feasible(_, s)
            | SolveOutcome::Infeasible(s)
            | SolveOutcome::Unknown(s) => s,
        }
    }

    /// `true` if the solution is proved optimal.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        matches!(self, SolveOutcome::Optimal(..))
    }

    /// `true` if the instance is proved infeasible.
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        matches!(self, SolveOutcome::Infeasible(_))
    }
}

/// The exact scheduling solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// The configuration this solver runs with.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Finds a minimum-makespan schedule for `instance`.
    ///
    /// # Errors
    ///
    /// Never fails for instances produced by [`InstanceBuilder`]; the
    /// `Result` is kept for forward compatibility with richer propagation.
    ///
    /// [`InstanceBuilder`]: crate::InstanceBuilder
    pub fn minimize(&self, instance: &Instance) -> Result<SolveOutcome> {
        self.run(instance, None, None)
    }

    /// Finds a minimum-makespan schedule, pruning any schedule that would not
    /// improve on `upper_bound` (exclusive).
    ///
    /// Tessel uses this during repetend enumeration: a candidate repetend is
    /// only worth solving to optimality if it can beat the best repetend found
    /// so far. When the instance's root lower bound (see
    /// [`one_machine_lower_bound`](crate::one_machine_lower_bound)) already
    /// reaches `upper_bound`, the call returns [`SolveOutcome::Infeasible`]
    /// with `complete` statistics and zero nodes, before any search state is
    /// built. Otherwise that bound is the floor of every node bound of the
    /// search: it cuts nodes once the incumbent has come down to it, and
    /// changes no answer.
    ///
    /// # Errors
    ///
    /// See [`Solver::minimize`].
    pub fn minimize_below(&self, instance: &Instance, upper_bound: u64) -> Result<SolveOutcome> {
        self.run(instance, Some(upper_bound), None)
    }

    /// Searches for *any* schedule finishing no later than `deadline` and
    /// stops at the first one found.
    ///
    /// This is the satisfiability mode used by the paper's lazy-search
    /// optimisation (§V) to validate that warmup and cooldown phases admit a
    /// schedule at all before spending time optimising them. A deadline below
    /// the root lower bound is refused, and the search floored, the same way
    /// as in [`Solver::minimize_below`].
    ///
    /// # Errors
    ///
    /// See [`Solver::minimize`].
    pub fn satisfy(&self, instance: &Instance, deadline: u64) -> Result<SolveOutcome> {
        self.run(instance, None, Some(deadline))
    }

    fn run(
        &self,
        instance: &Instance,
        upper_bound: Option<u64>,
        deadline: Option<u64>,
    ) -> Result<SolveOutcome> {
        let outcome = self.run_inner(instance, upper_bound, deadline)?;
        if let Some(board) = &self.config.progress {
            board.absorb(outcome.stats());
        }
        Ok(outcome)
    }

    /// Runs the bounded serial warmstart probe before a parallel solve (see
    /// [`SolverConfig::serial_warmstart_nodes`]).
    ///
    /// Returns `Some(complete)` if the probe settled the solve — exhausted
    /// the search space, satisfied the deadline, or hit a *real* limit
    /// (node/time budget, external abort) — and `None` if only the probe
    /// budget ran out, in which case the context is reset to the root state
    /// (the DFS unwinds its undo stack on return) with any incumbent the
    /// probe found kept as a pruning bound for the parallel search.
    fn warmstart_probe(&self, ctx: &mut SearchContext<'_>, started: Instant) -> Option<bool> {
        let probe = self.config.serial_warmstart_nodes;
        if probe == 0 {
            return None;
        }
        ctx.node_cap = ctx.stats.nodes.saturating_add(probe);
        ctx.dfs();
        ctx.node_cap = u64::MAX;
        if !ctx.stop {
            return Some(true);
        }
        if ctx.deadline_satisfied() {
            return Some(true);
        }
        let real_limit = ctx.stats.nodes >= self.config.max_nodes
            || self.config.abort.should_stop()
            || self
                .config
                .time_limit
                .is_some_and(|limit| started.elapsed() > limit);
        if real_limit {
            return Some(false);
        }
        ctx.stop = false;
        None
    }

    fn run_inner(
        &self,
        instance: &Instance,
        upper_bound: Option<u64>,
        deadline: Option<u64>,
    ) -> Result<SolveOutcome> {
        let started = Instant::now();
        let windows = TimeWindows::compute(instance, instance.total_work());
        let mut lower = device_load_lower_bound(instance).max(windows.critical_path(instance));
        // `upper` is exclusive: only schedules strictly below it are kept.
        let upper = match (upper_bound, deadline) {
            (_, Some(d)) => d.saturating_add(1),
            (Some(u), None) => u,
            (None, None) => u64::MAX,
        };

        // Root cut: a bounded solve whose root bound already reaches `upper`
        // is proved to have no schedule below it before any search state is
        // built. Below `upper`, the one-machine bound becomes the floor of
        // every node bound of the bounded solve. An unbounded `minimize`
        // never computes it: its `lower` shapes the node counts the
        // benchmark pins.
        if upper < u64::MAX && lower < upper {
            lower = lower.max(one_machine_bound(instance, &windows));
        }
        if lower >= upper {
            return Ok(SolveOutcome::Infeasible(SolveStats {
                complete: true,
                elapsed: started.elapsed(),
                ..SolveStats::default()
            }));
        }

        // Seed the incumbent with a greedy schedule when minimising; this both
        // provides an upper bound for pruning and guarantees a solution even
        // if the node limit is hit immediately. The seeds run before any
        // search state exists: a large share of Tessel's repetend instances
        // is settled right here and never needs one.
        let mut upper = upper;
        let mut stats = SolveStats::default();
        let mut seed: Option<Solution> = None;
        if deadline.is_none() {
            for priority in [
                GreedyPriority::LongestTail,
                GreedyPriority::MemoryAware,
                GreedyPriority::EarliestStart,
            ] {
                if let Some(sol) = greedy_with_windows(instance, &windows, priority) {
                    if sol.makespan() < upper {
                        upper = sol.makespan();
                        stats.incumbents += 1;
                        seed = Some(sol);
                    }
                }
            }
        }

        // Greedy already optimal (no need to branch at all), or an abort
        // that fired before branching (e.g. an already-expired per-request
        // deadline, which returns promptly: the greedy incumbent, if any, is
        // reported as an unproven feasible solution).
        let settled = seed.is_some() && upper <= lower;
        if settled || self.config.abort.should_stop() {
            stats.elapsed = started.elapsed();
            stats.complete = settled;
            return Ok(match seed {
                Some(solution) if settled => SolveOutcome::Optimal(solution, stats),
                Some(solution) => SolveOutcome::Feasible(solution, stats),
                None => SolveOutcome::Unknown(stats),
            });
        }

        let flat = FlatInstance::build(instance, &windows);
        let mut ctx = SearchContext::new(&flat, &self.config, deadline, upper, lower, started);
        ctx.stats = stats;
        if let Some(solution) = &seed {
            ctx.best_makespan = Some(solution.makespan());
            ctx.best_starts.copy_from_slice(solution.starts());
        }

        let threads = resolve_threads(self.config.threads);
        let complete = if threads > 1 {
            let probe_started = Instant::now();
            let probed = self.warmstart_probe(&mut ctx, started);
            ctx.stats.warmstart_micros += probe_started.elapsed().as_micros() as u64;
            match probed {
                // Small instance: the bounded serial probe settled it without
                // spawning a single worker thread.
                Some(done) => done,
                None => {
                    let parallel_started = Instant::now();
                    let done = parallel::run_parallel(&mut ctx, threads);
                    ctx.stats.parallel_micros += parallel_started.elapsed().as_micros() as u64;
                    done
                }
            }
        } else {
            ctx.dfs();
            !ctx.stop || ctx.deadline_satisfied()
        };
        ctx.stats.elapsed = started.elapsed();
        ctx.stats.complete = complete;
        // Publish the final sub-batch so a finished solve's board matches
        // its node count even when the solve never reached a flush boundary.
        ctx.flush();

        let stats = ctx.stats.clone();
        Ok(match (ctx.best_makespan, stats.complete) {
            (Some(_), true) => {
                SolveOutcome::Optimal(Solution::new(ctx.best_starts, instance), stats)
            }
            (Some(_), false) => {
                SolveOutcome::Feasible(Solution::new(ctx.best_starts, instance), stats)
            }
            (None, true) => SolveOutcome::Infeasible(stats),
            (None, false) => SolveOutcome::Unknown(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::task::{Task, TaskId};

    /// Builds the classic V-shape (1F1B) placement over `devices` pipeline
    /// stages and `micro_batches` micro-batches with unit forward cost and
    /// `bwd` backward cost.
    fn v_shape(devices: usize, micro_batches: usize, bwd: u64, capacity: Option<i64>) -> Instance {
        let mut b = InstanceBuilder::new(devices);
        b.set_memory_capacity(capacity);
        for mb in 0..micro_batches {
            let mut prev: Option<TaskId> = None;
            let mut fwd_ids = Vec::new();
            for d in 0..devices {
                let id = b.add_task(format!("f{d}.{mb}"), 1, [d], 1).unwrap();
                if let Some(p) = prev {
                    b.add_precedence(p, id).unwrap();
                }
                prev = Some(id);
                fwd_ids.push(id);
            }
            for d in (0..devices).rev() {
                let id = b.add_task(format!("b{d}.{mb}"), bwd, [d], -1).unwrap();
                b.add_precedence(prev.unwrap(), id).unwrap();
                prev = Some(id);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn optimal_for_single_micro_batch_chain() {
        let inst = v_shape(2, 1, 2, None);
        let outcome = Solver::new(SolverConfig::default())
            .minimize(&inst)
            .unwrap();
        assert!(outcome.is_optimal());
        // 1 + 1 + 2 + 2: fully sequential chain.
        assert_eq!(outcome.solution().unwrap().makespan(), 6);
    }

    #[test]
    fn optimal_overlaps_micro_batches() {
        // 2 devices, 3 micro-batches, fwd=1, bwd=2. The critical path of one
        // micro-batch is 6; device load is 3 * 3 = 9. A pipelined schedule
        // reaches the device-load bound plus the unavoidable ramp.
        let inst = v_shape(2, 3, 2, None);
        let outcome = Solver::new(SolverConfig::default())
            .minimize(&inst)
            .unwrap();
        assert!(outcome.is_optimal());
        let sol = outcome.solution().unwrap();
        sol.validate(&inst).unwrap();
        // Sequential would be 18; pipelining must do substantially better and
        // can never beat the busiest-device load (9) plus pipeline fill.
        assert!(sol.makespan() <= 12, "makespan {}", sol.makespan());
        assert!(sol.makespan() >= 9);
    }

    #[test]
    fn minimize_matches_brute_force_on_tiny_instance() {
        // Cross-check the branch-and-bound against exhaustive enumeration of
        // all per-device orders on a tiny instance.
        let mut b = InstanceBuilder::new(2);
        let a = b.add_task("a", 2, [0], 1).unwrap();
        let c = b.add_task("c", 3, [1], 1).unwrap();
        let d = b.add_task("d", 1, [0], -1).unwrap();
        let e = b.add_task("e", 2, [1], -1).unwrap();
        b.add_precedence(a, c).unwrap();
        b.add_precedence(c, d).unwrap();
        b.add_precedence(a, e).unwrap();
        let inst = b.build().unwrap();
        let outcome = Solver::new(SolverConfig::exhaustive())
            .minimize(&inst)
            .unwrap();
        assert!(outcome.is_optimal());
        // Optimal: a@0-2, c@2-5, e@2..4 cannot run (device 1 busy with c) so
        // e@5-7 or e before c... enumerate by hand: device1 order (c,e):
        // c@2-5, e@5-7, d@5-6 -> makespan 7. Order (e,c): e@2-4, c@4-7,
        // d@7-8 -> 8. So optimum is 7.
        assert_eq!(outcome.solution().unwrap().makespan(), 7);
    }

    #[test]
    fn memory_capacity_forces_longer_schedules() {
        // With unconstrained memory the two micro-batches overlap; with a
        // capacity of 1 the second forward must wait for the first backward.
        let unconstrained = v_shape(1, 2, 1, None);
        let constrained = v_shape(1, 2, 1, Some(1));
        let solver = Solver::new(SolverConfig::exhaustive());
        let free = solver.minimize(&unconstrained).unwrap();
        let tight = solver.minimize(&constrained).unwrap();
        assert!(free.is_optimal() && tight.is_optimal());
        let free_sol = free.solution().unwrap();
        let tight_sol = tight.solution().unwrap();
        tight_sol.validate(&constrained).unwrap();
        assert!(tight_sol.makespan() >= free_sol.makespan());
    }

    #[test]
    fn infeasible_memory_is_reported() {
        let mut b = InstanceBuilder::new(1);
        b.set_memory_capacity(Some(1));
        b.set_initial_memory(vec![1]).unwrap();
        let alloc = b.add_task("alloc", 1, [0], 1).unwrap();
        let release = b.add_task("release", 1, [0], -2).unwrap();
        b.add_precedence(alloc, release).unwrap();
        let inst = b.build().unwrap();
        let outcome = Solver::new(SolverConfig::exhaustive())
            .minimize(&inst)
            .unwrap();
        assert!(outcome.is_infeasible());
    }

    #[test]
    fn satisfy_finds_schedule_within_deadline() {
        let inst = v_shape(2, 2, 2, None);
        let solver = Solver::new(SolverConfig::default());
        let optimal = solver.minimize(&inst).unwrap();
        let best = optimal.solution().unwrap().makespan();
        let sat = solver.satisfy(&inst, best).unwrap();
        assert!(sat.solution().is_some());
        assert!(sat.solution().unwrap().makespan() <= best);
        // A deadline below the lower bound is unsatisfiable.
        let impossible = solver.satisfy(&inst, 3).unwrap();
        assert!(impossible.solution().is_none());
    }

    #[test]
    fn minimize_below_prunes_non_improving_schedules() {
        let inst = v_shape(2, 2, 2, None);
        let solver = Solver::new(SolverConfig::default());
        let optimal = solver.minimize(&inst).unwrap();
        let best = optimal.solution().unwrap().makespan();
        // Asking for something strictly better than the optimum: no solution.
        let outcome = solver.minimize_below(&inst, best).unwrap();
        assert!(outcome.solution().is_none() || outcome.solution().unwrap().makespan() < best);
    }

    #[test]
    fn solutions_are_always_valid() {
        for devices in 1..=3usize {
            for mbs in 1..=3usize {
                let inst = v_shape(devices, mbs, 3, Some(devices as i64 + 1));
                let outcome = Solver::new(SolverConfig::default())
                    .minimize(&inst)
                    .unwrap();
                if let Some(sol) = outcome.solution() {
                    sol.validate(&inst).expect("solver output must be valid");
                }
            }
        }
    }

    #[test]
    fn multi_device_tasks_block_all_their_devices() {
        let mut b = InstanceBuilder::new(2);
        let tp = b.add_task("tensor-parallel", 4, [0, 1], 0).unwrap();
        let solo0 = b.add_task("solo0", 1, [0], 0).unwrap();
        let solo1 = b.add_task("solo1", 1, [1], 0).unwrap();
        let _ = (tp, solo0, solo1);
        let inst = b.build().unwrap();
        let outcome = Solver::new(SolverConfig::exhaustive())
            .minimize(&inst)
            .unwrap();
        let sol = outcome.solution().unwrap();
        sol.validate(&inst).unwrap();
        // The tensor-parallel task occupies both devices for 4 units; the two
        // solo tasks can run in parallel before or after it: makespan 5.
        assert_eq!(sol.makespan(), 5);
    }

    #[test]
    fn release_dates_are_respected() {
        let mut b = InstanceBuilder::new(1);
        b.push_task(Task::new("late", 1, [0], 0).with_release(10))
            .unwrap();
        b.add_task("early", 2, [0], 0).unwrap();
        let inst = b.build().unwrap();
        let outcome = Solver::new(SolverConfig::exhaustive())
            .minimize(&inst)
            .unwrap();
        let sol = outcome.solution().unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.makespan(), 11);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let inst = v_shape(3, 4, 2, None);
        let config = SolverConfig {
            max_nodes: 5,
            time_limit: None,
            dominance_memo_limit: 0,
            ..SolverConfig::default()
        };
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        // The greedy seed guarantees a feasible answer even with a tiny node
        // budget; it just is not proved optimal.
        match outcome {
            SolveOutcome::Feasible(sol, stats) => {
                assert!(!stats.complete);
                sol.validate(&inst).unwrap();
            }
            SolveOutcome::Optimal(sol, _) => {
                // If greedy happens to hit the lower bound, optimality can
                // still be proved without search.
                sol.validate(&inst).unwrap();
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn stats_report_search_effort() {
        let inst = v_shape(2, 3, 2, None);
        let outcome = Solver::new(SolverConfig::default())
            .minimize(&inst)
            .unwrap();
        let stats = outcome.stats();
        assert!(stats.nodes > 0);
        assert!(stats.complete);
        assert!(stats.incumbents >= 1);
    }

    #[test]
    fn the_board_totals_every_solve() {
        let board = ProgressBoard::new();
        let solver = Solver::new(SolverConfig::default().with_progress(board.clone()));
        let inst = v_shape(2, 2, 2, None);
        let first = solver.minimize(&inst).unwrap();
        let second = solver.minimize(&inst).unwrap();
        let totals = board.totals();
        assert_eq!(totals.solves, 2);
        assert_eq!(totals.nodes, first.stats().nodes + second.stats().nodes);
        assert_eq!(board.snapshot().nodes, totals.nodes);
    }

    #[test]
    fn parallel_solver_proves_the_same_makespan() {
        for devices in 1..=3usize {
            for mbs in 1..=3usize {
                let inst = v_shape(devices, mbs, 2, Some(devices as i64 + 1));
                let serial = Solver::new(SolverConfig::default().with_threads(1))
                    .minimize(&inst)
                    .unwrap();
                assert!(serial.is_optimal());
                let serial_sol = serial.solution().unwrap();
                for threads in [2usize, 4, 8] {
                    // Warmstart disabled: this test must drive the instances
                    // through the actual work-stealing pool at every thread
                    // count, not the serial probe shortcut.
                    let config = SolverConfig::default()
                        .with_threads(threads)
                        .with_serial_warmstart(0);
                    let parallel = Solver::new(config).minimize(&inst).unwrap();
                    assert!(parallel.is_optimal());
                    let parallel_sol = parallel.solution().unwrap();
                    parallel_sol.validate(&inst).unwrap();
                    assert_eq!(
                        serial_sol.makespan(),
                        parallel_sol.makespan(),
                        "threads={threads} devices={devices} mbs={mbs}"
                    );
                }
            }
        }
    }

    #[test]
    fn work_stealing_shares_the_dominance_table() {
        // A search space big enough that several workers expand nodes; the
        // shared table must keep the total multi-thread node count in the
        // same ballpark as serial (private per-worker memos ran ~2.7x).
        let inst = v_shape(3, 4, 2, None);
        let serial = Solver::new(SolverConfig::exhaustive().with_threads(1))
            .minimize(&inst)
            .unwrap();
        let parallel = Solver::new(
            SolverConfig::exhaustive()
                .with_threads(4)
                .with_serial_warmstart(0),
        )
        .minimize(&inst)
        .unwrap();
        assert!(serial.is_optimal() && parallel.is_optimal());
        assert_eq!(
            serial.solution().unwrap().makespan(),
            parallel.solution().unwrap().makespan()
        );
        let s = serial.stats();
        let p = parallel.stats();
        // Sanity rather than a tight perf bound (timing-dependent): shared
        // pruning must keep duplicated exploration well below the private-
        // memo regime, and the counters must stay internally consistent.
        assert!(
            p.nodes <= s.nodes * 2,
            "parallel explored {} nodes vs serial {}",
            p.nodes,
            s.nodes
        );
        assert!(p.shared_memo_hits <= p.pruned_dominance);
    }

    #[test]
    fn parallel_satisfy_and_infeasibility_agree_with_serial() {
        let inst = v_shape(2, 2, 2, None);
        let serial = Solver::new(SolverConfig::default().with_threads(1));
        let parallel = Solver::new(
            SolverConfig::default()
                .with_threads(3)
                .with_serial_warmstart(0),
        );
        let best = serial
            .minimize(&inst)
            .unwrap()
            .solution()
            .unwrap()
            .makespan();
        let sat = parallel.satisfy(&inst, best).unwrap();
        assert!(sat.solution().is_some());
        assert!(sat.solution().unwrap().makespan() <= best);
        let impossible = parallel.satisfy(&inst, 3).unwrap();
        assert!(impossible.solution().is_none());
        assert!(impossible.is_infeasible());
    }

    #[test]
    fn parallel_node_budget_is_respected() {
        // A search space far larger than the budget: the shared counter must
        // stop all workers promptly (overshoot bounded by one flush batch
        // per worker, which the shrunken flush interval keeps small).
        let inst = v_shape(3, 5, 2, None);
        let config = SolverConfig {
            max_nodes: 500,
            time_limit: None,
            dominance_memo_limit: 0,
            threads: 4,
            serial_warmstart_nodes: 0,
            ..SolverConfig::default()
        };
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        let stats = outcome.stats();
        assert!(!stats.complete);
        assert!(
            stats.nodes < 2_000,
            "expanded {} nodes against a budget of 500",
            stats.nodes
        );
        // The greedy seed still guarantees a feasible schedule.
        outcome.solution().unwrap().validate(&inst).unwrap();
    }

    #[test]
    fn pre_cancelled_solve_returns_without_branching() {
        let inst = v_shape(3, 4, 2, None);
        let config = SolverConfig::default();
        config.abort.cancel.cancel();
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        // The greedy seed still yields a feasible schedule, but nothing is
        // proved and (almost) no nodes are expanded.
        assert!(!outcome.stats().complete);
        assert!(outcome.stats().nodes <= 1);
        if let Some(sol) = outcome.solution() {
            sol.validate(&inst).unwrap();
        }
    }

    #[test]
    fn expired_deadline_stops_the_search_cooperatively() {
        use crate::cancel::Abort;
        // A large instance with an immediately-expired deadline: the abort is
        // observed at the first batch boundary, long before exhaustion.
        let inst = v_shape(4, 6, 2, None);
        let config = SolverConfig {
            max_nodes: u64::MAX,
            time_limit: None,
            abort: Abort::at(Instant::now()),
            ..SolverConfig::default()
        };
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        assert!(!outcome.stats().complete);
    }

    #[test]
    fn parallel_workers_observe_cancellation() {
        use crate::cancel::Abort;
        let inst = v_shape(4, 6, 2, None);
        let config = SolverConfig {
            max_nodes: u64::MAX,
            time_limit: None,
            threads: 3,
            serial_warmstart_nodes: 0,
            abort: Abort::at(Instant::now()),
            ..SolverConfig::default()
        };
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        assert!(!outcome.stats().complete);
    }

    #[test]
    fn deadline_interrupts_stolen_subtrees_promptly() {
        use crate::cancel::Abort;
        // A 4-thread search on an instance whose full exploration takes far
        // longer than the deadline: work has been stolen and spread across
        // workers by the time the deadline fires, and every worker — busy in
        // a stolen subtree or idling for work — must observe it at its next
        // batch boundary. Generous wall-clock margin to stay robust on slow
        // shared CI hosts.
        let inst = v_shape(4, 8, 3, None);
        let config = SolverConfig {
            max_nodes: u64::MAX,
            time_limit: None,
            threads: 4,
            serial_warmstart_nodes: 0,
            abort: Abort::at(Instant::now() + Duration::from_millis(50)),
            ..SolverConfig::default()
        };
        let started = Instant::now();
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        let elapsed = started.elapsed();
        assert!(!outcome.stats().complete);
        assert!(
            elapsed < Duration::from_secs(10),
            "4-thread search ignored its deadline for {elapsed:?}"
        );
        // The interrupted search still reports its greedy incumbent.
        if let Some(sol) = outcome.solution() {
            sol.validate(&inst).unwrap();
        }
    }

    #[test]
    fn config_equality_ignores_abort_handles() {
        let a = SolverConfig::default();
        let b = SolverConfig::default();
        assert_eq!(a, b);
        b.abort.cancel.cancel();
        assert_eq!(a, b);
        let c = SolverConfig::default().with_progress(ProgressBoard::new());
        assert_eq!(a, c);
        assert_ne!(
            a,
            SolverConfig::default().with_serial_warmstart(a.serial_warmstart_nodes + 1)
        );
    }

    #[test]
    fn warmstart_probe_solves_small_instances_without_stealing() {
        // A tiny instance finishes inside the probe budget: the result is
        // still proved optimal, and no subtree was ever stolen because no
        // worker pool ran.
        let inst = v_shape(2, 2, 2, None);
        let config = SolverConfig::default()
            .with_threads(4)
            .with_serial_warmstart(1_000_000);
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        assert!(outcome.is_optimal());
        assert_eq!(outcome.stats().steals, 0);
        assert_eq!(outcome.stats().steal_failures, 0);
        let reference = Solver::new(SolverConfig::default().with_threads(1))
            .minimize(&inst)
            .unwrap();
        assert_eq!(
            outcome.solution().unwrap().makespan(),
            reference.solution().unwrap().makespan()
        );
    }

    #[test]
    fn warmstart_probe_escalates_to_the_pool_and_stays_exact() {
        // A probe budget of 1 node cannot finish anything: the solve must
        // fall through to the parallel pool and still prove the optimum.
        let inst = v_shape(3, 3, 2, None);
        let reference = Solver::new(SolverConfig::default().with_threads(1))
            .minimize(&inst)
            .unwrap();
        let config = SolverConfig::default()
            .with_threads(4)
            .with_serial_warmstart(1);
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        assert!(outcome.is_optimal());
        assert_eq!(
            outcome.solution().unwrap().makespan(),
            reference.solution().unwrap().makespan()
        );
    }

    #[test]
    fn warmstart_probe_respects_the_real_node_budget() {
        // When the configured node budget is smaller than the probe budget,
        // the probe must report the limit stop instead of escalating and
        // spending the budget a second time.
        let inst = v_shape(3, 5, 2, None);
        let config = SolverConfig {
            max_nodes: 100,
            time_limit: None,
            dominance_memo_limit: 0,
            threads: 4,
            serial_warmstart_nodes: 1_000_000,
            ..SolverConfig::default()
        };
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        let stats = outcome.stats();
        assert!(!stats.complete);
        assert!(
            stats.nodes <= 200,
            "expanded {} nodes against a budget of 100",
            stats.nodes
        );
        outcome.solution().unwrap().validate(&inst).unwrap();
    }

    #[test]
    fn progress_board_tracks_a_serial_solve_exactly() {
        let board = ProgressBoard::new();
        let inst = v_shape(2, 3, 2, None);
        let config = SolverConfig::default()
            .with_threads(1)
            .with_progress(board.clone());
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        let snap = board.snapshot();
        // Serial: every node passes the batch counter, and the final
        // sub-batch is flushed on return, so the board matches the stats.
        assert_eq!(snap.nodes, outcome.stats().nodes);
        assert_eq!(board.totals().nodes, outcome.stats().nodes);
        // Incumbents are the board owner's to record, not the solver's.
        assert_eq!(snap.incumbent, None);
        assert_eq!(snap.incumbents, 0);
    }

    #[test]
    fn progress_board_tracks_a_parallel_solve() {
        let board = ProgressBoard::new();
        let inst = v_shape(3, 4, 2, None);
        let config = SolverConfig::default()
            .with_threads(4)
            .with_serial_warmstart(0)
            .with_progress(board.clone());
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        assert!(outcome.is_optimal());
        let stats = outcome.stats();
        let snap = board.snapshot();
        // Every worker flushes its batches on the way out, and the solve's
        // last flush publishes the root node `run_parallel` expands.
        assert_eq!(snap.nodes, stats.nodes);
        assert_eq!(snap.memo_drops, stats.memo_drops);
        assert_eq!(board.totals().nodes, stats.nodes);
        assert_eq!(snap.incumbent, None);
    }

    /// Deterministic splitmix64 (no external RNG in the solver crate).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A small random instance with everything the incremental state has to
    /// get right: release dates, zero-length tasks, tasks on two devices,
    /// a random precedence DAG and (half the time) a memory cap.
    fn random_instance(state: &mut u64) -> Instance {
        let devices = 1 + (next(state) % 3) as usize;
        let tasks = 6 + (next(state) % 9) as usize;
        let mut b = InstanceBuilder::new(devices);
        if next(state).is_multiple_of(2) {
            b.set_memory_capacity(Some(2 + (next(state) % 3) as i64));
        }
        for t in 0..tasks {
            let first = (next(state) % devices as u64) as usize;
            let second = (next(state) % devices as u64) as usize;
            let on: Vec<usize> = if next(state).is_multiple_of(4) && second != first {
                vec![first, second]
            } else {
                vec![first]
            };
            let memory = (next(state) % 3) as i64 - 1;
            let mut task = Task::new(format!("t{t}"), next(state) % 4, on, memory);
            if next(state).is_multiple_of(4) {
                task = task.with_release(next(state) % 6);
            }
            b.push_task(task).unwrap();
        }
        for succ in 1..tasks {
            for pred in 0..succ {
                if next(state).is_multiple_of(5) {
                    b.add_precedence(TaskId::from_index(pred), TaskId::from_index(succ))
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn incremental_state_matches_recomputation_on_random_solves() {
        // The engine's `#[cfg(test)]` hooks do the work: at every expanded
        // node `est`, the bound and the ready list are compared with a
        // from-scratch pass, and every search that returns is compared with
        // a fresh root. This test only has to drive enough different solves
        // through them, serially and through the worker pool. Bounded solves
        // stop at the one-machine floor, so the battery needs 200 instances
        // to reach the 20,000 nodes it asks for.
        let mut state = 0x007e_55e1_u64;
        let mut nodes = 0;
        for case in 0..200 {
            let inst = random_instance(&mut state);
            let serial = Solver::new(SolverConfig::exhaustive().with_threads(1));
            let pool = Solver::new(
                SolverConfig::exhaustive()
                    .with_threads(2)
                    .with_serial_warmstart(0),
            );
            let reference = serial.minimize(&inst).unwrap();
            assert!(reference.stats().complete, "case {case}");
            nodes += reference.stats().nodes;
            let best = reference.solution().map(Solution::makespan);
            assert_eq!(
                pool.minimize(&inst)
                    .unwrap()
                    .solution()
                    .map(Solution::makespan),
                best,
                "case {case}"
            );
            let Some(best) = best else { continue };
            for solver in [&serial, &pool] {
                let below = solver.minimize_below(&inst, best).unwrap();
                assert!(below.is_infeasible(), "case {case}");
                let above = solver.minimize_below(&inst, best + 1).unwrap();
                assert_eq!(above.solution().map(Solution::makespan), Some(best));
                let met = solver.satisfy(&inst, best).unwrap();
                met.solution().unwrap().validate(&inst).unwrap();
                nodes += below.stats().nodes + above.stats().nodes + met.stats().nodes;
                if best > 0 {
                    assert!(solver.satisfy(&inst, best - 1).unwrap().is_infeasible());
                }
            }
        }
        assert!(nodes > 20_000, "the battery only expanded {nodes} nodes");
    }

    #[test]
    fn a_full_serial_memo_reports_its_drops() {
        let inst = v_shape(2, 4, 2, None);
        let reference = Solver::new(SolverConfig::exhaustive().with_threads(1))
            .minimize(&inst)
            .unwrap();
        assert_eq!(reference.stats().memo_drops, 0);
        let board = ProgressBoard::new();
        let starved = SolverConfig {
            dominance_memo_limit: 64,
            ..SolverConfig::exhaustive().with_threads(1)
        };
        let outcome = Solver::new(starved.with_progress(board.clone()))
            .minimize(&inst)
            .unwrap();
        // Still exact, but the search had to forget states — and says so,
        // in its statistics and on the live board.
        assert!(outcome.is_optimal());
        assert_eq!(
            outcome.solution().unwrap().makespan(),
            reference.solution().unwrap().makespan()
        );
        assert!(outcome.stats().nodes > reference.stats().nodes);
        assert!(outcome.stats().memo_drops > 0);
        assert_eq!(board.snapshot().memo_drops, outcome.stats().memo_drops);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let config = SolverConfig::default().with_threads(0);
        assert!(resolve_threads(config.threads) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let inst = v_shape(2, 2, 2, None);
        let outcome = Solver::new(config).minimize(&inst).unwrap();
        assert!(outcome.is_optimal());
    }
}
