//! The branch-and-bound engine: flattened instance data and the per-worker
//! search context running the DFS hot loop.
//!
//! A node costs what its decision *changes*, not what exists. The dynamic
//! earliest starts (`est`), the node lower bound and the list of ready tasks
//! are persistent state that [`SearchContext::apply`] updates and
//! [`SearchContext::unapply`] restores through undo stacks; nothing is
//! recomputed per node (the from-scratch computation,
//! [`SearchContext::scan_state`], initialises the root and serves the tests
//! as oracle). A child is counted, bounded and probed against the dominance
//! memo *before* it is applied ([`SearchContext::enter`]), so the four nodes
//! in five that are pruned on entry never touch the search state. The branch
//! loop is allocation-free in steady state: candidate lists are drawn from a
//! per-depth buffer pool, the scheduled-task bitmask is maintained
//! incrementally, and the dominance memo answers a lookup from one cache
//! line (see [`super::dominance`]).
//!
//! # Why the incremental bound is the recomputed bound
//!
//! The bound of a node is the maximum of a constant (the root bound), a term
//! `finish[d] + remaining[d]` per device and a term `est[j] + chain[j]` per
//! unscheduled task (`chain` = duration + tail). Scheduling task `i` with
//! finish `f` raises `finish[d]` to `f` on `i`'s devices and `est[j]` to at
//! least `f` for the unscheduled tasks on those devices; every other term is
//! untouched and every touched term only grows (`f - duration[i]` is `i`'s
//! start, which is at least the old `finish[d]`). The one term that
//! *leaves* the maximum is `i`'s own, `f + tail[i]`: if `i` has a successor,
//! the one realising `tail[i]` is unscheduled and now starts no earlier than
//! `f`, so its term is at least as large; if it has none the term is `f`,
//! which the device term covers. Hence
//! `bound(child) = max(bound(parent), f + remaining'[d], f + chain[j])`
//! over `i`'s devices `d` and the unscheduled `j ≠ i` on them — exactly, not
//! as a relaxation (successors on other devices add nothing new: their
//! `f + chain` is at most `i`'s own old term).
//!
//! One [`SearchContext`] is either the single-threaded search (no shared
//! state) or one worker of the work-stealing parallel search (see
//! [`super::parallel`]): the same DFS serves both, with the parallel hooks —
//! shared incumbent bound, shared dominance table, subtree offloading —
//! behind an `Option` that the serial path never touches.

use super::dominance::DominanceTable;
use super::frontier::SubtreeTask;
use super::parallel::{SharedSearch, STEAL_DEPTH};
use super::SolverConfig;
use crate::instance::Instance;
use crate::propagate::TimeWindows;
use crate::stats::SolveStats;
use crate::task::TaskId;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// How many nodes a worker expands between flushes of its node count to the
/// shared counter (and checks of the shared limits).
pub(super) const FLUSH_INTERVAL: u64 = 1024;

/// Cache-friendly flattened copy of an [`Instance`] plus its static time
/// windows.
///
/// The DFS touches per-task durations, device sets, successor lists and
/// chains millions of times per second; reading them through `Task` structs
/// (with their labels and per-task `Vec`s) costs a pointer chase and drags
/// cold `String` data through the cache. Flattening everything into dense
/// offset-indexed arrays once per solve roughly halves the per-node cost and
/// lets parallel workers share one read-only copy.
pub(super) struct FlatInstance {
    pub(super) num_tasks: usize,
    pub(super) num_devices: usize,
    memory_capacity: Option<i64>,
    pub(super) initial_memory: Vec<i64>,
    device_loads: Vec<u64>,
    durations: Vec<u64>,
    memories: Vec<i64>,
    /// `max(release, longest-path EST)` per task.
    static_est: Vec<u64>,
    /// Duration plus the longest successor chain that must follow each task:
    /// what a task adds to the makespan on top of its start.
    chains: Vec<u64>,
    dev_off: Vec<u32>,
    dev_flat: Vec<u32>,
    pred_off: Vec<u32>,
    pred_flat: Vec<u32>,
    succ_off: Vec<u32>,
    succ_flat: Vec<u32>,
    /// The tasks running on each device — the only ones whose earliest start
    /// a decision on that device can move — longest chain first.
    devtask_off: Vec<u32>,
    devtask_flat: Vec<u32>,
}

/// Flattened adjacency: `lists[off[i]..off[i + 1]]` are the entries of `i`.
fn flatten(lists: impl Iterator<Item = impl Iterator<Item = usize>>) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32];
    let mut flat = Vec::new();
    for list in lists {
        flat.extend(list.map(|x| x as u32));
        off.push(flat.len() as u32);
    }
    (off, flat)
}

impl FlatInstance {
    pub(super) fn build(instance: &Instance, windows: &TimeWindows) -> Self {
        let n = instance.num_tasks();
        let ids = || (0..n).map(TaskId::from_index);
        let (dev_off, dev_flat) =
            flatten(ids().map(|id| instance.task(id).devices.iter().copied()));
        let (pred_off, pred_flat) =
            flatten(ids().map(|id| instance.predecessors(id).iter().copied()));
        let (succ_off, succ_flat) =
            flatten(ids().map(|id| instance.successors(id).iter().copied()));
        let chains: Vec<u64> = ids()
            .map(|id| instance.task(id).duration + windows.tail(id))
            .collect();
        let mut on_device = vec![Vec::new(); instance.num_devices()];
        for (i, task) in instance.tasks().iter().enumerate() {
            for &d in &task.devices {
                on_device[d].push(i);
            }
        }
        for tasks in &mut on_device {
            tasks.sort_by_key(|&i| std::cmp::Reverse(chains[i]));
        }
        let (devtask_off, devtask_flat) = flatten(on_device.iter().map(|l| l.iter().copied()));
        FlatInstance {
            num_tasks: n,
            num_devices: instance.num_devices(),
            memory_capacity: instance.memory_capacity(),
            initial_memory: instance.initial_memory().to_vec(),
            device_loads: (0..instance.num_devices())
                .map(|d| instance.device_load(d))
                .collect(),
            durations: instance.tasks().iter().map(|t| t.duration).collect(),
            memories: instance.tasks().iter().map(|t| t.memory).collect(),
            static_est: ids()
                .map(|id| instance.task(id).release.max(windows.earliest_start(id)))
                .collect(),
            chains,
            dev_off,
            dev_flat,
            pred_off,
            pred_flat,
            succ_off,
            succ_flat,
            devtask_off,
            devtask_flat,
        }
    }

    /// Capacity of the dominance memo of a search over this instance, or
    /// `None` if it runs without one: pruning switched off, or more tasks
    /// than the 128-bit scheduled-task mask the memo is keyed by can hold.
    pub(super) fn memo_limit(&self, config: &SolverConfig) -> Option<usize> {
        (config.dominance_memo_limit > 0 && self.num_tasks <= 128)
            .then_some(config.dominance_memo_limit)
    }

    #[inline]
    fn devices(&self, i: usize) -> &[u32] {
        &self.dev_flat[self.dev_off[i] as usize..self.dev_off[i + 1] as usize]
    }

    #[inline]
    fn preds(&self, i: usize) -> &[u32] {
        &self.pred_flat[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    #[inline]
    fn succs(&self, i: usize) -> &[u32] {
        &self.succ_flat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    #[inline]
    fn device_tasks(&self, d: usize) -> &[u32] {
        &self.devtask_flat[self.devtask_off[d] as usize..self.devtask_off[d + 1] as usize]
    }
}

/// What the entry tests of a node decided (see [`SearchContext::enter`]).
enum Entry {
    /// Stopped by a limit, or pruned by the bound or the dominance memo.
    Closed,
    /// Every task is scheduled: a complete schedule.
    Leaf,
    /// Worth branching on; carries the node's lower bound.
    Open(u64),
}

/// Undo-stack watermarks and the parent's bound, as [`SearchContext::apply`]
/// found them.
type Applied = (usize, usize, u64);

/// Mutable search state threaded through the DFS.
pub(super) struct SearchContext<'a> {
    pub(super) flat: &'a FlatInstance,
    pub(super) config: &'a SolverConfig,
    pub(super) deadline: Option<u64>,
    pub(super) best_makespan: Option<u64>,
    pub(super) best_starts: Vec<u64>,
    pub(super) upper: u64,
    pub(super) stats: SolveStats,
    pub(super) started: Instant,
    dominance: Option<DominanceTable>,
    pub(super) stop: bool,
    scheduled: Vec<bool>,
    cur_mask: u128,
    starts: Vec<u64>,
    remaining_preds: Vec<u32>,
    device_finish: Vec<u64>,
    device_mem: Vec<i64>,
    device_remaining: Vec<u64>,
    pub(super) unscheduled: usize,
    /// The unscheduled tasks whose predecessors are all scheduled, in no
    /// particular order: swap-removed on `apply`, newly ready successors
    /// pushed, both undone in strict LIFO order so a subtree leaves the list
    /// exactly as it found it.
    ready: Vec<u32>,
    /// Position of each task in `ready` (kept after removal: it is where
    /// `unapply` puts the task back).
    ready_pos: Vec<u32>,
    /// Root lower bound of the instance; the floor of every node bound.
    lower: u64,
    /// Dynamic earliest start of every unscheduled task in the current
    /// state: static EST, scheduled predecessors and device availability.
    est: Vec<u64>,
    /// Lower bound on the best completion reachable from the current state.
    pub(super) bound: u64,
    /// Persistent undo stack: `(device, finish, mem, remaining)` snapshots.
    undo: Vec<(u32, u64, i64, u64)>,
    /// Undo stack for `est`: `(task, previous value)` snapshots.
    undo_est: Vec<(u32, u64)>,
    /// Per-depth candidate buffers, reused across visits.
    cand_pool: Vec<Vec<(u64, u64, u32)>>,
    /// Decision path from the root to the current node (task ids, in apply
    /// order); what [`SubtreeTask`]s are cut from.
    path: Vec<u32>,
    pub(super) shared: Option<&'a SharedSearch>,
    /// This worker's id within the parallel pool (0 for the serial search);
    /// stamped on shared-dominance records to attribute cross-worker hits.
    worker: u32,
    nodes_since_flush: u64,
    /// `stats.memo_drops` as of the last flush to the progress board.
    drops_flushed: u64,
    /// The device finish vector of the node under test — the current one
    /// with the tested child's finish written over its devices — built here
    /// so the memo is probed without applying the child.
    probe_finish: Vec<u64>,
    /// Reusable buffer the lock-free shared dominance table copies candidate
    /// finish vectors into before comparing (a torn read must never alias the
    /// live search state); kept on the context so the hot loop stays
    /// allocation-free.
    dom_scratch: Vec<u64>,
    /// Additional node cap for the serial search, tightened by the
    /// warmstart probe (see [`SolverConfig::serial_warmstart_nodes`]);
    /// `u64::MAX` everywhere else.
    pub(super) node_cap: u64,
}

impl<'a> SearchContext<'a> {
    pub(super) fn new(
        flat: &'a FlatInstance,
        config: &'a SolverConfig,
        deadline: Option<u64>,
        upper: u64,
        lower: u64,
        started: Instant,
    ) -> Self {
        let n = flat.num_tasks;
        let remaining_preds: Vec<u32> = (0..n).map(|i| flat.preds(i).len() as u32).collect();
        let ready: Vec<u32> = (0..n as u32)
            .filter(|&i| remaining_preds[i as usize] == 0)
            .collect();
        let mut ready_pos = vec![0; n];
        for (pos, &i) in ready.iter().enumerate() {
            ready_pos[i as usize] = pos as u32;
        }
        let mut ctx = SearchContext {
            flat,
            config,
            deadline,
            best_makespan: None,
            best_starts: vec![0; n],
            upper,
            stats: SolveStats::default(),
            started,
            dominance: flat
                .memo_limit(config)
                .map(|limit| DominanceTable::new(flat.num_devices, limit)),
            stop: false,
            scheduled: vec![false; n],
            cur_mask: 0,
            starts: vec![0; n],
            remaining_preds,
            device_finish: vec![0; flat.num_devices],
            device_mem: flat.initial_memory.clone(),
            device_remaining: flat.device_loads.clone(),
            unscheduled: n,
            ready,
            ready_pos,
            lower,
            est: Vec::new(),
            bound: 0,
            undo: Vec::with_capacity(2 * n),
            undo_est: Vec::with_capacity(2 * n),
            cand_pool: (0..=n).map(|_| Vec::new()).collect(),
            path: Vec::with_capacity(n),
            shared: None,
            worker: 0,
            nodes_since_flush: 0,
            drops_flushed: 0,
            probe_finish: vec![0; flat.num_devices],
            dom_scratch: vec![0; flat.num_devices],
            node_cap: u64::MAX,
        };
        let mut est = vec![0; n];
        ctx.bound = ctx.scan_state(&mut est);
        ctx.est = est;
        ctx
    }

    /// A fresh worker context at the root state `self` is in (used by the
    /// work-stealing parallel search). Statistics start empty; dominance
    /// pruning goes through the *shared* table instead of a private one.
    pub(super) fn fork(&self, shared: &'a SharedSearch, worker: u32) -> Self {
        debug_assert!(self.path.is_empty());
        SearchContext {
            dominance: None,
            shared: Some(shared),
            worker,
            ..Self::new(
                self.flat,
                self.config,
                self.deadline,
                self.upper,
                self.lower,
                self.started,
            )
        }
    }

    pub(super) fn deadline_satisfied(&self) -> bool {
        self.deadline.is_some() && self.best_makespan.is_some()
    }

    /// Publishes what accumulated since the last batch boundary — the node
    /// batch to the shared counter, nodes and dropped memo inserts to the
    /// live progress board — with relaxed adds only, nothing per node.
    pub(super) fn flush(&mut self) {
        if let Some(shared) = self.shared {
            shared
                .nodes
                .0
                .fetch_add(self.nodes_since_flush, Ordering::Relaxed);
        }
        if let Some(board) = &self.config.progress {
            board.add_nodes(self.nodes_since_flush);
            board.add_memo_drops(self.stats.memo_drops - self.drops_flushed);
        }
        self.nodes_since_flush = 0;
        self.drops_flushed = self.stats.memo_drops;
    }

    /// `true` when this worker must stop: shared node budget exhausted,
    /// wall-clock/abort limits fired (recorded in the shared `limit_stop`
    /// flag so idle peers stop too), or another worker raised a stop flag.
    /// `depth` is the depth of the node being entered, for the progress
    /// board.
    fn limits_hit(&mut self, depth: usize) -> bool {
        self.nodes_since_flush += 1;
        if let Some(shared) = self.shared {
            // The shared counter is read every node (cheap: the line is
            // mostly unmodified) so a small budget is respected promptly;
            // the write is batched to keep workers off each other's cache
            // line. Worst-case overshoot is one flush batch per worker.
            if shared.nodes.0.load(Ordering::Relaxed) + self.nodes_since_flush
                >= self.config.max_nodes
            {
                self.flush();
                shared.limit_stop.store(true, Ordering::Relaxed);
                return true;
            }
            if self.nodes_since_flush >= shared.flush_interval {
                self.flush();
                if let Some(board) = &self.config.progress {
                    board.set_worker_depth(self.worker, depth as u64);
                }
                if let Some(limit) = self.config.time_limit {
                    if self.started.elapsed() > limit {
                        shared.limit_stop.store(true, Ordering::Relaxed);
                        return true;
                    }
                }
                // Cooperative cancellation: an external abort (token or
                // deadline) stops every worker at its next flush boundary —
                // including workers deep inside stolen subtrees, which run
                // this same check.
                if self.config.abort.should_stop() {
                    shared.limit_stop.store(true, Ordering::Relaxed);
                    return true;
                }
                if shared.stop.load(Ordering::Relaxed) || shared.limit_stop.load(Ordering::Relaxed)
                {
                    return true;
                }
            }
            false
        } else {
            if self.stats.nodes >= self.config.max_nodes.min(self.node_cap) {
                return true;
            }
            // Clock reads and abort checks are sampled at batch boundaries;
            // checking them on every node would be wasteful.
            if self.stats.nodes.is_multiple_of(FLUSH_INTERVAL) {
                // Live progress publishes at the same cadence (the leftover
                // sub-batch is flushed when the solve returns).
                self.flush();
                if let Some(board) = &self.config.progress {
                    board.set_worker_depth(self.worker, depth as u64);
                }
                if let Some(limit) = self.config.time_limit {
                    if self.started.elapsed() > limit {
                        return true;
                    }
                }
                if self.config.abort.should_stop() {
                    return true;
                }
            }
            false
        }
    }

    /// The from-scratch computation of what `apply`/`unapply` maintain:
    /// writes the dynamic earliest start of every unscheduled task of the
    /// current state into `est` and returns the state's lower bound.
    /// Initialises the root; the tests hold the incremental state to it at
    /// every node.
    fn scan_state(&self, est: &mut [u64]) -> u64 {
        let flat = self.flat;
        let mut bound = self.lower;
        for d in 0..flat.num_devices {
            bound = bound.max(self.device_finish[d] + self.device_remaining[d]);
        }
        for i in (0..flat.num_tasks).filter(|&i| !self.scheduled[i]) {
            // Not necessarily ready yet, but the static EST plus scheduled
            // predecessors plus device availability still bounds its start.
            let mut earliest = flat.static_est[i];
            for &p in flat.preds(i) {
                let p = p as usize;
                if self.scheduled[p] {
                    earliest = earliest.max(self.starts[p] + flat.durations[p]);
                }
            }
            for &d in flat.devices(i) {
                earliest = earliest.max(self.device_finish[d as usize]);
            }
            est[i] = earliest;
            bound = bound.max(earliest + flat.chains[i]);
        }
        bound
    }

    /// Lower bound of the child that schedules the unscheduled task `i` at
    /// its earliest start, read off the current state without touching it
    /// (the module docs argue why this is the recomputed bound, exactly).
    #[inline]
    fn child_bound(&self, i: usize) -> u64 {
        let flat = self.flat;
        let start = self.est[i];
        let finish = start + flat.durations[i];
        let mut bound = self.bound;
        for &d in flat.devices(i) {
            let d = d as usize;
            bound = bound.max(start + self.device_remaining[d]);
            // The list is sorted by chain: the first task still waiting is
            // the one that matters.
            let waiting = |&&j: &&u32| !self.scheduled[j as usize] && j as usize != i;
            if let Some(&j) = flat.device_tasks(d).iter().find(waiting) {
                bound = bound.max(finish + flat.chains[j as usize]);
            }
        }
        bound
    }

    /// Pulls the shared incumbent into this worker's exclusive bound.
    fn refresh_shared_upper(&mut self) {
        if let Some(shared) = self.shared {
            let global = shared.upper.0.load(Ordering::Relaxed);
            if global < self.upper {
                self.upper = global;
            }
        }
    }

    /// Records a completed schedule as the new incumbent if it improves.
    pub(super) fn record_incumbent(&mut self) {
        let makespan = self.device_finish.iter().copied().max().unwrap_or(0);
        if makespan >= self.upper {
            return;
        }
        self.upper = makespan;
        self.best_makespan = Some(makespan);
        self.best_starts.copy_from_slice(&self.starts);
        self.stats.incumbents += 1;
        // Serial improvements are globally best by definition; a parallel
        // worker's improvement only counts if it wins the shared-bound CAS,
        // so the incumbent sink observes a strictly decreasing sequence
        // rather than per-worker noise.
        let mut globally_best = true;
        if let Some(shared) = self.shared {
            globally_best = false;
            let mut current = shared.upper.0.load(Ordering::Relaxed);
            while makespan < current {
                match shared.upper.0.compare_exchange_weak(
                    current,
                    makespan,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        globally_best = true;
                        break;
                    }
                    Err(observed) => current = observed,
                }
            }
        }
        if globally_best {
            if let Some(board) = &self.config.progress {
                board.record_incumbent(makespan);
            }
            if let Some(sink) = &self.config.incumbent_sink {
                sink.report(makespan);
            }
        }
        if self.deadline.is_some() {
            // Satisfiability mode: the first schedule under the deadline is
            // enough.
            self.stop = true;
            if let Some(shared) = self.shared {
                shared.stop.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Fills the depth-local candidate buffer with every ready,
    /// memory-feasible task as `(est, u64::MAX - chain, task)` and sorts it.
    /// Returns the buffer (put it back with [`Self::restore_candidates`]).
    pub(super) fn collect_candidates(&mut self, depth: usize) -> Vec<(u64, u64, u32)> {
        let flat = self.flat;
        let mut candidates = std::mem::take(&mut self.cand_pool[depth]);
        candidates.clear();
        for &i in &self.ready {
            let task = i as usize;
            if let Some(cap) = flat.memory_capacity {
                let memory = flat.memories[task];
                let fits = flat
                    .devices(task)
                    .iter()
                    .all(|&d| self.device_mem[d as usize] + memory <= cap);
                if !fits {
                    continue;
                }
            }
            candidates.push((self.est[task], u64::MAX - flat.chains[task], i));
        }
        candidates.sort_unstable();
        candidates
    }

    pub(super) fn restore_candidates(&mut self, depth: usize, buffer: Vec<(u64, u64, u32)>) {
        self.cand_pool[depth] = buffer;
    }

    /// Schedules the ready task `i` at its earliest start and makes `bound`
    /// (its [`Self::child_bound`]) the current one. Returns what
    /// [`Self::unapply`] needs to restore the state.
    fn apply(&mut self, i: usize, bound: u64) -> Applied {
        let flat = self.flat;
        let start = self.est[i];
        let finish = start + flat.durations[i];
        let applied = (self.undo.len(), self.undo_est.len(), self.bound);
        self.bound = bound;
        self.scheduled[i] = true;
        self.cur_mask |= 1u128 << (i & 127);
        self.starts[i] = start;
        self.unscheduled -= 1;
        self.path.push(i as u32);
        let pos = self.ready_pos[i] as usize;
        let last = self.ready.pop().expect("a ready task is being scheduled");
        if last as usize != i {
            self.ready[pos] = last;
            self.ready_pos[last as usize] = pos as u32;
        }
        for &d in flat.devices(i) {
            let d = d as usize;
            self.undo.push((
                d as u32,
                self.device_finish[d],
                self.device_mem[d],
                self.device_remaining[d],
            ));
            self.device_finish[d] = finish;
            self.device_mem[d] += flat.memories[i];
            self.device_remaining[d] -= flat.durations[i];
            for &j in flat.device_tasks(d) {
                self.raise_est(j, finish);
            }
        }
        for &s in flat.succs(i) {
            let succ = s as usize;
            self.remaining_preds[succ] -= 1;
            if self.remaining_preds[succ] == 0 {
                self.ready_pos[succ] = self.ready.len() as u32;
                self.ready.push(s);
            }
            self.raise_est(s, finish);
        }
        applied
    }

    /// Raises the earliest start of the unscheduled task `j` to `finish`,
    /// remembering the old value for [`Self::unapply`].
    #[inline]
    fn raise_est(&mut self, j: u32, finish: u64) {
        let previous = self.est[j as usize];
        if previous < finish && !self.scheduled[j as usize] {
            self.undo_est.push((j, previous));
            self.est[j as usize] = finish;
        }
    }

    /// Reverts [`Self::apply`] of task `i`, in strict reverse order.
    fn unapply(&mut self, i: usize, applied: Applied) {
        let flat = self.flat;
        let (undo_base, undo_est_base, bound) = applied;
        for &s in flat.succs(i).iter().rev() {
            let succ = s as usize;
            if self.remaining_preds[succ] == 0 {
                let popped = self.ready.pop();
                debug_assert_eq!(popped, Some(s));
            }
            self.remaining_preds[succ] += 1;
        }
        while self.undo_est.len() > undo_est_base {
            let (j, previous) = self.undo_est.pop().expect("length checked");
            self.est[j as usize] = previous;
        }
        while self.undo.len() > undo_base {
            let (d, finish, mem, remaining) = self.undo.pop().expect("length checked");
            let d = d as usize;
            self.device_finish[d] = finish;
            self.device_mem[d] = mem;
            self.device_remaining[d] = remaining;
        }
        let pos = self.ready_pos[i] as usize;
        if pos == self.ready.len() {
            self.ready.push(i as u32);
        } else {
            let moved = self.ready[pos];
            self.ready_pos[moved as usize] = self.ready.len() as u32;
            self.ready.push(moved);
            self.ready[pos] = i as u32;
        }
        self.path.pop();
        self.unscheduled += 1;
        self.cur_mask &= !(1u128 << (i & 127));
        self.scheduled[i] = false;
        self.bound = bound;
    }

    /// Dominance pruning on (scheduled set, device finish vector) of the
    /// current state, or — without applying it — of the child that schedules
    /// `child`: the serial search consults its private table, parallel
    /// workers the lock-free shared one. Returns `true` if the state is
    /// dominated.
    fn dominated(&mut self, child: Option<usize>) -> bool {
        let shared_table = self.shared.and_then(|shared| shared.dominance.as_ref());
        if shared_table.is_none() && self.dominance.is_none() {
            return false;
        }
        let mut mask = self.cur_mask;
        self.probe_finish.copy_from_slice(&self.device_finish);
        if let Some(i) = child {
            mask |= 1u128 << i;
            let finish = self.est[i] + self.flat.durations[i];
            for &d in self.flat.devices(i) {
                self.probe_finish[d as usize] = finish;
            }
        }
        if let Some(table) = shared_table {
            if let Some(owner) = table.check_and_insert(
                mask,
                &self.probe_finish,
                self.worker,
                &mut self.dom_scratch,
                &mut self.stats,
            ) {
                self.stats.pruned_dominance += 1;
                if owner != self.worker {
                    self.stats.shared_memo_hits += 1;
                }
                return true;
            }
        } else if let Some(table) = &mut self.dominance {
            if table.check_and_insert(mask, &self.probe_finish, &mut self.stats) {
                self.stats.pruned_dominance += 1;
                return true;
            }
        }
        false
    }

    /// Offers the subtree rooted at child `task` of the current node to the
    /// work-stealing pool instead of exploring it inline. Only shallow nodes
    /// (depth below [`STEAL_DEPTH`]) spawn, and only while the
    /// queues are hungry (below the spawn cap) — deep or saturated nodes
    /// keep the cheap sequential loop. Returns `true` if the subtree was
    /// published.
    fn try_offload(&mut self, depth: usize, task: u32) -> bool {
        let Some(shared) = self.shared else {
            return false;
        };
        if depth >= STEAL_DEPTH || shared.queues.queued() >= shared.spawn_cap {
            return false;
        }
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.extend_from_slice(&self.path);
        path.push(task);
        // Count before publishing, so a thief finishing the task quickly can
        // never drive `outstanding` to zero while the spawn is mid-flight.
        shared.outstanding.0.fetch_add(1, Ordering::Relaxed);
        if !shared
            .queues
            .push(self.worker as usize, SubtreeTask { path })
        {
            // The bounded deque is full: withdraw the reservation and explore
            // the subtree inline instead of blocking or growing the deque.
            shared.outstanding.0.fetch_sub(1, Ordering::Release);
            return false;
        }
        true
    }

    /// Replays a stolen (or self-deferred) subtree task from the root state,
    /// explores it, and restores the root state.
    ///
    /// The replay schedules each decision at the earliest start the state
    /// holds for it — the same deterministic value the producing node saw —
    /// so the reached state is identical to the producer's; the last
    /// decision is the subtree's root and goes through the entry tests the
    /// producer skipped when it published the task.
    pub(super) fn run_task(&mut self, task: &SubtreeTask) {
        debug_assert!(self.undo.is_empty() && self.path.is_empty());
        let (&root, prefix) = task
            .path
            .split_last()
            .expect("a subtree task carries at least its root decision");
        let mut applied = Vec::with_capacity(prefix.len());
        for &t in prefix {
            let i = t as usize;
            let bound = self.child_bound(i);
            applied.push((i, self.apply(i, bound)));
        }
        self.visit(prefix.len(), root as usize);
        for (i, marks) in applied.into_iter().rev() {
            self.unapply(i, marks);
        }
        #[cfg(test)]
        self.assert_root_state();
    }

    /// The tests every node passes on entry, in the order the statistics
    /// pin: count it, honour the limits, recognise a complete schedule, then
    /// prune by bound and by dominance. `child` is the task whose scheduling
    /// leads from the current state to the node — the node is tested
    /// *before* that decision is applied, so a pruned child costs no state
    /// change — or `None` for the current state itself (the root).
    fn enter(&mut self, depth: usize, child: Option<usize>) -> Entry {
        self.stats.nodes += 1;
        self.refresh_shared_upper();
        if self.limits_hit(depth) {
            self.stop = true;
            return Entry::Closed;
        }
        if self.unscheduled == usize::from(child.is_some()) {
            return Entry::Leaf;
        }
        let bound = child.map_or(self.bound, |i| self.child_bound(i));
        if bound >= self.upper {
            self.stats.pruned_bound += 1;
            return Entry::Closed;
        }
        if self.dominated(child) {
            return Entry::Closed;
        }
        Entry::Open(bound)
    }

    /// Searches from the root state (and leaves it as it found it).
    pub(super) fn dfs(&mut self) {
        if self.stop {
            return;
        }
        match self.enter(0, None) {
            Entry::Closed => {}
            Entry::Leaf => self.record_incumbent(),
            Entry::Open(_) => self.expand(0),
        }
        #[cfg(test)]
        self.assert_root_state();
    }

    /// Enters the child of the current node (at `depth`) that schedules task
    /// `i`, and explores its subtree if the entry tests leave it open.
    fn visit(&mut self, depth: usize, i: usize) {
        let bound = match self.enter(depth + 1, Some(i)) {
            Entry::Closed => return,
            Entry::Leaf => self.bound,
            Entry::Open(bound) => bound,
        };
        let applied = self.apply(i, bound);
        if self.unscheduled == 0 {
            self.record_incumbent();
        } else {
            self.expand(depth + 1);
        }
        self.unapply(i, applied);
    }

    /// Branches on every candidate of the current node, which has passed its
    /// entry tests.
    fn expand(&mut self, depth: usize) {
        #[cfg(test)]
        self.assert_incremental_state();
        let candidates = self.collect_candidates(depth);
        if let Some(table) = &self.dominance {
            // Start the memo lines of all children on their way from memory
            // before the first child needs one, so the misses overlap.
            for &(_, _, i) in &candidates {
                table.touch(self.cur_mask | 1u128 << i);
            }
        }
        // An empty buffer is a dead end: ready tasks exist but none fits in
        // memory, or the remaining tasks all wait on unscheduled predecessors
        // that are themselves blocked. Backtrack.
        for (idx, &(_, _, i)) in candidates.iter().enumerate() {
            if self.stop {
                break;
            }
            // The first child is always explored inline (there must be
            // progress even when the queues are saturated); later siblings
            // are offered to the pool at shallow depths.
            if idx > 0 && self.try_offload(depth, i) {
                continue;
            }
            self.visit(depth, i as usize);
        }
        self.restore_candidates(depth, candidates);
    }
}

/// The invariants of the incremental state, asserted at every node of every
/// solve the crate's own tests run.
#[cfg(test)]
impl SearchContext<'_> {
    /// The maintained `est`, `bound` and `ready` equal what a from-scratch
    /// pass over the current state computes.
    fn assert_incremental_state(&self) {
        let n = self.flat.num_tasks;
        let mut est = vec![0; n];
        let bound = self.scan_state(&mut est);
        assert_eq!(self.bound, bound, "bound after {:?}", self.path);
        let unscheduled = |i: &usize| !self.scheduled[*i];
        for i in (0..n).filter(unscheduled) {
            assert_eq!(self.est[i], est[i], "est[{i}] after {:?}", self.path);
        }
        let mut ready = self.ready.clone();
        ready.sort_unstable();
        let expected: Vec<u32> = (0..n)
            .filter(unscheduled)
            .filter(|&i| self.remaining_preds[i] == 0)
            .map(|i| i as u32)
            .collect();
        assert_eq!(ready, expected, "ready list after {:?}", self.path);
        for (pos, &i) in self.ready.iter().enumerate() {
            assert_eq!(self.ready_pos[i as usize] as usize, pos);
        }
    }

    /// A search that has returned left the state exactly as a fresh context
    /// has it, the order of the ready list included.
    fn assert_root_state(&self) {
        let fresh = SearchContext::new(self.flat, self.config, None, 0, self.lower, self.started);
        assert!(self.path.is_empty() && self.undo.is_empty() && self.undo_est.is_empty());
        assert_eq!(self.unscheduled, fresh.unscheduled);
        assert_eq!(self.cur_mask, 0);
        assert_eq!(self.scheduled, fresh.scheduled);
        assert_eq!(self.remaining_preds, fresh.remaining_preds);
        assert_eq!(self.device_finish, fresh.device_finish);
        assert_eq!(self.device_mem, fresh.device_mem);
        assert_eq!(self.device_remaining, fresh.device_remaining);
        assert_eq!(self.ready, fresh.ready);
        assert_eq!(self.est, fresh.est);
        assert_eq!(self.bound, fresh.bound);
    }
}
