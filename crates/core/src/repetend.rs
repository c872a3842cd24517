//! Repetend construction (§IV-B of the Tessel paper).
//!
//! A *repetend* is a set of blocks — one per stage, each tagged with a
//! micro-batch index — whose schedule can be repeated back to back with the
//! micro-batch indices shifted by one between repetitions. For large numbers
//! of micro-batches the repetend dominates the iteration time, so Tessel
//! searches for the repetend with the smallest period first and only then
//! completes the warmup and cooldown phases around it.

use crate::error::CoreError;
use crate::ir::PlacementSpec;
use serde::{Deserialize, Serialize};
use tessel_solver::{Instance, InstanceBuilder, Solution, Solver, TaskId};

pub use crate::screen::CandidateScreen;
use crate::screen::StageGraph;

/// An assignment of micro-batch indices to stages (Eq. 3): stage `i` of the
/// repetend executes micro-batch `indices[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RepetendCandidate {
    /// Micro-batch index per stage; `indices.len() == K`.
    pub indices: Vec<usize>,
}

impl RepetendCandidate {
    /// Number of distinct micro-batches the candidate draws blocks from
    /// (`NR`): one plus the largest index (indices are normalised to start at
    /// zero).
    #[must_use]
    pub fn num_micro_batches(&self) -> usize {
        self.indices.iter().max().map_or(0, |&m| m + 1)
    }

    /// Number of warmup blocks implied by this candidate
    /// (`sum_i indices[i]`).
    #[must_use]
    pub fn warmup_size(&self) -> usize {
        self.indices.iter().sum()
    }
}

/// Every repetend candidate over exactly `nr` micro-batches, as a list.
#[cfg(test)]
fn enumerate_candidates(placement: &PlacementSpec, nr: usize) -> Vec<RepetendCandidate> {
    candidate_iter(placement, nr).collect()
}

/// Lazily enumerates every repetend candidate over exactly `nr` micro-batches
/// in the same deterministic order the (previously recursive) eager
/// enumeration produced, pruned by Properties 4.1 and 4.2 of the paper:
///
/// * indices are normalised so the smallest used index is `0` and the largest
///   is `nr - 1` (candidates that use fewer micro-batches are enumerated for
///   the smaller `nr` instead);
/// * along every dependency edge `B_i -> B_j` the index of the predecessor is
///   at least the index of the successor (`indices[i] >= indices[j]`).
///
/// The iterator holds `O(K)` state regardless of how many candidates exist,
/// which keeps memory bounded for large `NR`; the search's candidate loop
/// pulls from it on demand. As an [`Iterator`] it yields every candidate;
/// [`CandidateIter::next_below`] yields only those whose critical path stays
/// below a bound.
#[must_use]
pub fn candidate_iter(placement: &PlacementSpec, nr: usize) -> CandidateIter {
    let mut iter = CandidateIter::new(placement);
    iter.restart(nr, usize::MAX);
    iter
}

/// What one [`CandidateIter::advance`] call came to.
#[derive(Debug)]
pub(crate) enum Advance {
    /// The next candidate whose critical path is below the bound: its
    /// indices and heads are [`CandidateIter::indices`] and
    /// [`CandidateIter::heads`] until the next call.
    Leaf,
    /// The step budget ran out between two candidates.
    Paused,
    /// No candidate is left, or the work limit is spent.
    Done,
}

/// Incremental repetend-candidate generator returned by [`candidate_iter`]:
/// a depth-first branch-and-bound over the assignment of micro-batch indices
/// to stages, on an explicit cursor stack, so candidates are produced one at
/// a time.
///
/// Stages are assigned in topological order, so the moment a stage gets its
/// index its *head* — the earliest it can start over the edges the candidate
/// keeps, those whose two ends carry the same index — is final: it reads only
/// its dependencies, all assigned before it, and nothing assigned later can
/// change it. The longest kept chain of a prefix is therefore a lower bound
/// on the critical path of every candidate that completes it, and a prefix
/// whose chain (or the busiest device's load, which no candidate escapes)
/// reaches the bound is refuted with its whole subtree, once. Each stack
/// level holds that running maximum and the smallest and largest index
/// assigned so far; they are written on the way down and never undone, since
/// a retreat only lowers the level that is read. Tails run against the
/// topological order — a stage's tail depends on stages assigned after it —
/// so only heads-side bounds can live in the tree; the rest of the
/// [`CandidateScreen`] runs on the leaves that survive.
#[derive(Debug, Clone)]
pub struct CandidateIter {
    graph: StageGraph,
    nr: usize,
    /// Current (partial) index assignment, by stage.
    indices: Vec<usize>,
    /// The head of every assigned stage over the kept edges, by stage.
    heads: Vec<u64>,
    /// `cursor[pos]`: the next index value to try at position `pos` of the
    /// topological order.
    cursor: Vec<usize>,
    /// `upper[pos]`: the largest index value Property 4.2 allows there.
    upper: Vec<usize>,
    /// `reach[pos]`: the load bound or the longest kept chain among the first
    /// `pos` positions, whichever is larger.
    reach: Vec<u64>,
    /// `lowest[pos]`, `highest[pos]`: the smallest and largest index among
    /// the first `pos` positions.
    lowest: Vec<usize>,
    highest: Vec<usize>,
    /// Number of positions currently assigned.
    pos: usize,
    done: bool,
    subtrees_pruned: usize,
    steps: u64,
    /// Candidates and refuted prefixes left before the work limit is spent.
    work_left: usize,
}

impl CandidateIter {
    /// An exhausted enumeration over `placement`; [`CandidateIter::restart`]
    /// opens a level.
    pub(crate) fn new(placement: &PlacementSpec) -> Self {
        let k = placement.num_blocks();
        CandidateIter {
            graph: StageGraph::new(placement),
            nr: 0,
            indices: vec![0; k],
            heads: vec![0; k],
            cursor: vec![0; k],
            upper: vec![0; k],
            reach: vec![placement.repetend_lower_bound(); k + 1],
            lowest: vec![usize::MAX; k + 1],
            highest: vec![0; k + 1],
            pos: 0,
            done: true,
            subtrees_pruned: 0,
            steps: 0,
            work_left: 0,
        }
    }

    /// The next candidate whose critical path over the edges it keeps (and
    /// the busiest device's load) is below `below`: exactly the candidates
    /// the [`CandidateScreen`] does not refute at its load or critical-path
    /// stage, in enumeration order. `below` may differ from call to call; a
    /// candidate is held against the value passed to the call that reaches
    /// it.
    pub fn next_below(&mut self, below: u64) -> Option<RepetendCandidate> {
        match self.advance(below, u64::MAX) {
            Advance::Leaf => Some(RepetendCandidate {
                indices: self.indices.clone(),
            }),
            Advance::Paused | Advance::Done => None,
        }
    }

    /// The micro-batch index of every stage of the candidate last returned.
    pub(crate) fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The head of every stage of the candidate last returned.
    #[must_use]
    pub fn heads(&self) -> &[u64] {
        &self.heads
    }

    /// Prefixes refuted so far, each with every candidate that completes it.
    #[must_use]
    pub fn subtrees_pruned(&self) -> usize {
        self.subtrees_pruned
    }

    /// Steps of the traversal so far: index values tried, leaves visited and
    /// retreats.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Starts over at the root, for candidates over exactly `nr`
    /// micro-batches, and ends once `work` candidates and refuted prefixes,
    /// taken together, have been counted. The counters run on.
    pub(crate) fn restart(&mut self, nr: usize, work: usize) {
        self.nr = nr;
        self.pos = 0;
        self.work_left = work;
        self.done = nr == 0 || work == 0 || self.indices.is_empty();
        if !self.done {
            self.enter();
        }
    }

    /// The one traversal: walks on for at most `max_steps` steps and stops at
    /// the first candidate below `below`.
    pub(crate) fn advance(&mut self, below: u64, max_steps: u64) -> Advance {
        // `below` may have tightened since the cursor came to stand where it
        // does: resume from the first level it now refutes.
        let refuted = self.reach[1..=self.pos].partition_point(|&reach| reach < below);
        if refuted < self.pos && !self.done {
            self.pos = refuted;
            self.prune();
        }
        let k = self.graph.order.len();
        let pause_at = self.steps.saturating_add(max_steps);
        while !self.done {
            if self.steps == pause_at {
                return Advance::Paused;
            }
            self.steps += 1;
            if self.pos == k {
                // Leaf: all stages assigned. Emit if the candidate uses
                // exactly the index range {0, .., nr-1}, then backtrack.
                self.pos -= 1;
                if self.lowest[k] == 0 && self.highest[k] + 1 == self.nr {
                    self.spend();
                    return Advance::Leaf;
                }
                continue;
            }
            let pos = self.pos;
            let value = self.cursor[pos];
            if value > self.upper[pos] {
                // Steps back to the previous position (or finishes).
                match pos {
                    0 => self.done = true,
                    _ => self.pos -= 1,
                }
                continue;
            }
            self.cursor[pos] = value + 1;
            let stage = self.graph.order[pos];
            self.indices[stage] = value;
            let head = self.graph.head(stage, &self.indices, &self.heads);
            let reach = self.reach[pos].max(head + self.graph.times[stage]);
            if reach >= below {
                self.prune();
                continue;
            }
            self.heads[stage] = head;
            self.reach[pos + 1] = reach;
            self.lowest[pos + 1] = self.lowest[pos].min(value);
            self.highest[pos + 1] = self.highest[pos].max(value);
            self.pos += 1;
            if self.pos < k {
                self.enter();
            }
        }
        Advance::Done
    }

    /// Opens position `pos`: every value from 0 to what Property 4.2 allows —
    /// the index of a stage may not exceed the index of any of its
    /// predecessors.
    fn enter(&mut self) {
        let stage = self.graph.order[self.pos];
        let deps = self.graph.deps(stage).iter();
        self.upper[self.pos] = deps.map(|&d| self.indices[d]).min().unwrap_or(self.nr - 1);
        self.cursor[self.pos] = 0;
    }

    /// Counts a refuted prefix.
    fn prune(&mut self) {
        self.subtrees_pruned += 1;
        self.spend();
    }

    /// Counts one candidate or refuted prefix against the work limit.
    fn spend(&mut self) {
        self.work_left -= 1;
        self.done |= self.work_left == 0;
    }
}

impl Iterator for CandidateIter {
    type Item = RepetendCandidate;

    fn next(&mut self) -> Option<RepetendCandidate> {
        self.next_below(u64::MAX)
    }
}

/// Memory already resident on each device when the repetend starts: the sum
/// of the memory deltas of all warmup blocks (`B_i^n` with `n <
/// indices[i]`).
#[must_use]
pub fn entry_memory(placement: &PlacementSpec, candidate: &RepetendCandidate) -> Vec<i64> {
    let mut mem = vec![0i64; placement.num_devices()];
    for (stage, block) in placement.blocks().iter().enumerate() {
        let copies = candidate.indices[stage] as i64;
        for &d in &block.devices {
            mem[d] += copies * block.memory;
        }
    }
    mem
}

/// Builds the solver instance for a repetend candidate: one task per stage,
/// intra-repetend dependencies only between blocks carrying the same
/// micro-batch index, and the warmup entry memory as the initial occupancy.
///
/// # Errors
///
/// Returns an error if the placement references devices inconsistently (which
/// cannot happen for placements built through [`PlacementSpec::builder`]).
pub fn build_repetend_instance(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
) -> Result<Instance, CoreError> {
    repetend_instance(placement, candidate, entry_memory(placement, candidate))
}

/// [`build_repetend_instance`] with the candidate's [`entry_memory`] already
/// computed.
fn repetend_instance(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    entry: Vec<i64>,
) -> Result<Instance, CoreError> {
    let mut builder = InstanceBuilder::new(placement.num_devices());
    builder.set_memory_capacity(placement.memory_capacity());
    builder.set_initial_memory(entry)?;
    let mut ids = Vec::with_capacity(placement.num_blocks());
    for (stage, block) in placement.blocks().iter().enumerate() {
        let label = format!("{}^{}", block.name, candidate.indices[stage]);
        let id = builder.add_task(
            label,
            block.time,
            block.devices.iter().copied(),
            block.memory,
        )?;
        ids.push(id);
        debug_assert_eq!(id.index(), stage);
    }
    for (stage, block) in placement.blocks().iter().enumerate() {
        for &dep in &block.deps {
            if candidate.indices[dep] == candidate.indices[stage] {
                builder.add_precedence(ids[dep], ids[stage])?;
            }
        }
    }
    Ok(builder.build()?)
}

/// A solved repetend: relative start times, its period (`t_R`) and the
/// per-device execution/wait decomposition of Eq. 4.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Repetend {
    /// The candidate this repetend was built from.
    pub candidate: RepetendCandidate,
    /// Relative start time of each stage (normalised so the earliest is 0).
    pub starts: Vec<u64>,
    /// The repetend period `t_R`: the time between the starts of consecutive
    /// repetitions after tight compaction (Fig. 6b).
    pub period: u64,
    /// Per-device execution span `E_R^d`.
    pub exec_time: Vec<u64>,
    /// Per-device wait time `W_R^d = t_R - E_R^d`.
    pub wait_time: Vec<u64>,
    /// Memory resident on each device when a repetition starts.
    pub entry_memory: Vec<i64>,
}

impl Repetend {
    /// Number of micro-batches involved in the repetend (`NR`).
    #[must_use]
    pub fn num_micro_batches(&self) -> usize {
        self.candidate.num_micro_batches()
    }

    /// Steady-state bubble rate of this repetend: the fraction of device time
    /// left idle during one period, which is the schedule's bubble rate in
    /// the limit of many micro-batches (Figs. 11 and 12 of the paper).
    #[must_use]
    pub fn bubble_rate(&self, placement: &PlacementSpec) -> f64 {
        if self.period == 0 {
            return 0.0;
        }
        let busy: u64 = (0..placement.num_devices())
            .map(|d| placement.device_load(d))
            .sum();
        let total = self.period * placement.num_devices() as u64;
        1.0 - busy as f64 / total as f64
    }

    /// The makespan of a single repetition in isolation (without compaction).
    #[must_use]
    pub fn span(&self, placement: &PlacementSpec) -> u64 {
        self.starts
            .iter()
            .zip(placement.blocks())
            .map(|(s, b)| s + b.time)
            .max()
            .unwrap_or(0)
    }
}

/// Evaluates a solver solution for a repetend candidate: computes the tight
/// compaction period and the per-device execution/wait decomposition.
///
/// Two timing variants are considered — the solver's earliest-start layout
/// and a right-justified layout (every block shifted as late as the makespan
/// allows) — and the one with the smaller compacted period wins. The solver
/// minimises the repetend *makespan*, which leaves slack in where
/// non-critical blocks sit; right-justification closes per-device gaps that
/// would otherwise inflate the period (Fig. 6 of the paper).
#[must_use]
pub fn evaluate_repetend(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    solution: &Solution,
) -> Repetend {
    evaluate_solution(
        placement,
        candidate,
        solution,
        entry_memory(placement, candidate),
    )
}

/// [`evaluate_repetend`] with the candidate's [`entry_memory`] already
/// computed.
fn evaluate_solution(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    solution: &Solution,
    entry: Vec<i64>,
) -> Repetend {
    let k = placement.num_blocks();
    let min_start = (0..k)
        .map(|i| solution.start(TaskId::from_index(i)))
        .min()
        .unwrap_or(0);
    let starts: Vec<u64> = (0..k)
        .map(|i| solution.start(TaskId::from_index(i)) - min_start)
        .collect();
    let shifted = right_justify(placement, candidate, &starts);
    let original = evaluate_starts(placement, candidate, &starts);
    let justified = evaluate_starts(placement, candidate, &shifted);
    let (starts, (period, exec_time)) = if justified.0 < original.0 {
        (shifted, justified)
    } else {
        (starts, original)
    };
    Repetend {
        candidate: candidate.clone(),
        starts,
        period,
        wait_time: exec_time.iter().map(|&e| period - e).collect(),
        exec_time,
        entry_memory: entry,
    }
}

/// Shifts every block as late as possible without changing the repetend
/// makespan, the per-device block order or any intra-repetend dependency.
fn right_justify(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    starts: &[u64],
) -> Vec<u64> {
    let k = placement.num_blocks();
    let makespan = (0..k)
        .map(|i| starts[i] + placement.block(i).time)
        .max()
        .unwrap_or(0);
    let mut new_starts = starts.to_vec();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(starts[i]));
    for &i in &order {
        let block = placement.block(i);
        let mut upper = makespan - block.time;
        // Intra-repetend successors (same micro-batch index).
        for (j, other) in placement.blocks().iter().enumerate() {
            if other.deps.contains(&i) && candidate.indices[j] == candidate.indices[i] {
                upper = upper.min(new_starts[j].saturating_sub(block.time));
            }
        }
        // Preserve the per-device order of the original layout.
        for (j, other) in placement.blocks().iter().enumerate() {
            if j == i || !other.devices.iter().any(|d| block.devices.contains(d)) {
                continue;
            }
            if starts[j] > starts[i] || (starts[j] == starts[i] && j > i) {
                upper = upper.min(new_starts[j].saturating_sub(block.time));
            }
        }
        new_starts[i] = new_starts[i].max(upper);
    }
    new_starts
}

/// Computes the compacted period and the per-device execution spans of a
/// fixed start-time layout.
fn evaluate_starts(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    starts: &[u64],
) -> (u64, Vec<u64>) {
    let num_devices = placement.num_devices();
    let mut exec_time = vec![0u64; num_devices];
    let mut first_start = vec![u64::MAX; num_devices];
    let mut last_finish = vec![0u64; num_devices];
    for (stage, block) in placement.blocks().iter().enumerate() {
        for &d in &block.devices {
            first_start[d] = first_start[d].min(starts[stage]);
            last_finish[d] = last_finish[d].max(starts[stage] + block.time);
        }
    }
    for d in 0..num_devices {
        if first_start[d] != u64::MAX {
            exec_time[d] = last_finish[d] - first_start[d];
        }
    }

    // Tight compaction (Fig. 6b): the period is the smallest shift `delta`
    // such that (a) consecutive repetitions do not overlap on any device and
    // (b) every cross-repetition data dependency is satisfied. A dependency
    // B_i -> B_j with indices[i] = indices[j] + c (c >= 1) connects stage i of
    // one repetition to stage j of the repetition c steps later, giving
    // `c * delta >= finish_i - start_j`.
    let mut period: u64 = exec_time.iter().copied().max().unwrap_or(0);
    for (stage, block) in placement.blocks().iter().enumerate() {
        for &dep in &block.deps {
            let c = candidate.indices[dep] as i64 - candidate.indices[stage] as i64;
            if c >= 1 {
                let finish_dep = starts[dep] + placement.block(dep).time;
                let gap = finish_dep.saturating_sub(starts[stage]);
                let needed = gap.div_ceil(c as u64);
                period = period.max(needed);
            }
        }
    }

    (period, exec_time)
}

/// Solves a repetend candidate to optimality (below `upper_bound`) and
/// evaluates its period. Returns `Ok(None)` if the candidate admits no
/// schedule below the bound (or none at all, e.g. for memory reasons).
///
/// # Errors
///
/// Propagates solver construction errors, which cannot occur for valid
/// placements.
pub fn solve_repetend(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    solver: &Solver,
    upper_bound: u64,
) -> Result<Option<Repetend>, CoreError> {
    // Candidates whose warmup already overflows the memory budget can never
    // lead to a feasible schedule.
    let entry = entry_memory(placement, candidate);
    if let Some(capacity) = placement.memory_capacity() {
        if entry.iter().any(|&m| m > capacity) {
            return Ok(None);
        }
    }
    let instance = repetend_instance(placement, candidate, entry)?;
    let outcome = solver.minimize_below(&instance, upper_bound)?;
    // The instance holds the entry memory now; only a solved candidate needs
    // its own copy.
    Ok(outcome.solution().map(|solution| {
        let entry = instance.initial_memory().to_vec();
        evaluate_solution(placement, candidate, solution, entry)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockKind, PlacementSpec};
    use crate::screen::random_placement;
    use tessel_solver::SolverConfig;

    /// V-shape placement over `d` devices with forward cost 1 and backward
    /// cost `bwd`.
    fn v_shape(d: usize, bwd: u64, capacity: Option<i64>) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("v{d}"), d);
        b.set_memory_capacity(capacity);
        let mut prev: Option<usize> = None;
        for dev in 0..d {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("f{dev}"), BlockKind::Forward, [dev], 1, 1, deps)
                    .unwrap(),
            );
        }
        for dev in (0..d).rev() {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("b{dev}"), BlockKind::Backward, [dev], bwd, -1, deps)
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    /// Reference enumeration (the original recursive formulation) used to
    /// pin the incremental iterator's output and order.
    fn recursive_reference(placement: &PlacementSpec, nr: usize) -> Vec<RepetendCandidate> {
        fn assign(
            placement: &PlacementSpec,
            order: &[usize],
            pos: usize,
            nr: usize,
            indices: &mut Vec<usize>,
            out: &mut Vec<RepetendCandidate>,
        ) {
            if pos == order.len() {
                let min = indices.iter().min().copied().unwrap_or(0);
                let max = indices.iter().max().copied().unwrap_or(0);
                if min == 0 && max + 1 == nr {
                    out.push(RepetendCandidate {
                        indices: indices.clone(),
                    });
                }
                return;
            }
            let stage = order[pos];
            let upper = placement
                .block(stage)
                .deps
                .iter()
                .map(|&d| indices[d])
                .min()
                .unwrap_or(nr - 1);
            for idx in 0..=upper {
                indices[stage] = idx;
                assign(placement, order, pos + 1, nr, indices, out);
            }
            indices[stage] = 0;
        }
        if nr == 0 {
            return Vec::new();
        }
        let order = placement.topological_stages();
        let mut indices = vec![0usize; placement.num_blocks()];
        let mut out = Vec::new();
        assign(placement, &order, 0, nr, &mut indices, &mut out);
        out
    }

    #[test]
    fn incremental_iterator_matches_recursive_enumeration() {
        for d in [1usize, 2, 3] {
            let p = v_shape(d, 2, None);
            for nr in 0..=4 {
                let lazy: Vec<RepetendCandidate> = candidate_iter(&p, nr).collect();
                assert_eq!(lazy, recursive_reference(&p, nr), "d={d} nr={nr}");
                assert_eq!(lazy, enumerate_candidates(&p, nr));
            }
        }
    }

    #[test]
    fn incremental_iterator_is_lazy_and_resumable() {
        let p = v_shape(3, 2, None);
        let mut iter = candidate_iter(&p, 3);
        let reference = recursive_reference(&p, 3);
        // Pulling one at a time yields the same sequence as draining.
        for expected in &reference {
            assert_eq!(iter.next().as_ref(), Some(expected));
        }
        assert_eq!(iter.next(), None);
        // Exhausted iterators stay exhausted.
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn a_paused_traversal_resumes_where_it_stopped() {
        let p = v_shape(3, 2, None);
        for below in [5, 7, u64::MAX] {
            let whole: Vec<RepetendCandidate> = {
                let mut iter = candidate_iter(&p, 3);
                std::iter::from_fn(|| iter.next_below(below)).collect()
            };
            // Three steps at a time: every leaf, in order, and the same count
            // of refuted prefixes.
            let mut iter = candidate_iter(&p, 3);
            let mut stepwise = Vec::new();
            loop {
                let before = iter.steps();
                match iter.advance(below, 3) {
                    Advance::Leaf => stepwise.push(RepetendCandidate {
                        indices: iter.indices().to_vec(),
                    }),
                    Advance::Paused => assert_eq!(iter.steps() - before, 3),
                    Advance::Done => break,
                }
            }
            assert_eq!(stepwise, whole, "below {below}");
            let mut unpaused = candidate_iter(&p, 3);
            while unpaused.next_below(below).is_some() {}
            assert_eq!(iter.subtrees_pruned(), unpaused.subtrees_pruned());
            assert_eq!(iter.steps(), unpaused.steps());
        }
    }

    #[test]
    fn the_work_limit_counts_candidates_and_refuted_prefixes() {
        let p = v_shape(3, 2, None);
        let mut unlimited = candidate_iter(&p, 3);
        let all: Vec<RepetendCandidate> = std::iter::from_fn(|| unlimited.next_below(7)).collect();
        let work = all.len() + unlimited.subtrees_pruned();
        assert!(all.len() > 2 && unlimited.subtrees_pruned() > 2);
        for limit in 0..=work + 1 {
            let mut iter = candidate_iter(&p, 3);
            iter.restart(3, limit);
            let leaves: Vec<RepetendCandidate> =
                std::iter::from_fn(|| iter.next_below(7)).collect();
            // A prefix of the unlimited run, cut where the work is spent.
            assert_eq!(leaves[..], all[..leaves.len()], "limit {limit}");
            assert_eq!(
                leaves.len() + iter.subtrees_pruned(),
                limit.min(work),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn a_tightened_bound_retreats_to_the_level_it_refutes() {
        // Chain f0 f1 f2 b2 b1 b0 with times 1 1 1 2 2 2. The first candidate
        // over two micro-batches keeps every edge but the first: a chain of
        // 8. Below 6 nothing that starts [1, 0, 0, 0] survives, so the next
        // call resumes past that prefix and counts it as refuted.
        let p = v_shape(3, 2, None);
        let mut iter = candidate_iter(&p, 2);
        let first = iter.next_below(9).unwrap();
        assert_eq!(first.indices, vec![1, 0, 0, 0, 0, 0]);
        assert_eq!(iter.heads(), [0, 0, 1, 2, 4, 6]);
        let (pruned, steps) = (iter.subtrees_pruned(), iter.steps());
        let next = iter.next_below(6).unwrap();
        assert_eq!(next.indices, vec![1, 1, 1, 1, 0, 0]);
        assert!(iter.subtrees_pruned() > pruned);
        // The same candidate a fresh traversal below 6 starts with, reached
        // without walking the rest of the refuted subtree.
        let mut fresh = candidate_iter(&p, 2);
        assert_eq!(fresh.next_below(6), Some(next));
        assert!(iter.steps() - steps < fresh.steps());
    }

    #[test]
    fn enumeration_respects_dependency_ordering() {
        let p = v_shape(2, 2, None);
        for nr in 1..=3 {
            for cand in enumerate_candidates(&p, nr) {
                assert_eq!(cand.num_micro_batches(), nr);
                // Along the chain f0 -> f1 -> b1 -> b0 indices must not
                // increase.
                for (stage, block) in p.blocks().iter().enumerate() {
                    for &dep in &block.deps {
                        assert!(
                            cand.indices[dep] >= cand.indices[stage],
                            "candidate {cand:?} violates property 4.2"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn enumeration_counts_are_exact_for_a_chain() {
        // For a chain of K blocks, candidates over exactly nr micro-batches
        // are the non-increasing sequences with min 0 and max nr-1.
        let p = v_shape(2, 2, None); // chain of 4 blocks
        assert_eq!(enumerate_candidates(&p, 1).len(), 1);
        // Non-increasing sequences of length 4 over {0,1} touching both
        // values: choose the switch position: 3.
        assert_eq!(enumerate_candidates(&p, 2).len(), 3);
        // Over {0,1,2}: the first element must be 2 and the last 0, leaving 6
        // non-increasing middle pairs.
        assert_eq!(enumerate_candidates(&p, 3).len(), 6);
        assert!(enumerate_candidates(&p, 0).is_empty());
    }

    #[test]
    fn entry_memory_counts_warmup_blocks() {
        let p = v_shape(2, 2, None);
        // Candidate: f0 -> mb1, f1 -> mb1, b1 -> mb0, b0 -> mb0 (the classic
        // 1F1B steady state over 2 devices).
        let cand = RepetendCandidate {
            indices: vec![1, 1, 0, 0],
        };
        // Device 0 executed one prior forward of f0 (mb0): +1. Device 1
        // executed one prior forward of f1 (mb0): +1.
        assert_eq!(entry_memory(&p, &cand), vec![1, 1]);
        assert_eq!(cand.warmup_size(), 2);
    }

    #[test]
    fn one_f_one_b_repetend_reaches_the_lower_bound() {
        // The classic 1F1B repetend over 4 devices (fwd=1, bwd=2) has period
        // equal to the per-device load of one micro-batch (zero bubble).
        let p = v_shape(4, 2, None);
        let nr = 4;
        let solver = Solver::new(SolverConfig::default());
        let lower = p.repetend_lower_bound();
        let mut best: Option<u64> = None;
        for cand in enumerate_candidates(&p, nr) {
            if let Some(rep) = solve_repetend(&p, &cand, &solver, u64::MAX).unwrap() {
                best = Some(best.map_or(rep.period, |b: u64| b.min(rep.period)));
            }
        }
        assert_eq!(best, Some(lower));
    }

    #[test]
    fn repetend_period_includes_cross_repetition_dependencies() {
        // A single-device placement: the repetend is one forward + one
        // backward; the period must cover both.
        let p = v_shape(1, 2, None);
        let cand = RepetendCandidate {
            indices: vec![0, 0],
        };
        let solver = Solver::new(SolverConfig::default());
        let rep = solve_repetend(&p, &cand, &solver, u64::MAX)
            .unwrap()
            .expect("feasible");
        assert_eq!(rep.period, 3);
        assert_eq!(rep.exec_time, vec![3]);
        assert_eq!(rep.wait_time, vec![0]);
        assert!((rep.bubble_rate(&p) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn memory_exhausted_candidates_are_rejected() {
        // Capacity 1: a candidate whose warmup leaves 2 forwards resident can
        // never start.
        let p = v_shape(2, 2, Some(1));
        let cand = RepetendCandidate {
            indices: vec![2, 1, 0, 0],
        };
        let solver = Solver::new(SolverConfig::default());
        let result = solve_repetend(&p, &cand, &solver, u64::MAX).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn screen_bound_sits_between_the_cheap_bound_and_the_optimum() {
        use tessel_solver::{makespan_lower_bound, one_machine_lower_bound};
        let solver = Solver::new(SolverConfig::exhaustive().with_threads(1));
        let (mut candidates, mut stronger, mut solved) = (0, 0, 0);
        for seed in 0..60u64 {
            let p = random_placement(seed);
            let mut screen = CandidateScreen::new(&p);
            for nr in 1..=3 {
                for cand in candidate_iter(&p, nr) {
                    let at = format!("seed {seed} candidate {:?}", cand.indices);
                    let Ok(instance) = build_repetend_instance(&p, &cand) else {
                        continue;
                    };
                    candidates += 1;
                    let cheap = makespan_lower_bound(&instance);
                    let bound = screen.bound(&cand, u64::MAX);
                    assert!(cheap <= bound, "{at}: cheap {cheap} > screen {bound}");
                    stronger += usize::from(cheap < bound);
                    // The screen and the solver's root cut are one bound,
                    // computed from the placement and from the instance.
                    assert_eq!(bound, one_machine_lower_bound(&instance), "{at}");
                    // Stopping early never changes which side of `enough` the
                    // bound falls on.
                    for enough in [cheap, bound, bound + 1] {
                        let staged = screen.bound(&cand, enough);
                        assert!(staged <= bound, "{at}: enough {enough}");
                        assert_eq!(staged >= enough, bound >= enough, "{at}: enough {enough}");
                    }
                    let outcome = solver.minimize(&instance).unwrap();
                    if let Some(solution) = outcome.solution() {
                        assert!(outcome.is_optimal(), "{at}");
                        solved += 1;
                        let optimum = solution.makespan();
                        assert!(bound <= optimum, "{at}: screen {bound} > optimum {optimum}");
                    }
                }
            }
        }
        // The battery has to reach the cases it is about.
        assert!(candidates > 1000 && solved > 500 && stronger > 50);
    }

    #[test]
    fn evaluate_normalises_start_times() {
        let p = v_shape(2, 2, None);
        let cand = RepetendCandidate {
            indices: vec![0, 0, 0, 0],
        };
        let instance = build_repetend_instance(&p, &cand).unwrap();
        let solver = Solver::new(SolverConfig::default());
        let outcome = solver.minimize(&instance).unwrap();
        let rep = evaluate_repetend(&p, &cand, outcome.solution().unwrap());
        assert_eq!(rep.starts.iter().min().copied(), Some(0));
        assert_eq!(rep.span(&p), 6);
    }

    #[test]
    fn instance_contains_only_same_index_dependencies() {
        let p = v_shape(2, 2, None);
        let cand = RepetendCandidate {
            indices: vec![1, 1, 0, 0],
        };
        let instance = build_repetend_instance(&p, &cand).unwrap();
        // f0->f1 (both index 1) and b1->b0 (both index 0) stay; f1->b1 drops
        // because it crosses repetitions.
        assert_eq!(instance.precedences().count(), 2);
    }

    #[test]
    fn serde_round_trip_for_repetend() {
        let p = v_shape(2, 2, None);
        let cand = RepetendCandidate {
            indices: vec![1, 1, 0, 0],
        };
        let solver = Solver::new(SolverConfig::default());
        let rep = solve_repetend(&p, &cand, &solver, u64::MAX)
            .unwrap()
            .unwrap();
        let json = serde_json::to_string(&rep).unwrap();
        let back: Repetend = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }
}
