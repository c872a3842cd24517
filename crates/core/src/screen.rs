//! The exact screen in front of the repetend solves: decides, from the
//! placement alone, that a candidate's instance has no schedule below a bound —
//! which is all [`solve_repetend`](crate::repetend::solve_repetend) could have
//! reported for it — before an instance is built.
//!
//! Four stages, cheapest first; a candidate stops at the first that refutes
//! it. The first three are lower bounds on the makespan (device load, critical
//! path, Jackson's preemptive one-machine bound) and make up
//! [`CandidateScreen::bound`]. The fourth answers the decision question
//! directly — "does any schedule finish by the deadline `below - 1`?" — by
//! constraint propagation over the same `(head, time, tail)` triples, and
//! only runs on the few candidates the bounds let through.
//!
//! In the search the first two stages have already run by the time a
//! candidate exists: [`CandidateIter`](crate::repetend::CandidateIter) keeps
//! every assigned block's head and the longest kept chain on its cursor
//! stack and refutes a prefix, with every candidate under it, the moment that
//! chain or the device load reaches the bound. A candidate that survives
//! arrives with its heads, and the screen starts at the backward sweep for
//! the tails. The head recurrence both use is written once, `StageGraph::head`.
//!
//! The fourth stage runs on a trail. Heads and tails rise from FIFO
//! worklists of the blocks that changed, along the kept edges (read off the
//! stage graph and the candidate's indices, never copied) and the arcs fixed
//! so far; immediate selection looks again only at the pairs of a block
//! whose window changed. A probe assumes one order of a pair on the
//! candidate's own windows and rolls every head, tail, fixed pair and arc it
//! changed back from the trail afterwards. Every rule only ever raises a
//! window or fixes a pair, and does so whenever it applies, so propagation
//! reaches the same fixpoint — the same verdict, windows and fixed pairs —
//! in whatever order it runs; pairs are still probed in index order. The
//! tests hold it to the whole-edge sweeps it replaced.
//!
//! Every rule relaxes the solver's constraint system (memory is dropped,
//! devices are coupled only pairwise), so a refuted candidate has no schedule
//! below the bound; an unrefuted one is handed to the solver, which remains
//! the authority.

use crate::ir::PlacementSpec;
use crate::repetend::RepetendCandidate;
use std::collections::VecDeque;
use tessel_solver::jackson_preemptive_bound;

/// The stage of [`CandidateScreen::refutes`] that rejected a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenStage {
    /// The busiest device's load (the same for every candidate).
    Load,
    /// The critical path over the dependency edges the candidate keeps.
    CriticalPath,
    /// Jackson's preemptive one-machine bound on some device.
    Jackson,
    /// Precedence propagation and immediate selection under the deadline,
    /// with the one-machine bound over the windows they tightened.
    ImmediateSelection,
    /// Pair probing: both orders of some conflict pair (or the one left after
    /// the other was ruled out) contradict the deadline.
    Probing,
}

/// What the head recurrence reads of a placement: its stages in topological
/// order, their times and their dependencies. Shared by the screen and by
/// [`CandidateIter`](crate::repetend::CandidateIter), which runs the screen's
/// critical-path stage inside the enumeration.
#[derive(Debug, Clone)]
pub(crate) struct StageGraph {
    /// Stages in topological order.
    pub(crate) order: Vec<usize>,
    pub(crate) times: Vec<u64>,
    /// `deps_flat[deps_off[i]..deps_off[i + 1]]`: the dependencies of stage `i`.
    deps_off: Vec<usize>,
    deps_flat: Vec<usize>,
}

impl StageGraph {
    pub(crate) fn new(placement: &PlacementSpec) -> Self {
        let blocks = placement.blocks();
        let mut deps_off = Vec::with_capacity(blocks.len() + 1);
        let mut deps_flat = Vec::new();
        for block in blocks {
            deps_off.push(deps_flat.len());
            deps_flat.extend_from_slice(&block.deps);
        }
        deps_off.push(deps_flat.len());
        StageGraph {
            order: placement.topological_stages(),
            times: blocks.iter().map(|b| b.time).collect(),
            deps_off,
            deps_flat,
        }
    }

    pub(crate) fn deps(&self, stage: usize) -> &[usize] {
        &self.deps_flat[self.deps_off[stage]..self.deps_off[stage + 1]]
    }

    /// The head of `stage` — the earliest it can start — over the edges
    /// `indices` keeps: an edge is kept iff both ends carry the same
    /// micro-batch index. Reads only the heads of the stage's dependencies,
    /// so in topological order a head is final the moment it is computed.
    #[inline]
    pub(crate) fn head(&self, stage: usize, indices: &[usize], heads: &[u64]) -> u64 {
        let mut head = 0;
        for &dep in self.deps(stage) {
            if indices[dep] == indices[stage] {
                head = head.max(heads[dep] + self.times[dep]);
            }
        }
        head
    }
}

/// What deadline propagation tightens: a lower bound on every block's start
/// (`heads`) and on the time between its end and the end of the schedule
/// (`tails`), and which conflict pairs already have their order fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Windows {
    heads: Vec<u64>,
    tails: Vec<u64>,
    fixed: Vec<bool>,
}

impl Windows {
    fn new(blocks: usize, pairs: usize) -> Self {
        Windows {
            heads: vec![0; blocks],
            tails: vec![0; blocks],
            fixed: vec![false; pairs],
        }
    }
}

/// One change of deadline propagation, as the trail keeps it to roll a probe
/// back.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// A block's head, and what it was before.
    Head(usize, u64),
    /// A block's tail, and what it was before.
    Tail(usize, u64),
    /// `(pair, before, after)`: the pair fixed, with the arc it got.
    Arc(usize, usize, usize),
}

/// Per-block flags of deadline propagation.
const HEAD_QUEUED: u8 = 1;
const TAIL_QUEUED: u8 = 2;
/// The block's window changed since its pairs were last decided.
const DIRTY: u8 = 4;

/// Exact screen in front of the repetend solves (see the [module
/// documentation](self)).
///
/// [`CandidateScreen::bound`] is a makespan lower bound for a candidate's
/// instance, computed from the placement without building the instance: the
/// maximum of the busiest device's load (the same for every candidate), the
/// critical path over the dependency edges the candidate keeps (both ends
/// carry the same micro-batch index) and, per device,
/// [`jackson_preemptive_bound`] over the device's blocks with their heads and
/// tails along those edges. [`CandidateScreen::refutes`] is the screen the
/// search applies: those three bounds, then deadline propagation.
///
/// Built once per placement; the scratch buffers inside make both
/// allocation-free once they have grown to the placement's size.
#[derive(Debug, Clone)]
pub struct CandidateScreen {
    graph: StageGraph,
    /// Stages occupying each device.
    device_blocks: Vec<Vec<usize>>,
    load_bound: u64,
    jobs: Vec<(u64, u64, u64)>,
    /// Every unordered pair of positive-time blocks that share a device, once
    /// however many devices they share. A zero-time block never occupies its
    /// device (as in [`jackson_preemptive_bound`]), so it is in no pair.
    pairs: Vec<(usize, usize)>,
    /// The pairs each block is in.
    block_pairs: Vec<Vec<usize>>,
    /// The stages that depend on each stage: the dependency edges read
    /// forwards.
    dependents: Vec<Vec<usize>>,
    /// The candidate's windows; what a bound or a refutation is read from.
    windows: Windows,
    /// The candidate under deadline propagation: a dependency edge is kept
    /// iff its two ends carry the same index.
    indices: Vec<usize>,
    /// The arcs fixed so far, from each block and into each block, in the
    /// order they were fixed.
    arcs_out: Vec<Vec<usize>>,
    arcs_in: Vec<Vec<usize>>,
    /// FIFO worklists of the blocks whose head (tail) rose since it was last
    /// pushed along the edges and arcs.
    head_queue: VecDeque<usize>,
    tail_queue: VecDeque<usize>,
    /// The blocks flagged [`DIRTY`].
    dirty: Vec<usize>,
    flags: Vec<u8>,
    /// Every change since the candidate's propagation started, latest last.
    trail: Vec<Undo>,
}

impl CandidateScreen {
    /// Prepares the screen for `placement`.
    #[must_use]
    pub fn new(placement: &PlacementSpec) -> Self {
        let k = placement.num_blocks();
        let blocks = placement.blocks();
        let graph = StageGraph::new(placement);
        let mut device_blocks = vec![Vec::new(); placement.num_devices()];
        let mut pairs = Vec::new();
        let mut block_pairs = vec![Vec::new(); k];
        let mut dependents = vec![Vec::new(); k];
        for (stage, block) in blocks.iter().enumerate() {
            for &d in &block.devices {
                device_blocks[d].push(stage);
            }
            for &dep in graph.deps(stage) {
                dependents[dep].push(stage);
            }
            for (i, other) in blocks[..stage].iter().enumerate() {
                let share_a_device = block.devices.iter().any(|d| other.devices.contains(d));
                if block.time > 0 && other.time > 0 && share_a_device {
                    block_pairs[i].push(pairs.len());
                    block_pairs[stage].push(pairs.len());
                    pairs.push((i, stage));
                }
            }
        }
        CandidateScreen {
            graph,
            device_blocks,
            load_bound: placement.repetend_lower_bound(),
            jobs: Vec::with_capacity(k),
            windows: Windows::new(k, pairs.len()),
            pairs,
            block_pairs,
            dependents,
            indices: vec![0; k],
            arcs_out: vec![Vec::new(); k],
            arcs_in: vec![Vec::new(); k],
            head_queue: VecDeque::with_capacity(k),
            tail_queue: VecDeque::with_capacity(k),
            dirty: Vec::with_capacity(k),
            flags: vec![0; k],
            trail: Vec::new(),
        }
    }

    /// A lower bound on the makespan of every schedule of `candidate`'s
    /// repetend instance. The stages are evaluated cheapest first and the
    /// evaluation stops as soon as one reaches `enough`, so the result is the
    /// full bound whenever it is below `enough` (pass `u64::MAX` for the full
    /// bound unconditionally).
    pub fn bound(&mut self, candidate: &RepetendCandidate, enough: u64) -> u64 {
        let mut bound = self.load_bound;
        if bound < enough {
            self.sweep_heads(candidate);
            bound = bound.max(self.critical_path(candidate));
        }
        if bound < enough {
            bound = bound.max(self.one_machine_bound(enough));
        }
        bound
    }

    /// Whether no schedule of `candidate`'s repetend instance finishes below
    /// `below`, as far as the screen can prove it, and the stage that proved
    /// it. `None` means "not refuted", never "feasible": the solver decides.
    ///
    /// The first three stages are [`CandidateScreen::bound`]. The fourth asks
    /// whether any schedule meets the deadline `below - 1`:
    ///
    /// 1. heads and tails are propagated along the kept edges and every arc
    ///    fixed so far;
    /// 2. *immediate selection* (Carlier–Pinson): for two blocks `i`, `j`
    ///    that share a device, `head_i + t_i + t_j + tail_j > deadline` rules
    ///    the order `i → j` out. Both orders ruled out refutes the
    ///    candidate; one ruled out fixes the other as an arc. Repeated with
    ///    (1) until nothing changes, then the one-machine bound is taken
    ///    again over the tightened windows;
    /// 3. *pair probing*: each order of a pair still open is assumed, with
    ///    (1) and (2) run on top and rolled back afterwards. A contradiction
    ///    on both sides refutes the candidate; on one side it fixes the other
    ///    order.
    ///
    /// Every loop is bounded by the placement's size: a propagation makes
    /// at most a quadratic number of steps in the blocks, each further one
    /// fixes a pair, and each pair is probed once.
    pub fn refutes(&mut self, candidate: &RepetendCandidate, below: u64) -> Option<ScreenStage> {
        self.sweep_heads(candidate);
        self.refutes_from_heads(candidate, below)
    }

    /// [`CandidateScreen::refutes`] for a leaf of the pruned enumeration,
    /// whose `heads` [`CandidateIter`](crate::repetend::CandidateIter)
    /// computed on the way down: the screen starts at the backward sweep.
    pub(crate) fn refutes_with_heads(
        &mut self,
        candidate: &RepetendCandidate,
        heads: &[u64],
        below: u64,
    ) -> Option<ScreenStage> {
        self.windows.heads.copy_from_slice(heads);
        self.refutes_from_heads(candidate, below)
    }

    /// Every stage of [`CandidateScreen::refutes`], over the candidate's
    /// heads in `windows`.
    fn refutes_from_heads(
        &mut self,
        candidate: &RepetendCandidate,
        below: u64,
    ) -> Option<ScreenStage> {
        if self.load_bound >= below {
            return Some(ScreenStage::Load);
        }
        if self.critical_path(candidate) >= below {
            return Some(ScreenStage::CriticalPath);
        }
        if self.one_machine_bound(below) >= below {
            return Some(ScreenStage::Jackson);
        }
        let deadline = below - 1;
        if !self.start_propagation(candidate, deadline) || self.one_machine_bound(below) >= below {
            return Some(ScreenStage::ImmediateSelection);
        }
        self.probe_pairs(deadline).then_some(ScreenStage::Probing)
    }

    /// Heads forwards along the edges `candidate` keeps, into `windows`.
    fn sweep_heads(&mut self, candidate: &RepetendCandidate) {
        let heads = &mut self.windows.heads;
        for &stage in &self.graph.order {
            heads[stage] = self.graph.head(stage, &candidate.indices, heads);
        }
    }

    /// Tails backwards along the edges `candidate` keeps, into `windows`,
    /// which holds its heads; returns the critical path.
    fn critical_path(&mut self, candidate: &RepetendCandidate) -> u64 {
        let indices = &candidate.indices;
        let times = &self.graph.times;
        let Windows { heads, tails, .. } = &mut self.windows;
        // A stage's kept successors all precede it in the reverse sweep, so
        // its tail is final when it is pushed on to its dependencies.
        tails.fill(0);
        let mut path = 0;
        for &stage in self.graph.order.iter().rev() {
            let chain = times[stage] + tails[stage];
            path = path.max(heads[stage] + chain);
            for &dep in self.graph.deps(stage) {
                if indices[dep] == indices[stage] {
                    tails[dep] = tails[dep].max(chain);
                }
            }
        }
        path
    }

    /// The largest [`jackson_preemptive_bound`] over the devices, each over
    /// its blocks as `(head, time, tail)` jobs from `windows`; stops at the
    /// first device that reaches `enough`.
    fn one_machine_bound(&mut self, enough: u64) -> u64 {
        let mut bound = 0;
        for blocks in &self.device_blocks {
            self.jobs.clear();
            self.jobs.extend(blocks.iter().map(|&i| {
                (
                    self.windows.heads[i],
                    self.graph.times[i],
                    self.windows.tails[i],
                )
            }));
            bound = bound.max(jackson_preemptive_bound(&mut self.jobs));
            if bound >= enough {
                break;
            }
        }
        bound
    }

    /// Starts deadline propagation for `candidate`, whose heads and tails
    /// `windows` holds (a fixpoint of its kept edges, every window within the
    /// deadline): no arc fixed, every pair decided once, then propagation
    /// and selection to a fixpoint. Whether the windows can still meet
    /// `deadline`.
    fn start_propagation(&mut self, candidate: &RepetendCandidate, deadline: u64) -> bool {
        self.indices.copy_from_slice(&candidate.indices);
        for arcs in self.arcs_out.iter_mut().chain(&mut self.arcs_in) {
            arcs.clear();
        }
        self.windows.fixed.fill(false);
        self.trail.clear();
        for p in 0..self.pairs.len() {
            if !self.decide(p, deadline) {
                self.abandon();
                return false;
            }
        }
        self.tighten(deadline)
    }

    /// Pair probing over `windows`, which [`Self::tighten`] has brought to a
    /// fixpoint. Returns `true` if the candidate is refuted.
    fn probe_pairs(&mut self, deadline: u64) -> bool {
        for p in 0..self.pairs.len() {
            let (i, j) = self.pairs[p];
            for (first, second) in [(i, j), (j, i)] {
                if self.windows.fixed[p] {
                    break;
                }
                let mark = self.trail.len();
                let met = self.assume(p, first, second, deadline);
                self.undo_to(mark);
                // `first → second` misses the deadline: the pair runs the
                // other way round, or the candidate is refuted.
                if !met && !self.assume(p, second, first, deadline) {
                    return true;
                }
            }
        }
        false
    }

    /// Fixes `before → after` for pair `p` and tightens: whether the windows
    /// can still meet `deadline`.
    fn assume(&mut self, p: usize, before: usize, after: usize, deadline: u64) -> bool {
        if !self.fix(p, before, after, deadline) {
            self.abandon();
            return false;
        }
        self.tighten(deadline)
    }

    /// Propagation and immediate selection from the worklists to a
    /// fixpoint: whether the windows can still meet `deadline`. On `false`
    /// the worklists are emptied, the windows left where the contradiction
    /// was found.
    fn tighten(&mut self, deadline: u64) -> bool {
        while self.propagate(deadline) {
            if self.dirty.is_empty() {
                return true;
            }
            if !self.select(deadline) {
                break;
            }
        }
        self.abandon();
        false
    }

    /// Pushes every raised head forwards and every raised tail backwards
    /// along the kept edges and the fixed arcs until the worklists run dry.
    /// Returns `false` if a block's window `head + time + tail` passes
    /// `deadline`, or if the edges hold a cycle: a cycle runs through an
    /// arc, which joins two positive-time blocks, so no schedule orders its
    /// blocks that way. Without one, a FIFO worklist settles within one pass
    /// per block, each block queued at most once per pass; the step budget
    /// rather than the deadline ends the loop on a cycle, so the cost does
    /// not grow with the magnitude of the block times.
    fn propagate(&mut self, deadline: u64) -> bool {
        let k = self.flags.len();
        let mut budget = 2 * k * (k + 1);
        loop {
            if let Some(b) = self.head_queue.pop_front() {
                self.flags[b] &= !HEAD_QUEUED;
                let head = self.windows.heads[b] + self.graph.times[b];
                for n in 0..self.dependents[b].len() {
                    let after = self.dependents[b][n];
                    if self.indices[after] == self.indices[b]
                        && !self.raise_head(after, head, deadline)
                    {
                        return false;
                    }
                }
                for n in 0..self.arcs_out[b].len() {
                    if !self.raise_head(self.arcs_out[b][n], head, deadline) {
                        return false;
                    }
                }
            } else if let Some(b) = self.tail_queue.pop_front() {
                self.flags[b] &= !TAIL_QUEUED;
                let tail = self.graph.times[b] + self.windows.tails[b];
                for n in 0..self.graph.deps(b).len() {
                    let before = self.graph.deps(b)[n];
                    if self.indices[before] == self.indices[b]
                        && !self.raise_tail(before, tail, deadline)
                    {
                        return false;
                    }
                }
                for n in 0..self.arcs_in[b].len() {
                    if !self.raise_tail(self.arcs_in[b][n], tail, deadline) {
                        return false;
                    }
                }
            } else {
                return true;
            }
            budget -= 1;
            if budget == 0 {
                return false;
            }
        }
    }

    /// Immediate selection on every open pair of a block whose window
    /// changed. Returns `false` if some pair can run in neither order.
    fn select(&mut self, deadline: u64) -> bool {
        while let Some(b) = self.dirty.pop() {
            self.flags[b] &= !DIRTY;
            for n in 0..self.block_pairs[b].len() {
                if !self.decide(self.block_pairs[b][n], deadline) {
                    return false;
                }
            }
        }
        true
    }

    /// Immediate selection on pair `p`: fixes the one order the deadline
    /// leaves, if only one. Returns `false` if it leaves neither.
    fn decide(&mut self, p: usize, deadline: u64) -> bool {
        if self.windows.fixed[p] {
            return true;
        }
        let (i, j) = self.pairs[p];
        let Windows { heads, tails, .. } = &self.windows;
        let both = self.graph.times[i] + self.graph.times[j];
        let i_first = heads[i] + both + tails[j] <= deadline;
        let j_first = heads[j] + both + tails[i] <= deadline;
        match (i_first, j_first) {
            (true, true) => true,
            (true, false) => self.fix(p, i, j, deadline),
            (false, true) => self.fix(p, j, i, deadline),
            (false, false) => false,
        }
    }

    /// Fixes pair `p` as the arc `before → after` and pushes each end's
    /// window across it. Returns `false` if a window passes `deadline`.
    fn fix(&mut self, p: usize, before: usize, after: usize, deadline: u64) -> bool {
        self.windows.fixed[p] = true;
        self.arcs_out[before].push(after);
        self.arcs_in[after].push(before);
        self.trail.push(Undo::Arc(p, before, after));
        let head = self.windows.heads[before] + self.graph.times[before];
        let tail = self.graph.times[after] + self.windows.tails[after];
        self.raise_head(after, head, deadline) && self.raise_tail(before, tail, deadline)
    }

    /// Raises block `b`'s head to `head` and queues it, unless it is already
    /// that high. Returns `false` if that passes `deadline`.
    fn raise_head(&mut self, b: usize, head: u64, deadline: u64) -> bool {
        let old = self.windows.heads[b];
        if head <= old {
            return true;
        }
        if head + self.graph.times[b] + self.windows.tails[b] > deadline {
            return false;
        }
        self.windows.heads[b] = head;
        self.trail.push(Undo::Head(b, old));
        if self.flags[b] & HEAD_QUEUED == 0 {
            self.head_queue.push_back(b);
        }
        self.touch(b, HEAD_QUEUED);
        true
    }

    /// [`Self::raise_head`] for block `b`'s tail.
    fn raise_tail(&mut self, b: usize, tail: u64, deadline: u64) -> bool {
        let old = self.windows.tails[b];
        if tail <= old {
            return true;
        }
        if self.windows.heads[b] + self.graph.times[b] + tail > deadline {
            return false;
        }
        self.windows.tails[b] = tail;
        self.trail.push(Undo::Tail(b, old));
        if self.flags[b] & TAIL_QUEUED == 0 {
            self.tail_queue.push_back(b);
        }
        self.touch(b, TAIL_QUEUED);
        true
    }

    /// Sets `queued` on block `b` and marks it [`DIRTY`].
    fn touch(&mut self, b: usize, queued: u8) {
        if self.flags[b] & DIRTY == 0 {
            self.dirty.push(b);
        }
        self.flags[b] |= queued | DIRTY;
    }

    /// Empties the worklists after a contradiction.
    fn abandon(&mut self) {
        self.head_queue.clear();
        self.tail_queue.clear();
        self.dirty.clear();
        self.flags.fill(0);
    }

    /// Rolls every change after the first `mark` entries of the trail back,
    /// latest first.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("length checked") {
                Undo::Head(b, old) => self.windows.heads[b] = old,
                Undo::Tail(b, old) => self.windows.tails[b] = old,
                Undo::Arc(p, before, after) => {
                    self.windows.fixed[p] = false;
                    self.arcs_out[before].pop();
                    self.arcs_in[after].pop();
                }
            }
        }
    }
}

/// A seeded random placement: 2-4 devices, 3-7 blocks with times 0-4 (one in
/// eight takes no time), random backward edges, occasional two- and
/// three-device (tensor-parallel) blocks, forward blocks allocating and
/// backward blocks releasing, and on a third of the seeds a memory capacity.
#[cfg(test)]
pub(crate) fn random_placement(seed: u64) -> PlacementSpec {
    use crate::ir::BlockKind;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7e55e1;
    let mut below = move |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) % n
    };
    let devices = 2 + below(3) as usize;
    let blocks = 3 + below(5) as usize;
    let mut b = PlacementSpec::builder(format!("random-{seed}"), devices);
    if below(3) == 0 {
        b.set_memory_capacity(Some(2 + below(4) as i64));
    }
    for i in 0..blocks {
        let mut devs = vec![below(devices as u64) as usize];
        if below(4) == 0 {
            devs.push((devs[0] + 1) % devices);
            if devices > 2 && below(2) == 0 {
                devs.push((devs[0] + 2) % devices);
            }
        }
        let deps: Vec<usize> = (0..i).filter(|_| below(3) == 0).collect();
        let (kind, memory) = if i < blocks / 2 {
            (BlockKind::Forward, 1)
        } else {
            (BlockKind::Backward, -1)
        };
        let time = if below(8) == 0 { 0 } else { 1 + below(4) };
        b.add_block(format!("b{i}"), kind, devs, time, memory, deps)
            .unwrap();
    }
    b.build().unwrap()
}

/// The first seed of a battery over [`random_placement`]:
/// `TESSEL_FUZZ_SEED` (decimal or 0x-hex), or the pinned default.
#[cfg(test)]
pub(crate) fn first_seed() -> u64 {
    let raw = std::env::var("TESSEL_FUZZ_SEED").ok();
    let parsed = raw
        .as_deref()
        .map(str::trim)
        .and_then(|raw| match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => raw.parse().ok(),
        });
    parsed.unwrap_or(0xf16e_4a44)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BlockKind;
    use crate::repetend::{build_repetend_instance, candidate_iter};
    use tessel_solver::{Solver, SolverConfig};

    #[test]
    fn conflict_pairs_list_each_pair_of_occupying_blocks_once() {
        let mut b = PlacementSpec::builder("pairs", 3);
        let on = |b: &mut crate::ir::PlacementBuilder, devices: &[usize], time| {
            b.add_block("b", BlockKind::Forward, devices.to_vec(), time, 0, [])
                .unwrap()
        };
        let wide = on(&mut b, &[0, 1, 2], 2);
        let two = on(&mut b, &[0, 1], 1);
        let instant = on(&mut b, &[0], 0);
        let alone = on(&mut b, &[2], 3);
        let screen = CandidateScreen::new(&b.build().unwrap());
        // `wide` and `two` share two devices and are listed once; the
        // zero-time block occupies nothing; `two` and `alone` never meet.
        assert_eq!(screen.pairs, vec![(wide, two), (wide, alone)]);
        assert!(screen
            .pairs
            .iter()
            .all(|&(i, j)| i != instant && j != instant));
    }

    #[test]
    fn each_stage_refutes_what_the_one_before_lets_through() {
        // Two devices; `a` (time 2) feeds `c` (time 2) on the other device,
        // `b` (time 3) shares `a`'s device and `d` (time 3) shares `c`'s and
        // waits for `b`. Load 5, critical path 6.
        let mut b = PlacementSpec::builder("stages", 2);
        let a = b.add_block("a", BlockKind::Forward, [0], 2, 0, []).unwrap();
        let bb = b.add_block("b", BlockKind::Forward, [0], 3, 0, []).unwrap();
        b.add_block("c", BlockKind::Forward, [1], 2, 0, [a])
            .unwrap();
        b.add_block("d", BlockKind::Forward, [1], 3, 0, [bb])
            .unwrap();
        let placement = b.build().unwrap();
        let candidate = RepetendCandidate {
            indices: vec![0; 4],
        };
        let mut screen = CandidateScreen::new(&placement);
        let instance = build_repetend_instance(&placement, &candidate).unwrap();
        let solver = Solver::new(SolverConfig::exhaustive().with_threads(1));
        let optimum = solver
            .minimize(&instance)
            .unwrap()
            .solution()
            .unwrap()
            .makespan();
        let bound = screen.bound(&candidate, u64::MAX);
        assert_eq!((bound, optimum), (7, 8));
        assert_eq!(screen.refutes(&candidate, 5), Some(ScreenStage::Load));
        assert_eq!(
            screen.refutes(&candidate, 6),
            Some(ScreenStage::CriticalPath)
        );
        assert_eq!(screen.refutes(&candidate, 7), Some(ScreenStage::Jackson));
        // Beyond the bound: device 0 must run `a` then `b` or `b` then `a`,
        // and either way device 1 cannot finish by 7.
        assert!(matches!(
            screen.refutes(&candidate, 8),
            Some(ScreenStage::ImmediateSelection | ScreenStage::Probing)
        ));
        assert_eq!(screen.refutes(&candidate, 9), None);
    }

    #[test]
    fn a_probe_that_closes_a_cycle_ends_on_the_step_budget() {
        // `a → b → c` with `a` and `c` on device 0, next to a long block on
        // device 2 that puts the deadline far beyond the chain. Probing the
        // pair `(a, c)` the wrong way round closes the cycle `a → b → c → a`,
        // which gains 3 units a lap: only the step budget, not the deadline,
        // can end that in time.
        let long = 1 << 40;
        let mut b = PlacementSpec::builder("cycle", 3);
        let a = b.add_block("a", BlockKind::Forward, [0], 1, 0, []).unwrap();
        let mid = b
            .add_block("b", BlockKind::Forward, [1], 1, 0, [a])
            .unwrap();
        let c = b
            .add_block("c", BlockKind::Forward, [0], 1, 0, [mid])
            .unwrap();
        b.add_block("d", BlockKind::Forward, [2], long, 0, [])
            .unwrap();
        let placement = b.build().unwrap();
        let candidate = RepetendCandidate {
            indices: vec![0; 4],
        };
        let mut screen = CandidateScreen::new(&placement);
        assert_eq!(screen.bound(&candidate, u64::MAX), long);
        let stage = refutes_as_the_sweeps_do(&mut screen, &candidate, long + 1, "cycle");
        assert_eq!(stage, None);
        // The probe refuted `c → a`, so the pair is fixed as `a → c`.
        assert_eq!(screen.pairs, vec![(a, c)]);
        assert!(screen.windows.fixed[0] && screen.arcs_out[a] == [c]);
    }

    /// Stage 4 as it was before the trail, kept as the reference the
    /// worklist must agree with: every `tighten` sweeps all edges until
    /// nothing changes and rescans every pair, and every probe runs on a
    /// copy of the windows.
    mod sweeps {
        use super::super::{CandidateScreen, Windows};
        use crate::repetend::RepetendCandidate;
        use crate::screen::ScreenStage;

        /// [`CandidateScreen::refutes`] with the sweeps as its fourth stage.
        pub(super) fn refutes(
            screen: &mut CandidateScreen,
            candidate: &RepetendCandidate,
            below: u64,
        ) -> Option<ScreenStage> {
            screen.sweep_heads(candidate);
            if screen.load_bound >= below {
                return Some(ScreenStage::Load);
            }
            if screen.critical_path(candidate) >= below {
                return Some(ScreenStage::CriticalPath);
            }
            if screen.one_machine_bound(below) >= below {
                return Some(ScreenStage::Jackson);
            }
            let deadline = below - 1;
            let indices = &candidate.indices;
            let mut edges = Vec::new();
            for &stage in &screen.graph.order {
                for &dep in screen.graph.deps(stage) {
                    if indices[dep] == indices[stage] {
                        edges.push((dep, stage));
                    }
                }
            }
            screen.windows.fixed.fill(false);
            let (times, pairs) = (&screen.graph.times, &screen.pairs);
            if !tighten(times, pairs, deadline, &mut edges, &mut screen.windows)
                || screen.one_machine_bound(below) >= below
            {
                return Some(ScreenStage::ImmediateSelection);
            }
            probe_pairs(screen, deadline, &mut edges).then_some(ScreenStage::Probing)
        }

        /// Pair probing over `screen.windows`, which [`tighten`] has brought
        /// to a fixpoint. Returns `true` if the candidate is refuted.
        fn probe_pairs(
            screen: &mut CandidateScreen,
            deadline: u64,
            edges: &mut Vec<(usize, usize)>,
        ) -> bool {
            let (times, pairs) = (&screen.graph.times, &screen.pairs);
            for (p, &(i, j)) in pairs.iter().enumerate() {
                for (first, second) in [(i, j), (j, i)] {
                    if screen.windows.fixed[p] {
                        break;
                    }
                    let fixed_arcs = edges.len();
                    let mut trial = screen.windows.clone();
                    trial.fixed[p] = true;
                    edges.push((first, second));
                    let met = tighten(times, pairs, deadline, edges, &mut trial);
                    edges.truncate(fixed_arcs);
                    if met {
                        continue;
                    }
                    screen.windows.fixed[p] = true;
                    edges.push((second, first));
                    if !tighten(times, pairs, deadline, edges, &mut screen.windows) {
                        return true;
                    }
                }
            }
            false
        }

        /// Longest paths along `edges` into `windows`, one sweep each way
        /// per round. Returns `false` if a window passes `deadline`, or if
        /// the rounds run out (a cycle).
        fn propagate(
            times: &[u64],
            deadline: u64,
            edges: &[(usize, usize)],
            windows: &mut Windows,
        ) -> bool {
            let Windows { heads, tails, .. } = windows;
            for _ in 0..=times.len() {
                let mut changed = false;
                for &(before, after) in edges {
                    let head = heads[before] + times[before];
                    if head > heads[after] {
                        if head + times[after] + tails[after] > deadline {
                            return false;
                        }
                        heads[after] = head;
                        changed = true;
                    }
                }
                for &(before, after) in edges.iter().rev() {
                    let tail = times[after] + tails[after];
                    if tail > tails[before] {
                        if heads[before] + times[before] + tail > deadline {
                            return false;
                        }
                        tails[before] = tail;
                        changed = true;
                    }
                }
                if !changed {
                    return true;
                }
            }
            false
        }

        /// [`propagate`] and a rescan of every pair, to a fixpoint: whether
        /// the windows can still meet `deadline`. Every arc it fixes is
        /// appended to `edges` and its pair marked in `windows.fixed`.
        fn tighten(
            times: &[u64],
            pairs: &[(usize, usize)],
            deadline: u64,
            edges: &mut Vec<(usize, usize)>,
            windows: &mut Windows,
        ) -> bool {
            loop {
                if !propagate(times, deadline, edges, windows) {
                    return false;
                }
                let fixed_arcs = edges.len();
                for (p, &(i, j)) in pairs.iter().enumerate() {
                    if windows.fixed[p] {
                        continue;
                    }
                    let both = times[i] + times[j];
                    let i_first = windows.heads[i] + both + windows.tails[j] <= deadline;
                    let j_first = windows.heads[j] + both + windows.tails[i] <= deadline;
                    match (i_first, j_first) {
                        (true, true) => continue,
                        (true, false) => edges.push((i, j)),
                        (false, true) => edges.push((j, i)),
                        (false, false) => return false,
                    }
                    windows.fixed[p] = true;
                }
                if edges.len() == fixed_arcs {
                    return true;
                }
            }
        }
    }

    /// `refutes` on the trail, held to the sweeps: the same verdict at the
    /// same stage, and where nothing is refuted the same windows and fixed
    /// pairs. Leaves `screen` as the trail left it.
    fn refutes_as_the_sweeps_do(
        screen: &mut CandidateScreen,
        candidate: &RepetendCandidate,
        below: u64,
        at: &str,
    ) -> Option<ScreenStage> {
        let mut reference = screen.clone();
        let expected = sweeps::refutes(&mut reference, candidate, below);
        let stage = screen.refutes(candidate, below);
        assert_eq!(stage, expected, "{at}: below {below}, trail against sweeps");
        if stage.is_none() {
            assert_eq!(
                screen.windows, reference.windows,
                "{at}: below {below}, the fixpoints differ"
            );
        }
        stage
    }

    /// What one run of the soundness battery reached.
    #[derive(Debug, Default)]
    struct Reached {
        /// `refutes` calls with `below` past the Jackson bound.
        calls: usize,
        by_selection: usize,
        by_probing: usize,
        /// Refutations at `below == optimum`, the last the screen may make.
        tight: usize,
    }

    /// The fourth stage against the exhaustive solver: for every candidate of
    /// every seed's placement at NR 1-3 and every `below` from just past the
    /// Jackson bound to just past the optimum, `refutes` implies that the
    /// optimum is not below `below`, and it answers as the sweeps do.
    fn soundness_battery(seeds: std::ops::Range<u64>) -> Reached {
        let solver = Solver::new(SolverConfig::exhaustive().with_threads(1));
        let mut reached = Reached::default();
        for seed in seeds {
            let p = random_placement(seed);
            let mut screen = CandidateScreen::new(&p);
            for cand in (1..=3).flat_map(|nr| candidate_iter(&p, nr)) {
                let at = format!("random_placement({seed:#x}) candidate {:?}", cand.indices);
                let Ok(instance) = build_repetend_instance(&p, &cand) else {
                    continue;
                };
                let outcome = solver.minimize(&instance).unwrap();
                // No schedule at all (memory): every refutation is right.
                let Some(solution) = outcome.solution() else {
                    continue;
                };
                assert!(outcome.is_optimal(), "{at}");
                let optimum = solution.makespan();
                let jackson = screen.bound(&cand, u64::MAX);
                // Up to its own bound the screen is the three bounds.
                assert!(
                    matches!(
                        refutes_as_the_sweeps_do(&mut screen, &cand, jackson, &at),
                        Some(ScreenStage::Load | ScreenStage::CriticalPath | ScreenStage::Jackson)
                    ),
                    "{at}"
                );
                for below in jackson + 1..=optimum + 2 {
                    reached.calls += 1;
                    let Some(stage) = refutes_as_the_sweeps_do(&mut screen, &cand, below, &at)
                    else {
                        continue;
                    };
                    assert!(
                        optimum >= below,
                        "{at}: {stage:?} refutes below {below}, the optimum is {optimum}"
                    );
                    match stage {
                        ScreenStage::ImmediateSelection => reached.by_selection += 1,
                        ScreenStage::Probing => reached.by_probing += 1,
                        bound => panic!("{at}: {bound:?} past the bound {jackson}"),
                    }
                    reached.tight += usize::from(below == optimum);
                }
            }
        }
        reached
    }

    #[test]
    fn refutation_is_sound_against_the_exhaustive_solver() {
        let first = first_seed();
        let reached = soundness_battery(first..first + 240);
        // The battery has to reach its subject: refutations the bounds do
        // not make, by both rules, many of them the last one possible.
        let beyond = reached.by_selection + reached.by_probing;
        assert!(
            beyond > 1000 && reached.tight > 500 && reached.by_probing > 0,
            "TESSEL_FUZZ_SEED={first:#x}: {reached:?}"
        );
    }

    /// Reproduce a failure with `TESSEL_FUZZ_SEED=<seed> cargo test --release
    /// -p tessel-core --lib screen -- --include-ignored`.
    #[test]
    #[ignore = "2,000 placements against the exhaustive solver; CI's fuzz job runs it in release"]
    fn refutation_is_sound_on_2000_seeds() {
        let first = first_seed();
        let reached = soundness_battery(first..first + 2000);
        eprintln!("TESSEL_FUZZ_SEED={first:#x}: {reached:?}");
        assert!(reached.by_selection > 0 && reached.by_probing > 0);
    }
}
