//! Schedule completion: warmup and cooldown phases (§IV-C of the paper).
//!
//! Once a repetend is selected, the remaining blocks of its `NR` micro-batches
//! form a warmup phase (micro-batch indices below the repetend index of each
//! stage, Eq. 5) and a cooldown phase (indices above it, Eq. 6). Both are
//! solved time-optimally and later concatenated around the repeated repetend.

use crate::error::CoreError;
use crate::ir::PlacementSpec;
use crate::repetend::{entry_memory, Repetend, RepetendCandidate};
use serde::{Deserialize, Serialize};
use tessel_solver::{greedy_schedule, GreedyPriority, Instance, InstanceBuilder, Solver, TaskId};

/// Identifies which completion phase a block set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Blocks executed before the first repetend repetition.
    Warmup,
    /// Blocks executed after the last repetend repetition.
    Cooldown,
}

impl Phase {
    /// Lowercase name used in error messages and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Cooldown => "cooldown",
        }
    }
}

/// The blocks of one completion phase together with their solved start times.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PhasePlan {
    /// `(stage, micro_batch)` pairs of the phase, in the order used by
    /// [`PhasePlan::starts`].
    pub blocks: Vec<(usize, usize)>,
    /// Start time per block, relative to the beginning of the phase.
    pub starts: Vec<u64>,
}

impl PhasePlan {
    /// An empty phase (e.g. warmup when the repetend only uses micro-batch 0).
    #[must_use]
    pub fn empty() -> Self {
        PhasePlan::default()
    }

    /// `true` if the phase contains no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Completion time of the phase in isolation.
    #[must_use]
    pub fn makespan(&self, placement: &PlacementSpec) -> u64 {
        self.blocks
            .iter()
            .zip(&self.starts)
            .map(|(&(stage, _), &s)| s + placement.block(stage).time)
            .max()
            .unwrap_or(0)
    }

    /// Latest finish time of the phase's blocks on `device`.
    #[must_use]
    pub fn device_finish(&self, placement: &PlacementSpec, device: usize) -> u64 {
        self.blocks
            .iter()
            .zip(&self.starts)
            .filter(|(&(stage, _), _)| placement.block(stage).uses_device(device))
            .map(|(&(stage, _), &s)| s + placement.block(stage).time)
            .max()
            .unwrap_or(0)
    }

    /// The finish time of a specific `(stage, micro_batch)` block, if present.
    #[must_use]
    pub fn finish_of(
        &self,
        placement: &PlacementSpec,
        stage: usize,
        micro_batch: usize,
    ) -> Option<u64> {
        self.blocks
            .iter()
            .zip(&self.starts)
            .find(|(&(s, m), _)| s == stage && m == micro_batch)
            .map(|(&(stage, _), &start)| start + placement.block(stage).time)
    }
}

/// The warmup block set of Eq. 5: `{B_i^n | n < indices[i]}`.
#[must_use]
pub fn warmup_blocks(candidate: &RepetendCandidate) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    for (stage, &idx) in candidate.indices.iter().enumerate() {
        for n in 0..idx {
            blocks.push((stage, n));
        }
    }
    blocks
}

/// The cooldown block set of Eq. 6: `{B_i^n | indices[i] < n < NR}`.
#[must_use]
pub fn cooldown_blocks(candidate: &RepetendCandidate) -> Vec<(usize, usize)> {
    let nr = candidate.num_micro_batches();
    let mut blocks = Vec::new();
    for (stage, &idx) in candidate.indices.iter().enumerate() {
        for n in (idx + 1)..nr {
            blocks.push((stage, n));
        }
    }
    blocks
}

/// Builds the solver instance of a completion phase.
///
/// Dependencies are added between blocks of the same micro-batch (the data
/// dependencies of the placement) and between consecutive micro-batches of
/// the same stage (the symmetry-breaking order of Property 4.1, which never
/// worsens the optimum). `initial_memory` is the per-device occupancy at the
/// phase start: zero for warmup, warmup plus the repetend copies for
/// cooldown.
///
/// # Errors
///
/// Propagates builder errors (which cannot occur for valid placements) and
/// fails for an empty block set — use [`PhasePlan::empty`] instead.
pub fn build_phase_instance(
    placement: &PlacementSpec,
    blocks: &[(usize, usize)],
    initial_memory: Vec<i64>,
) -> Result<(Instance, Vec<(usize, usize)>), CoreError> {
    let mut builder = InstanceBuilder::new(placement.num_devices());
    builder.set_memory_capacity(placement.memory_capacity());
    builder.set_initial_memory(initial_memory)?;
    let mut ordered: Vec<(usize, usize)> = blocks.to_vec();
    ordered.sort_unstable();
    // The task of block `(stage, mb)` sits at `ids[mb * stages + stage]`.
    let stages = placement.num_blocks();
    let micro_batches = ordered.iter().map(|&(_, mb)| mb + 1).max().unwrap_or(0);
    let mut ids: Vec<Option<TaskId>> = vec![None; stages * micro_batches];
    for &(stage, mb) in &ordered {
        let spec = placement.block(stage);
        let label = format!("{}^{}", spec.name, mb);
        let id = builder.add_task(label, spec.time, spec.devices.iter().copied(), spec.memory)?;
        ids[mb * stages + stage] = Some(id);
    }
    for &(stage, mb) in &ordered {
        let spec = placement.block(stage);
        let id = ids[mb * stages + stage].expect("every phase block has a task");
        // Intra-micro-batch data dependencies (only those inside the phase;
        // cross-phase dependencies are satisfied by phase concatenation).
        for &dep in &spec.deps {
            if let Some(pred) = ids[mb * stages + dep] {
                builder.add_precedence(pred, id)?;
            }
        }
        // Property 4.1: blocks of the same stage run in micro-batch order.
        if mb > 0 {
            if let Some(pred) = ids[(mb - 1) * stages + stage] {
                builder.add_precedence(pred, id)?;
            }
        }
    }
    Ok((builder.build()?, ordered))
}

/// Memory resident on each device when the cooldown phase starts, assuming
/// `copies` repetend repetitions were executed.
#[must_use]
pub fn cooldown_entry_memory(
    placement: &PlacementSpec,
    candidate: &RepetendCandidate,
    copies: usize,
) -> Vec<i64> {
    let mut mem = entry_memory(placement, candidate);
    for block in placement.blocks() {
        for &d in &block.devices {
            mem[d] += copies as i64 * block.memory;
        }
    }
    mem
}

/// The block set of one completion phase of `candidate` (Eqs. 5 and 6) and
/// the memory resident on each device when the phase starts: nothing before
/// the warmup, the warmup plus `copies` repetend repetitions before the
/// cooldown.
pub(crate) fn phase_inputs(
    placement: &PlacementSpec,
    phase: Phase,
    candidate: &RepetendCandidate,
    copies: usize,
) -> (Vec<(usize, usize)>, Vec<i64>) {
    match phase {
        Phase::Warmup => (warmup_blocks(candidate), vec![0; placement.num_devices()]),
        Phase::Cooldown => (
            cooldown_blocks(candidate),
            cooldown_entry_memory(placement, candidate, copies),
        ),
    }
}

/// Solves a completion phase time-optimally.
///
/// # Errors
///
/// Returns [`CoreError::PhaseInfeasible`] if the phase admits no schedule
/// within the memory budget.
pub fn solve_phase(
    placement: &PlacementSpec,
    phase: Phase,
    blocks: &[(usize, usize)],
    initial_memory: Vec<i64>,
    solver: &Solver,
) -> Result<PhasePlan, CoreError> {
    if blocks.is_empty() {
        return Ok(PhasePlan::empty());
    }
    let (instance, ordered) = build_phase_instance(placement, blocks, initial_memory)?;
    let outcome = solver.minimize(&instance)?;
    let solution = outcome.solution().ok_or(CoreError::PhaseInfeasible {
        phase: phase.name(),
    })?;
    let starts: Vec<u64> = (0..ordered.len())
        .map(|i| solution.start(TaskId::from_index(i)))
        .collect();
    Ok(PhasePlan {
        blocks: ordered,
        starts,
    })
}

/// Checks (without optimising) whether a completion phase admits *any*
/// schedule within its total work; used by the paper's lazy-search
/// optimisation. The answer is the one `solver.satisfy(instance,
/// total_work)` gives when it runs to completion, reached in three steps:
///
/// 1. **Proof.** Without a memory capacity the answer is `true` and no
///    instance is built: the phase's precedence graph (placement
///    dependencies inside a micro-batch plus the Property 4.1 chain) is
///    acyclic, so running the blocks one at a time in a topological order
///    finishes at exactly the total work.
/// 2. **Witness.** Otherwise the list schedules `minimize` seeds with are
///    tried. An append-order list schedule never ends after the total work,
///    so one that does not dead-end on memory answers `true`.
/// 3. **Search.** Only when all three dead-end does `solver.satisfy` run.
///
/// # Errors
///
/// Propagates solver construction errors only; infeasibility is reported as
/// `Ok(false)`, and so is a `satisfy` that stops at its node or time budget
/// without a schedule.
pub fn probe_phase(
    placement: &PlacementSpec,
    blocks: &[(usize, usize)],
    initial_memory: Vec<i64>,
    solver: &Solver,
) -> Result<bool, CoreError> {
    if blocks.is_empty() || placement.memory_capacity().is_none() {
        return Ok(true);
    }
    let (instance, _) = build_phase_instance(placement, blocks, initial_memory)?;
    let deadline = instance.total_work();
    for priority in [
        GreedyPriority::LongestTail,
        GreedyPriority::MemoryAware,
        GreedyPriority::EarliestStart,
    ] {
        if let Some(witness) = greedy_schedule(&instance, priority) {
            if witness.makespan() <= deadline {
                debug_assert!(witness.validate(&instance).is_ok());
                return Ok(true);
            }
        }
    }
    let outcome = solver.satisfy(&instance, deadline)?;
    Ok(outcome.solution().is_some())
}

/// Solves both completion phases for a repetend, assuming `copies` repetend
/// repetitions separate them.
///
/// # Errors
///
/// Returns [`CoreError::PhaseInfeasible`] if either phase has no feasible
/// schedule.
pub fn complete_schedule(
    placement: &PlacementSpec,
    repetend: &Repetend,
    copies: usize,
    solver: &Solver,
) -> Result<(PhasePlan, PhasePlan), CoreError> {
    let solve = |phase| {
        let (blocks, entry_memory) = phase_inputs(placement, phase, &repetend.candidate, copies);
        solve_phase(placement, phase, &blocks, entry_memory, solver)
    };
    Ok((solve(Phase::Warmup)?, solve(Phase::Cooldown)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BlockKind;
    use tessel_solver::{SolveOutcome, SolverConfig};

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

    fn one_f_one_b_candidate(d: usize) -> RepetendCandidate {
        // Forward stage i carries index d-1-i... the classic 1F1B steady
        // state assigns decreasing indices along the chain; use the standard
        // assignment: forwards get (d-1), (d-2), ..; backwards get 0.
        let mut indices = Vec::new();
        for i in 0..d {
            indices.push(d - 1 - i);
        }
        indices.extend(std::iter::repeat_n(0, d));
        RepetendCandidate { indices }
    }

    #[test]
    fn warmup_and_cooldown_sets_match_equations() {
        let cand = one_f_one_b_candidate(2); // indices [1, 0, 0, 0]
        let warmup = warmup_blocks(&cand);
        assert_eq!(warmup, vec![(0, 0)]);
        let cooldown = cooldown_blocks(&cand);
        // NR = 2: stages 1..3 each miss micro-batch 1.
        assert_eq!(cooldown, vec![(1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn phase_sizes_cover_all_blocks_of_nr_micro_batches() {
        let cand = one_f_one_b_candidate(4);
        let nr = cand.num_micro_batches();
        let k = cand.indices.len();
        let total = warmup_blocks(&cand).len() + cooldown_blocks(&cand).len() + k;
        assert_eq!(total, nr * k);
    }

    #[test]
    fn empty_phase_solves_trivially() {
        let p = v_shape(2, 2, None);
        let solver = Solver::new(SolverConfig::default());
        let plan = solve_phase(&p, Phase::Warmup, &[], vec![0, 0], &solver).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.makespan(&p), 0);
        assert!(probe_phase(&p, &[], vec![0, 0], &solver).unwrap());
    }

    #[test]
    fn warmup_phase_is_solved_time_optimally() {
        let p = v_shape(2, 2, None);
        let cand = one_f_one_b_candidate(2);
        let solver = Solver::new(SolverConfig::default());
        let plan = solve_phase(
            &p,
            Phase::Warmup,
            &warmup_blocks(&cand),
            vec![0, 0],
            &solver,
        )
        .unwrap();
        // Single block f0 of micro-batch 0: makespan 1.
        assert_eq!(plan.makespan(&p), 1);
        assert_eq!(plan.device_finish(&p, 0), 1);
        assert_eq!(plan.device_finish(&p, 1), 0);
        assert_eq!(plan.finish_of(&p, 0, 0), Some(1));
        assert_eq!(plan.finish_of(&p, 1, 0), None);
    }

    #[test]
    fn cooldown_phase_respects_dependencies() {
        let p = v_shape(2, 2, None);
        let cand = one_f_one_b_candidate(2);
        let solver = Solver::new(SolverConfig::default());
        let cooldown = solve_phase(
            &p,
            Phase::Cooldown,
            &cooldown_blocks(&cand),
            cooldown_entry_memory(&p, &cand, 1),
            &solver,
        )
        .unwrap();
        // Blocks f1^1 -> b1^1 -> b0^1 form a chain: 1 + 2 + 2 = 5.
        assert_eq!(cooldown.makespan(&p), 5);
    }

    #[test]
    fn complete_schedule_produces_both_phases() {
        let p = v_shape(4, 2, None);
        let cand = one_f_one_b_candidate(4);
        let solver = Solver::new(SolverConfig::default());
        let repetend = crate::repetend::solve_repetend(&p, &cand, &solver, u64::MAX)
            .unwrap()
            .unwrap();
        let (warmup, cooldown) = complete_schedule(&p, &repetend, 1, &solver).unwrap();
        assert_eq!(warmup.blocks.len(), warmup_blocks(&cand).len());
        assert_eq!(cooldown.blocks.len(), cooldown_blocks(&cand).len());
        assert!(warmup.makespan(&p) > 0);
        assert!(cooldown.makespan(&p) > 0);
    }

    #[test]
    fn probe_detects_memory_infeasibility() {
        // Warmup of two forwards on device 0 with capacity 1 is infeasible
        // because nothing releases memory inside the phase.
        let p = v_shape(2, 2, Some(1));
        let blocks = vec![(0usize, 0usize), (0, 1)];
        let solver = Solver::new(SolverConfig::default());
        assert!(!probe_phase(&p, &blocks, vec![0, 0], &solver).unwrap());
        let err = solve_phase(&p, Phase::Warmup, &blocks, vec![0, 0], &solver).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PhaseInfeasible { phase: "warmup" }
        ));
    }

    /// Which step of [`probe_phase`] answered, over one run of the oracle.
    #[derive(Debug, Default)]
    struct Answered {
        proof: usize,
        witness: usize,
        /// Probes no list schedule answered, split by the answer `satisfy`
        /// gave.
        search_feasible: usize,
        search_infeasible: usize,
    }

    /// [`probe_phase`] against the exhaustive solver's `satisfy` at the
    /// phase's total work: the warmup and cooldown of every candidate at NR
    /// 1-3 of every seed's placement, uncapped and under three tight
    /// capacities.
    fn probe_oracle(seeds: std::ops::Range<u64>) -> Answered {
        use crate::repetend::candidate_iter;
        use crate::screen::random_placement;
        let exhaustive = Solver::new(SolverConfig::exhaustive().with_threads(1));
        let probe = Solver::new(SolverConfig::probe().with_threads(1));
        let mut answered = Answered::default();
        for seed in seeds {
            let random = random_placement(seed);
            for capacity in [None, Some(1), Some(2), Some(3)] {
                let p = random.with_memory_capacity(capacity);
                for cand in (1..=3).flat_map(|nr| candidate_iter(&p, nr)) {
                    for phase in [Phase::Warmup, Phase::Cooldown] {
                        let (blocks, entry) = phase_inputs(&p, phase, &cand, 1);
                        if blocks.is_empty() {
                            continue;
                        }
                        let at = format!(
                            "TESSEL_FUZZ_SEED={seed:#x} capacity {capacity:?} candidate {:?} {}",
                            cand.indices,
                            phase.name()
                        );
                        let got = probe_phase(&p, &blocks, entry.clone(), &probe);
                        let Ok((instance, _)) = build_phase_instance(&p, &blocks, entry) else {
                            assert!(got.is_err(), "{at}: {got:?}");
                            continue;
                        };
                        let outcome = exhaustive
                            .satisfy(&instance, instance.total_work())
                            .unwrap();
                        assert!(!matches!(outcome, SolveOutcome::Unknown(_)), "{at}");
                        let feasible = outcome.solution().is_some();
                        assert_eq!(got.unwrap(), feasible, "{at}");
                        let witnessed = [
                            GreedyPriority::LongestTail,
                            GreedyPriority::MemoryAware,
                            GreedyPriority::EarliestStart,
                        ]
                        .into_iter()
                        .any(|priority| greedy_schedule(&instance, priority).is_some());
                        *match (capacity, witnessed, feasible) {
                            (None, ..) => &mut answered.proof,
                            (_, true, _) => &mut answered.witness,
                            (_, false, true) => &mut answered.search_feasible,
                            (_, false, false) => &mut answered.search_infeasible,
                        } += 1;
                    }
                }
            }
        }
        answered
    }

    #[test]
    fn probe_answers_as_the_exhaustive_solver_does() {
        let first = crate::screen::first_seed();
        let answered = probe_oracle(first..first + 60);
        // The oracle has to reach all three steps, the search with both
        // answers.
        assert!(
            answered.proof > 1000
                && answered.witness > 1000
                && answered.search_feasible > 0
                && answered.search_infeasible > 0,
            "TESSEL_FUZZ_SEED={first:#x}: {answered:?}"
        );
    }

    /// Reproduce a failure with `TESSEL_FUZZ_SEED=<seed> cargo test --release
    /// -p tessel-core --lib completion::tests::probe -- --include-ignored`.
    #[test]
    #[ignore = "2,000 placements against the exhaustive solver; CI's fuzz job runs it in release"]
    fn probe_answers_as_the_exhaustive_solver_does_on_2000_seeds() {
        let first = crate::screen::first_seed();
        let answered = probe_oracle(first..first + 2000);
        eprintln!("TESSEL_FUZZ_SEED={first:#x}: {answered:?}");
    }

    #[test]
    fn cooldown_entry_memory_accounts_for_copies() {
        let p = v_shape(2, 2, None);
        let cand = one_f_one_b_candidate(2);
        // Net memory per micro-batch is zero, so copies do not change it.
        assert_eq!(
            cooldown_entry_memory(&p, &cand, 1),
            cooldown_entry_memory(&p, &cand, 5)
        );
    }

    #[test]
    fn phase_name_strings() {
        assert_eq!(Phase::Warmup.name(), "warmup");
        assert_eq!(Phase::Cooldown.name(), "cooldown");
    }
}
