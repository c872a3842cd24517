//! The Tessel schedule search (Algorithm 1 of the paper).
//!
//! Given an operator placement and a memory budget, the search enumerates
//! repetend candidates over a growing number of micro-batches, solves each to
//! optimality with the exact scheduling solver, keeps the one with the
//! smallest period and finally completes warmup and cooldown phases around
//! it. Two things stand in front of the solves, and neither changes what the
//! search returns, because the solver could only answer "no schedule below
//! the bound" for what they reject. The enumeration itself is a
//! branch-and-bound ([`CandidateIter`]): a partial index assignment whose
//! longest kept dependency chain already reaches the best period found so
//! far is refuted with every candidate that completes it, so those are never
//! produced. A [`CandidateScreen`] then rejects every surviving candidate it
//! can prove has no schedule below that period, by a makespan lower bound or
//! by propagating the deadline, before an instance is built. The *lazy
//! search* optimisation (§V) replaces
//! per-candidate phase optimisation with a cheap satisfiability probe and
//! only optimises the phases once, for the winning repetend.
//!
//! The candidate loop is the serial loop of the paper: one lazy candidate
//! stream, pruned against the best period found so far — which is also the
//! bound every screen and solve runs below, re-read at every pull — and the
//! last candidate that improves on it wins. A pull hands control back after a
//! fixed number of steps whether or not it reached a candidate, so a passed
//! deadline is seen promptly however many refuted prefixes lie between two
//! candidates.

use crate::completion::{phase_inputs, probe_phase, solve_phase, Phase, PhasePlan};
use crate::compose::compose_schedule;
use crate::error::CoreError;
use crate::ir::PlacementSpec;
use crate::repetend::{solve_repetend, Advance, CandidateIter, Repetend, RepetendCandidate};
use crate::schedule::Schedule;
use crate::screen::{CandidateScreen, ScreenStage};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use tessel_solver::{ProgressBoard, Solver, SolverConfig, SolverTotals};

/// Configuration of the Tessel search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Number of micro-batches the final composed schedule should cover (`N`).
    pub num_micro_batches: usize,
    /// Upper limit on the number of micro-batches considered for the repetend
    /// (`NR`); the memory budget may cap it further via `CalMaxInflight`.
    pub max_repetend_micro_batches: usize,
    /// Solver configuration for repetend optimisation.
    pub repetend_solver: SolverConfig,
    /// Solver configuration for warmup/cooldown optimisation.
    pub phase_solver: SolverConfig,
    /// Enables the lazy-search optimisation of §V (on by default).
    pub lazy: bool,
    /// Optional cap on the enumeration *work* per `NR` value: candidates
    /// handed to the candidate loop plus partial assignments refuted with
    /// their whole subtree ([`SearchStats::subtrees_pruned`]), taken
    /// together. `None` enumerates every level to its end. A refuted prefix
    /// counts once however many candidates lie under it, so how far into a
    /// level a limited search reaches depends on how early its bound
    /// tightens.
    pub candidate_limit: Option<usize>,
    /// Optional absolute wall-clock deadline of every [`TesselSearch::run`]
    /// call made with this configuration. The run checks it before every
    /// candidate pull and hands it to every solver it makes
    /// ([`SolverConfig::deadline`]), which checks it at node-batch
    /// boundaries; once it passes, the run returns
    /// [`CoreError::DeadlineExceeded`]. `None` (the default) never times
    /// out. The schedule-search daemon passes each request's deadline here.
    pub deadline: Option<Instant>,
    /// Optional observer of the run (see [`ProgressBoard`]). The run
    /// attaches it — or a fresh board when this is `None` — to every solver
    /// it creates, so the board's live nodes and totals cover repetend
    /// solves, phase probes and phase optimisations alike, and
    /// [`SearchStats::solver`] is read from its totals. Its incumbent is
    /// Algorithm 1's anytime answer: the run records the period of every
    /// candidate that improves on the best so far and passes its phase
    /// check, so the recorded values strictly decrease and the last one is
    /// the returned repetend's period; the board's listener hears each as it
    /// happens. A board watches one run.
    pub progress: Option<ProgressBoard>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            num_micro_batches: 8,
            max_repetend_micro_batches: 6,
            repetend_solver: SolverConfig::default(),
            phase_solver: SolverConfig::default(),
            lazy: true,
            candidate_limit: None,
            deadline: None,
            progress: None,
        }
    }
}

impl SearchConfig {
    /// Returns a copy targeting `n` micro-batches in the composed schedule.
    #[must_use]
    pub fn with_micro_batches(mut self, n: usize) -> Self {
        self.num_micro_batches = n;
        self
    }

    /// Returns a copy with the lazy-search optimisation enabled or disabled
    /// (used by the Fig. 10 ablation).
    #[must_use]
    pub fn with_lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Returns a copy with a different repetend micro-batch cap (`NR` limit),
    /// used by the Fig. 11 ablation.
    #[must_use]
    pub fn with_max_repetend_micro_batches(mut self, nr: usize) -> Self {
        self.max_repetend_micro_batches = nr;
        self
    }

    /// Returns the copy unchanged: the candidate loop is serial, so its one
    /// worker is the only width there is. Kept for callers that still state
    /// it; `threads` must be 1.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is anything but 1.
    #[must_use]
    pub fn with_portfolio_threads(self, threads: usize) -> Self {
        assert_eq!(threads, 1, "the candidate loop is serial: one worker only");
        self
    }

    /// Returns a copy whose repetend *and* phase solvers run the
    /// work-stealing parallel search with `threads` workers (see
    /// [`SolverConfig::threads`]). Candidates are still evaluated one at a
    /// time; solver threads parallelise each individual solve, which helps
    /// when a few hard candidates dominate the run.
    #[must_use]
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.repetend_solver.threads = threads;
        self.phase_solver.threads = threads;
        self
    }

    /// Returns a copy whose runs stop at `deadline` (see
    /// [`SearchConfig::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Repetend repetitions between warmup and cooldown when the composed
    /// schedule covers [`SearchConfig::num_micro_batches`] micro-batches.
    fn copies_for(&self, repetend: &Repetend) -> usize {
        let nr = repetend.num_micro_batches();
        self.num_micro_batches.max(nr) - nr + 1
    }
}

/// Wall-clock time spent in each search phase; the breakdown reported in
/// Fig. 10 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Time spent on repetend candidates — pulling, screening and solving
    /// them: the candidate loop's time less what it spent on the two phases
    /// below.
    pub repetend: Duration,
    /// Time spent probing/optimising warmup phases.
    pub warmup: Duration,
    /// Time spent probing/optimising cooldown phases.
    pub cooldown: Duration,
}

impl PhaseBreakdown {
    /// Total time across the three phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.repetend + self.warmup + self.cooldown
    }

    /// The column a completion phase is charged to.
    fn of(&mut self, phase: Phase) -> &mut Duration {
        match phase {
            Phase::Warmup => &mut self.warmup,
            Phase::Cooldown => &mut self.cooldown,
        }
    }
}

/// [`SearchStats::candidates_screened`] split by the stage of the
/// [`CandidateScreen`] that refuted the candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreenedBy {
    /// The busiest device's load already reaches the bound.
    pub load: usize,
    /// The critical path over the candidate's kept edges does.
    pub critical_path: usize,
    /// Jackson's preemptive one-machine bound on some device does.
    pub jackson: usize,
    /// Precedence propagation and immediate selection contradict the bound.
    pub immediate_selection: usize,
    /// Pair probing does.
    pub probing: usize,
}

impl ScreenedBy {
    /// Candidates refuted by any stage.
    #[must_use]
    pub fn total(&self) -> usize {
        self.load + self.critical_path + self.jackson + self.immediate_selection + self.probing
    }

    /// The column a screen stage is counted in.
    fn of(&mut self, stage: ScreenStage) -> &mut usize {
        match stage {
            ScreenStage::Load => &mut self.load,
            ScreenStage::CriticalPath => &mut self.critical_path,
            ScreenStage::Jackson => &mut self.jackson,
            ScreenStage::ImmediateSelection => &mut self.immediate_selection,
            ScreenStage::Probing => &mut self.probing,
        }
    }
}

/// Statistics of one search run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of repetend candidates the enumeration handed to the candidate
    /// loop: the leaves of its branch-and-bound that survive the bound
    /// (enumeration stops early once the lower bound is reached). The
    /// candidates under a refuted prefix are not among them; see
    /// `subtrees_pruned`.
    pub candidates_considered: usize,
    /// Number of candidates the [`CandidateScreen`] refuted below the best
    /// period found so far, before any instance was built.
    #[serde(default)]
    pub candidates_screened: usize,
    /// Which stage of the screen refuted them; sums to
    /// `candidates_screened`.
    #[serde(default)]
    pub screened_by: ScreenedBy,
    /// Number of repetend candidates that passed the screen and were handed
    /// on to the solver: `candidates_considered == candidates_screened +
    /// repetend_solves`.
    pub repetend_solves: usize,
    /// Number of partial index assignments the enumeration refuted below the
    /// best period found so far, each together with every candidate that
    /// completes it; none of those candidates is in `candidates_considered`.
    #[serde(default)]
    pub subtrees_pruned: usize,
    /// Number of lazy feasibility probes issued for completion phases.
    pub feasibility_probes: usize,
    /// Number of candidates that improved on the incumbent repetend.
    pub improving_repetends: usize,
    /// `true` if the search stopped early because the repetend reached the
    /// per-device load lower bound (line 19 of Algorithm 1).
    pub early_exit: bool,
    /// `NR` of the winning repetend.
    pub chosen_nr: usize,
    /// Per-phase time breakdown.
    pub phase_times: PhaseBreakdown,
    /// Aggregate solver effort across every solver invocation this run
    /// issued (repetend solves, feasibility probes, phase optimisations) —
    /// nodes, prunes, and the work-stealing steal/shared-memo counters.
    pub solver: SolverTotals,
    /// Total wall-clock search time.
    #[serde(skip)]
    pub total_time: Duration,
}

/// The result of a Tessel search: the composed schedule plus everything
/// needed to re-compose it for a different number of micro-batches.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The composed schedule for [`SearchConfig::num_micro_batches`].
    pub schedule: Schedule,
    /// The winning repetend.
    pub repetend: Repetend,
    /// The solved warmup phase.
    pub warmup: PhasePlan,
    /// The solved cooldown phase.
    pub cooldown: PhasePlan,
    /// Search statistics.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// Re-composes the schedule for a different number of micro-batches
    /// without searching again — the schedule-generalisation property of
    /// §III-C.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is smaller than the repetend's micro-batch
    /// count.
    pub fn schedule_for(&self, placement: &PlacementSpec, n: usize) -> Result<Schedule, CoreError> {
        compose_schedule(placement, &self.repetend, &self.warmup, &self.cooldown, n)
    }
}

/// The Tessel schedule search engine.
#[derive(Debug, Clone, Default)]
pub struct TesselSearch {
    config: SearchConfig,
}

impl TesselSearch {
    /// Creates a search engine with the given configuration.
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        TesselSearch { config }
    }

    /// The configuration the search runs with.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs Algorithm 1 on `placement` and composes the final schedule for
    /// [`SearchConfig::num_micro_batches`] micro-batches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoFeasibleRepetend`] if no repetend fits within
    /// the memory budget, [`CoreError::DeadlineExceeded`] once
    /// [`SearchConfig::deadline`] has passed, or a phase/composition error
    /// if completion fails.
    pub fn run(&self, placement: &PlacementSpec) -> Result<SearchOutcome, CoreError> {
        placement.validate()?;
        let started = Instant::now();
        let mut search = SearchRun::new(placement, &self.config);
        search.candidates()?;
        // The deadline passing anywhere inside the candidate loop —
        // including mid-solve on the last candidate of an eager-mode run,
        // which the loop itself cannot distinguish from an infeasible
        // candidate — uniformly surfaces as a deadline error rather than a
        // silently weaker result.
        if search.past_deadline() {
            return Err(CoreError::DeadlineExceeded);
        }
        let mut stats = search.stats;
        // What the enumeration actually did: it stops once the early exit
        // fires.
        stats.candidates_considered = search.stream.pulled;
        stats.subtrees_pruned = search.stream.iter.subtrees_pruned();
        stats.candidates_screened = stats.screened_by.total();

        let winner = search.best.ok_or(CoreError::NoFeasibleRepetend)?;
        let repetend = winner.repetend;
        stats.chosen_nr = winner.nr;
        stats.early_exit = repetend.period <= search.lower_bound;
        let (warmup, cooldown) = match winner.phases {
            Some(phases) => phases,
            // Lazy mode: optimise the phases once, now, for the winner only.
            None => solve_phases(
                placement,
                &repetend,
                self.config.copies_for(&repetend),
                &search.phase_solver,
                &mut stats.phase_times,
            )?,
        };

        let schedule = compose_schedule(
            placement,
            &repetend,
            &warmup,
            &cooldown,
            self.config
                .num_micro_batches
                .max(repetend.num_micro_batches()),
        )?;
        stats.solver = search.board.totals();
        stats.total_time = started.elapsed();
        Ok(SearchOutcome {
            schedule,
            repetend,
            warmup,
            cooldown,
            stats,
        })
    }
}

/// One [`TesselSearch::run`] call's candidate loop and everything it keeps:
/// the lazy candidate stream, the best period so far, the winner, the
/// solvers and the [`CandidateScreen`] it evaluates candidates with, and the
/// counters of its [`SearchStats`].
struct SearchRun<'a> {
    placement: &'a PlacementSpec,
    config: &'a SearchConfig,
    /// [`SearchConfig::progress`], or the run's own board.
    board: ProgressBoard,
    /// All repetend candidates (every `NR` level, in enumeration order),
    /// produced **lazily** — nothing is materialized up front, so very large
    /// `NR` levels cost `O(K)` memory no matter how many candidates they
    /// contain.
    stream: CandidateStream,
    /// The best period found so far (Algorithm 1's `optimal`): the upper
    /// bound of every pull, screen and solve.
    optimal: u64,
    /// The per-device load bound no repetend can beat.
    lower_bound: u64,
    /// The last candidate that improved on `optimal`: only it can win, so a
    /// single running best is retained instead of every phase-feasible
    /// candidate.
    best: Option<Win>,
    repetend_solver: Solver,
    phase_solver: Solver,
    probe_solver: Solver,
    screen: CandidateScreen,
    stats: SearchStats,
}

impl<'a> SearchRun<'a> {
    /// Lines 1-6 of Algorithm 1: bounds and the in-flight micro-batch cap.
    fn new(placement: &'a PlacementSpec, config: &'a SearchConfig) -> Self {
        let inflights = placement
            .max_inflight_micro_batches(config.max_repetend_micro_batches)
            .min(config.max_repetend_micro_batches)
            .min(config.num_micro_batches)
            .max(1);
        // Every solver this run creates stops at the run's deadline and
        // reports its effort to one board, whose totals become
        // `SearchStats::solver` at the end.
        let board = config.progress.clone().unwrap_or_default();
        let solver = |solver: &SolverConfig| {
            let mut solver = solver.clone();
            solver.deadline = config.deadline;
            solver.progress = Some(board.clone());
            Solver::new(solver)
        };
        SearchRun {
            placement,
            config,
            repetend_solver: solver(&config.repetend_solver),
            phase_solver: solver(&config.phase_solver),
            probe_solver: solver(&SolverConfig::probe()),
            board,
            stream: CandidateStream::new(placement, inflights, config.candidate_limit),
            optimal: placement.total_block_time() + 1,
            lower_bound: placement.repetend_lower_bound(),
            best: None,
            screen: CandidateScreen::new(placement),
            stats: SearchStats::default(),
        }
    }

    /// `true` once the run's deadline ([`SearchConfig::deadline`]) has
    /// passed.
    fn past_deadline(&self) -> bool {
        self.config
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Lines 7-19 of Algorithm 1: pull candidates until the stream runs dry,
    /// the lower bound is reached or the deadline passes. Every candidate
    /// [`SearchRun::evaluate`] accepts is strictly below the one before it,
    /// so the last one wins.
    fn candidates(&mut self) -> Result<(), CoreError> {
        let clock = Instant::now();
        let mut leaf = Leaf::new(self.placement.num_blocks());
        while !self.past_deadline() {
            match self.stream.next_below(self.optimal, &mut leaf) {
                Pull::Leaf => {}
                Pull::Paused => continue,
                Pull::Done => break,
            }
            let Some((repetend, phases)) = self.evaluate(&leaf.candidate, &leaf.heads)? else {
                continue;
            };
            self.optimal = repetend.period;
            self.stats.improving_repetends += 1;
            self.board.record_incumbent(self.optimal);
            self.best = Some(Win {
                nr: leaf.nr,
                repetend,
                phases,
            });
            if self.optimal <= self.lower_bound {
                break;
            }
        }
        // Whatever the loop did not spend completing phases it spent on
        // repetends: pulling, screening and solving candidates. One clock
        // read per run, not two per candidate.
        let times = &mut self.stats.phase_times;
        times.repetend = clock
            .elapsed()
            .saturating_sub(times.warmup + times.cooldown);
        Ok(())
    }

    /// Everything Algorithm 1 does with one candidate the enumeration let
    /// through: screen it from its `heads` on, solve it below the best period
    /// so far, and check that its completion phases exist. Returns the
    /// repetend if it is improving and phase-feasible, together with its
    /// phases when eager mode solved them.
    fn evaluate(
        &mut self,
        candidate: &RepetendCandidate,
        heads: &[u64],
    ) -> Result<Option<(Repetend, Option<Phases>)>, CoreError> {
        let (placement, bound) = (self.placement, self.optimal);
        // A candidate the screen refutes below the bound is rejected before
        // an instance is built.
        let solved = match self.screen.refutes_with_heads(candidate, heads, bound) {
            Some(stage) => {
                *self.stats.screened_by.of(stage) += 1;
                None
            }
            None => {
                self.stats.repetend_solves += 1;
                solve_repetend(placement, candidate, &self.repetend_solver, bound)?
            }
        };
        let Some(repetend) = solved.filter(|r| r.period < bound) else {
            return Ok(None);
        };

        let copies = self.config.copies_for(&repetend);
        if !self.config.lazy {
            // Eager mode: optimise the completion phases for every improving
            // repetend (the configuration compared against in the Fig. 10(b)
            // ablation). A repetend whose phases cannot be solved is skipped.
            let phases = solve_phases(
                placement,
                &repetend,
                copies,
                &self.phase_solver,
                &mut self.stats.phase_times,
            );
            return Ok(phases.ok().map(|phases| (repetend, Some(phases))));
        }
        // Lazy search: a cheap satisfiability check instead of a time-optimal
        // solve per improving candidate; phase optimisation is left to the
        // very end.
        for phase in [Phase::Warmup, Phase::Cooldown] {
            let clock = Instant::now();
            let (blocks, entry_memory) =
                phase_inputs(placement, phase, &repetend.candidate, copies);
            let feasible = probe_phase(placement, &blocks, entry_memory, &self.probe_solver)?;
            self.stats.feasibility_probes += 1;
            *self.stats.phase_times.of(phase) += clock.elapsed();
            if !feasible {
                return Ok(None);
            }
        }
        Ok(Some((repetend, None)))
    }
}

/// A solved warmup and cooldown.
type Phases = (PhasePlan, PhasePlan);

/// A phase-feasible candidate, as recorded for the final pick.
struct Win {
    nr: usize,
    repetend: Repetend,
    /// The completion phases, if eager mode already solved them.
    phases: Option<Phases>,
}

/// Solves the warmup, then the cooldown of `repetend` time-optimally,
/// charging each to its column of `times`. The cooldown is not attempted if
/// the warmup has no schedule.
fn solve_phases(
    placement: &PlacementSpec,
    repetend: &Repetend,
    copies: usize,
    solver: &Solver,
    times: &mut PhaseBreakdown,
) -> Result<Phases, CoreError> {
    let mut solve = |phase| {
        let clock = Instant::now();
        let (blocks, entry_memory) = phase_inputs(placement, phase, &repetend.candidate, copies);
        let plan = solve_phase(placement, phase, &blocks, entry_memory, solver);
        *times.of(phase) += clock.elapsed();
        plan
    };
    Ok((solve(Phase::Warmup)?, solve(Phase::Cooldown)?))
}

/// The most steps of the enumeration one [`CandidateStream::next_below`] call
/// takes before it hands control back. Between two candidates that survive
/// the bound there may be 10⁴-10⁶ refuted prefixes; the candidate loop checks
/// the abort conditions at least this often. A step is a few nanoseconds, so
/// a pull lasts tens of microseconds at most.
const PULL_STEPS: u64 = 4096;

/// A candidate the enumeration let through, as handed to the candidate loop:
/// one buffer per run, which every [`CandidateStream::next_below`] that
/// reaches a candidate overwrites.
struct Leaf {
    nr: usize,
    candidate: RepetendCandidate,
    /// The head of each of the candidate's blocks over the edges it keeps.
    heads: Vec<u64>,
}

impl Leaf {
    /// A buffer for candidates over `blocks` stages.
    fn new(blocks: usize) -> Self {
        Leaf {
            nr: 0,
            candidate: RepetendCandidate {
                indices: vec![0; blocks],
            },
            heads: vec![0; blocks],
        }
    }
}

/// What one [`CandidateStream::next_below`] call came to.
enum Pull {
    /// The next candidate is in the caller's [`Leaf`].
    Leaf,
    /// No candidate yet: the step budget ran out or an `NR` level ended.
    Paused,
    /// Every level is exhausted.
    Done,
}

/// The lazy candidate source of a search run: chains the incremental
/// [`CandidateIter`] enumerations of every `NR` level (each under the
/// per-level work limit) and counts the candidates it hands out.
struct CandidateStream {
    inflights: usize,
    /// The most candidates and refuted prefixes, taken together, one level
    /// may count.
    level_limit: usize,
    nr: usize,
    /// The enumeration of level `nr`; its counters run over every level.
    iter: CandidateIter,
    /// Number of candidates handed out so far.
    pulled: usize,
}

impl CandidateStream {
    fn new(placement: &PlacementSpec, inflights: usize, limit: Option<usize>) -> Self {
        let level_limit = limit.unwrap_or(usize::MAX);
        let mut iter = CandidateIter::new(placement);
        iter.restart(1, level_limit);
        CandidateStream {
            inflights,
            level_limit,
            nr: 1,
            iter,
            pulled: 0,
        }
    }

    /// Walks on towards the next candidate whose critical path is below
    /// `below`, for [`PULL_STEPS`] steps at most, and writes it into `leaf`
    /// if it gets there.
    fn next_below(&mut self, below: u64, leaf: &mut Leaf) -> Pull {
        if self.nr > self.inflights {
            return Pull::Done;
        }
        match self.iter.advance(below, PULL_STEPS) {
            Advance::Leaf => {
                self.pulled += 1;
                leaf.nr = self.nr;
                leaf.candidate.indices.copy_from_slice(self.iter.indices());
                leaf.heads.copy_from_slice(self.iter.heads());
                Pull::Leaf
            }
            Advance::Paused => Pull::Paused,
            Advance::Done => {
                self.nr += 1;
                if self.nr <= self.inflights {
                    self.iter.restart(self.nr, self.level_limit);
                }
                Pull::Paused
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockKind, PlacementSpec};
    use std::sync::Arc;

    /// V-shape placement: one forward and one backward block per device,
    /// sequential stages (Fig. 1a).
    fn v_shape(d: usize, fwd: u64, bwd: u64, capacity: Option<i64>) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("v{d}"), d);
        b.set_memory_capacity(capacity);
        let mut prev: Option<usize> = None;
        for dev in 0..d {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("f{dev}"), BlockKind::Forward, [dev], fwd, 1, deps)
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

    /// X-shape placement (Chimera-style, Fig. 1b): two pipelines flowing in
    /// opposite directions across `d` devices.
    fn x_shape(d: usize, capacity: Option<i64>) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("x{d}"), d);
        b.set_memory_capacity(capacity);
        for (branch, down) in [("d", true), ("u", false)] {
            let across: Vec<usize> = if down {
                (0..d).collect()
            } else {
                (0..d).rev().collect()
            };
            let mut prev: Option<usize> = None;
            for &dev in &across {
                let deps: Vec<usize> = prev.into_iter().collect();
                let name = format!("{branch}-f{dev}");
                prev = Some(
                    b.add_block(name, BlockKind::Forward, [dev], 1, 1, deps)
                        .unwrap(),
                );
            }
            for &dev in across.iter().rev() {
                let deps: Vec<usize> = prev.into_iter().collect();
                let name = format!("{branch}-b{dev}");
                prev = Some(
                    b.add_block(name, BlockKind::Backward, [dev], 2, -1, deps)
                        .unwrap(),
                );
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn search_finds_zero_bubble_schedule_for_v_shape() {
        let p = v_shape(2, 1, 2, Some(3));
        let search = TesselSearch::new(SearchConfig::default().with_micro_batches(8));
        let outcome = search.run(&p).unwrap();
        outcome.schedule.validate(&p).unwrap();
        // The repetend should reach the per-device lower bound (3): a
        // zero-bubble steady state, exactly like 1F1B.
        assert_eq!(outcome.repetend.period, p.repetend_lower_bound());
        assert!(outcome.stats.early_exit);
        assert!((outcome.repetend.bubble_rate(&p)).abs() < 1e-9);
    }

    #[test]
    fn search_handles_x_shape_placement() {
        let p = x_shape(2, Some(4));
        let search = TesselSearch::new(SearchConfig::default().with_micro_batches(6));
        let outcome = search.run(&p).unwrap();
        outcome.schedule.validate(&p).unwrap();
        // Each device carries 6 time units of work per micro-batch; a good
        // repetend gets close to that bound.
        assert!(outcome.repetend.period <= p.total_block_time());
        assert!(outcome.repetend.period >= p.repetend_lower_bound());
    }

    #[test]
    fn the_board_hears_every_improving_period() {
        let p = v_shape(3, 1, 2, Some(4));
        let heard: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
        let board = ProgressBoard::new();
        {
            let heard = heard.clone();
            board.listen(move |period| heard.lock().unwrap().push(period));
        }
        let config = SearchConfig {
            progress: Some(board.clone()),
            ..SearchConfig::default().with_micro_batches(8)
        };
        let outcome = TesselSearch::new(config).run(&p).unwrap();
        let heard = heard.lock().unwrap();
        // One strictly smaller period per improving repetend, ending at the
        // one returned; the board's nodes are the run's solver totals.
        assert_eq!(heard.len(), outcome.stats.improving_repetends);
        assert!(heard.windows(2).all(|pair| pair[0] > pair[1]), "{heard:?}");
        assert_eq!(heard.last(), Some(&outcome.repetend.period));
        let snap = board.snapshot();
        assert_eq!(snap.incumbent, Some(outcome.repetend.period));
        assert_eq!(snap.nodes, outcome.stats.solver.nodes);
        assert_eq!(board.totals(), outcome.stats.solver);
    }

    #[test]
    fn lazy_and_eager_search_find_equally_good_repetends() {
        let p = v_shape(2, 1, 2, Some(3));
        let lazy = TesselSearch::new(SearchConfig::default().with_lazy(true))
            .run(&p)
            .unwrap();
        let eager = TesselSearch::new(SearchConfig::default().with_lazy(false))
            .run(&p)
            .unwrap();
        assert_eq!(lazy.repetend.period, eager.repetend.period);
        // Lazy mode replaces per-candidate phase optimisation with probes.
        assert!(lazy.stats.feasibility_probes > 0);
        assert_eq!(eager.stats.feasibility_probes, 0);
    }

    #[test]
    fn memory_budget_limits_repetend_micro_batches() {
        // Capacity 1 allows a single in-flight micro-batch: the schedule
        // degenerates towards sequential execution and the bubble rate grows.
        let tight = v_shape(2, 1, 2, Some(1));
        let roomy = v_shape(2, 1, 2, Some(4));
        let search = TesselSearch::new(SearchConfig::default());
        let tight_outcome = search.run(&tight).unwrap();
        let roomy_outcome = search.run(&roomy).unwrap();
        assert!(tight_outcome.repetend.period >= roomy_outcome.repetend.period);
        assert!(
            tight_outcome.repetend.bubble_rate(&tight)
                >= roomy_outcome.repetend.bubble_rate(&roomy) - 1e-9
        );
    }

    #[test]
    fn schedule_for_recomposes_other_micro_batch_counts() {
        let p = v_shape(2, 1, 2, Some(3));
        let outcome = TesselSearch::new(SearchConfig::default()).run(&p).unwrap();
        for n in [2usize, 4, 16] {
            if n >= outcome.repetend.num_micro_batches() {
                let schedule = outcome.schedule_for(&p, n).unwrap();
                schedule.validate(&p).unwrap();
                assert_eq!(schedule.num_micro_batches(), n);
            }
        }
    }

    #[test]
    fn stats_report_search_effort() {
        let p = v_shape(2, 1, 2, Some(3));
        let outcome = TesselSearch::new(SearchConfig::default()).run(&p).unwrap();
        let stats = &outcome.stats;
        assert!(stats.candidates_considered > 0);
        assert!(stats.repetend_solves > 0);
        assert_eq!(
            stats.candidates_considered,
            stats.candidates_screened + stats.repetend_solves
        );
        assert_eq!(stats.screened_by.total(), stats.candidates_screened);
        assert!(stats.improving_repetends >= 1);
        assert!(stats.chosen_nr >= 1);
        assert!(stats.phase_times.total() <= stats.total_time + Duration::from_secs(1));
    }

    /// M-shape placement: a `d`-device V between an embedding forward and
    /// backward that span every device. Its repetend solves branch; every
    /// solve of a 2-device V's search is settled by its greedy seeds.
    fn m_shape(d: usize) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("m{d}"), d);
        let all: Vec<usize> = (0..d).collect();
        let mut prev = b
            .add_block("embed-f", BlockKind::Forward, all.clone(), 1, 1, [])
            .unwrap();
        for dev in 0..d {
            prev = b
                .add_block(format!("f{dev}"), BlockKind::Forward, [dev], 1, 1, [prev])
                .unwrap();
        }
        for dev in (0..d).rev() {
            prev = b
                .add_block(format!("b{dev}"), BlockKind::Backward, [dev], 2, -1, [prev])
                .unwrap();
        }
        b.add_block("embed-b", BlockKind::Backward, all, 2, -1, [prev])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stats_aggregate_solver_effort() {
        let p = m_shape(4);
        let outcome = TesselSearch::new(SearchConfig::default()).run(&p).unwrap();
        let solver = &outcome.stats.solver;
        // Every repetend solve, probe and phase optimisation reports in; the
        // run must have issued at least the recorded repetend solves.
        assert!(solver.solves >= outcome.stats.repetend_solves as u64);
        assert!(solver.nodes > 0);
        assert!(solver.shared_memo_hits <= solver.pruned_dominance);
    }

    #[test]
    fn solver_threads_leave_the_period_unchanged() {
        for placement in [v_shape(2, 1, 2, Some(3)), x_shape(2, Some(4))] {
            let serial = TesselSearch::new(SearchConfig::default().with_solver_threads(1))
                .run(&placement)
                .unwrap();
            for threads in [2usize, 4] {
                let parallel =
                    TesselSearch::new(SearchConfig::default().with_solver_threads(threads))
                        .run(&placement)
                        .unwrap();
                parallel.schedule.validate(&placement).unwrap();
                assert_eq!(
                    parallel.repetend.period, serial.repetend.period,
                    "solver threads={threads}"
                );
            }
        }
    }

    #[test]
    fn inference_only_placement_is_supported() {
        // Forward-only blocks (an inference pipeline): the search still finds
        // a repetend with period equal to the busiest stage.
        let mut b = PlacementSpec::builder("inference", 2);
        let f0 = b
            .add_block("f0", BlockKind::Forward, [0], 2, 0, [])
            .unwrap();
        b.add_block("f1", BlockKind::Forward, [1], 2, 0, [f0])
            .unwrap();
        let p = b.build().unwrap();
        let outcome = TesselSearch::new(SearchConfig::default().with_micro_batches(4))
            .run(&p)
            .unwrap();
        outcome.schedule.validate(&p).unwrap();
        assert_eq!(outcome.repetend.period, 2);
    }

    #[test]
    fn config_builders_adjust_fields() {
        let config = SearchConfig::default()
            .with_micro_batches(12)
            .with_lazy(false)
            .with_max_repetend_micro_batches(3)
            .with_portfolio_threads(1);
        assert_eq!(config.num_micro_batches, 12);
        assert!(!config.lazy);
        assert_eq!(config.max_repetend_micro_batches, 3);
    }

    #[test]
    #[should_panic(expected = "one worker only")]
    fn the_portfolio_shim_refuses_a_second_worker() {
        let _ = SearchConfig::default().with_portfolio_threads(2);
    }

    #[test]
    fn zero_time_budget_times_out_cleanly() {
        // A zero budget is a deadline of the instant the configuration is
        // made; it has passed by the time the run starts.
        let p = v_shape(2, 1, 2, Some(3));
        let config = SearchConfig::default().with_deadline(Some(Instant::now() + Duration::ZERO));
        let err = TesselSearch::new(config).run(&p).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded), "{err:?}");
    }

    #[test]
    fn cancelled_token_aborts_the_search() {
        // A request given up on before its run starts reaches the search as
        // a deadline that passed some time ago. The run answers a deadline
        // error, and no solver it makes expands a node.
        let p = v_shape(2, 1, 2, Some(3));
        let board = ProgressBoard::new();
        let given_up = Instant::now()
            .checked_sub(Duration::from_secs(1))
            .unwrap_or_else(Instant::now);
        let config = SearchConfig {
            progress: Some(board.clone()),
            ..SearchConfig::default().with_deadline(Some(given_up))
        };
        let err = TesselSearch::new(config).run(&p).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded), "{err:?}");
        assert_eq!(board.snapshot().nodes, 0);
        assert_eq!(board.totals(), SolverTotals::default());
    }

    #[test]
    fn eager_mode_zero_budget_also_times_out() {
        let p = v_shape(2, 1, 2, Some(3));
        let config = SearchConfig::default()
            .with_lazy(false)
            .with_deadline(Some(Instant::now()));
        let err = TesselSearch::new(config).run(&p).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded));
    }

    /// Seven independent one-unit blocks, then a chain of five three-unit
    /// blocks, every block on a device of its own. With four micro-batches
    /// two chain blocks share an index, so no instance has a makespan below
    /// 6; under that bound every candidate is refuted, but only along the
    /// chain, once per assignment of the free blocks — `4^7` times at
    /// `NR = 4`, with no leaf in between.
    fn leafless_placement() -> PlacementSpec {
        let free = 7;
        let mut b = PlacementSpec::builder("leafless", free + 5);
        for dev in 0..free {
            b.add_block(format!("free{dev}"), BlockKind::Forward, [dev], 1, 0, [])
                .unwrap();
        }
        let mut prev: Option<usize> = None;
        for dev in free..free + 5 {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("c{dev}"), BlockKind::Forward, [dev], 3, 0, deps)
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn a_cancellation_is_seen_within_one_step_budget_of_refuted_prefixes() {
        let p = leafless_placement();
        let config = SearchConfig::default().with_max_repetend_micro_batches(4);
        // The whole enumeration below the closed bound, uninterrupted.
        let mut stream = CandidateStream::new(&p, 4, None);
        let mut leaf = Leaf::new(p.num_blocks());
        loop {
            let before = stream.iter.steps();
            match stream.next_below(6, &mut leaf) {
                Pull::Leaf => panic!("{:?} is below 6", leaf.candidate),
                Pull::Paused => assert!(stream.iter.steps() - before <= PULL_STEPS),
                Pull::Done => break,
            }
        }
        let (prefixes, steps) = (stream.iter.subtrees_pruned(), stream.iter.steps());
        assert!(prefixes >= 100_000 && steps >= 100 * PULL_STEPS);

        // The loop checks the deadline before every pull, so a search whose
        // deadline passed before it starts enters none of that stretch.
        let config = config.with_deadline(Some(Instant::now()));
        let mut search = SearchRun::new(&p, &config);
        search.optimal = 6;
        search.candidates().unwrap();
        assert_eq!(search.stream.iter.steps(), 0);
        assert!(search.past_deadline());
    }

    #[test]
    fn an_expired_budget_ends_a_search_deep_in_refuted_prefixes() {
        // X-shape over 16 devices up to six micro-batches: seconds of
        // enumeration across 10⁷ refuted prefixes. Wherever the budget runs
        // out, the search reports the deadline.
        let p = x_shape(16, None);
        let config = SearchConfig::default()
            .with_max_repetend_micro_batches(6)
            .with_deadline(Some(Instant::now() + Duration::from_millis(30)));
        let err = TesselSearch::new(config).run(&p).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded), "{err:?}");
    }

    #[test]
    fn generous_budget_leaves_the_result_unchanged() {
        let p = v_shape(2, 1, 2, Some(3));
        let plain = TesselSearch::new(SearchConfig::default()).run(&p).unwrap();
        let budgeted = TesselSearch::new(
            SearchConfig::default().with_deadline(Some(Instant::now() + Duration::from_secs(120))),
        )
        .run(&p)
        .unwrap();
        assert_eq!(plain.repetend.period, budgeted.repetend.period);
    }
}
