//! The Tessel schedule search (Algorithm 1 of the paper).
//!
//! Given an operator placement and a memory budget, the search enumerates
//! repetend candidates over a growing number of micro-batches, solves each to
//! optimality with the exact scheduling solver, keeps the one with the
//! smallest period and finally completes warmup and cooldown phases around
//! it. A [`CandidateScreen`] in front of the solves rejects every candidate
//! whose makespan lower bound already reaches the best period found so far —
//! the solver could only answer "no schedule below the bound" for it —
//! before an instance is built. The *lazy search* optimisation (§V) replaces
//! per-candidate phase optimisation with a cheap satisfiability probe and
//! only optimises the phases once, for the winning repetend.

use crate::completion::{
    cooldown_blocks, cooldown_entry_memory, probe_phase, solve_phase, warmup_blocks, Phase,
    PhasePlan,
};
use crate::compose::compose_schedule;
use crate::error::CoreError;
use crate::ir::PlacementSpec;
use crate::repetend::{
    candidate_iter, solve_repetend, CandidateIter, CandidateScreen, Repetend, RepetendCandidate,
};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tessel_solver::{
    Abort, CancelToken, IncumbentSink, Solver, SolverConfig, SolverTotals, StatsSink,
};

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
    /// Optional cap on the number of candidates examined per `NR` value;
    /// `None` enumerates all of them.
    pub candidate_limit: Option<usize>,
    /// Number of worker threads evaluating repetend candidates in parallel
    /// (the *portfolio* search).
    ///
    /// `1` (the default) reproduces the strictly serial candidate loop of
    /// Algorithm 1; `0` uses [`std::thread::available_parallelism`]. Workers
    /// pull candidates lazily from a shared generator and share the best
    /// period found so far through an atomic bound, so a good repetend found
    /// by one worker immediately tightens the solver budget of all others.
    /// The winning *period* is independent of the thread count (ties among
    /// recorded candidates break by enumeration order); which equally-good
    /// candidate carries it may differ from the serial loop.
    pub portfolio_threads: usize,
    /// Optional wall-clock budget for one [`TesselSearch::run`] call. When it
    /// elapses, in-flight solver work is aborted cooperatively and the run
    /// returns [`CoreError::DeadlineExceeded`]. `None` (the default) never
    /// times out. The schedule-search daemon maps per-request deadlines onto
    /// this field.
    pub time_budget: Option<Duration>,
    /// External cancellation token, checked between candidates and inside the
    /// solver's branch loop. Cancelling it aborts the run with
    /// [`CoreError::DeadlineExceeded`].
    pub cancel: CancelToken,
    /// Optional callback receiving anytime progress: every improving
    /// incumbent makespan found while solving repetend candidates. Each
    /// reported value upper-bounds the period of a repetend the search has
    /// already found feasible work towards, so a caller can act on a good
    /// schedule bound long before the proof completes. Values are *not*
    /// globally monotone across portfolio workers; callers wanting a strictly
    /// decreasing stream should filter (the daemon does). Attached only to
    /// repetend solves — warmup/cooldown phase solves optimise a different
    /// objective and stay silent. The default reports nothing.
    pub incumbent_sink: Option<IncumbentSink>,
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
            portfolio_threads: 1,
            time_budget: None,
            cancel: CancelToken::new(),
            incumbent_sink: None,
        }
    }
}

/// Equality ignores the [`SearchConfig::cancel`] and
/// [`SearchConfig::incumbent_sink`] handles (they have identity, not value,
/// semantics); every other field participates.
impl PartialEq for SearchConfig {
    fn eq(&self, other: &Self) -> bool {
        self.num_micro_batches == other.num_micro_batches
            && self.max_repetend_micro_batches == other.max_repetend_micro_batches
            && self.repetend_solver == other.repetend_solver
            && self.phase_solver == other.phase_solver
            && self.lazy == other.lazy
            && self.candidate_limit == other.candidate_limit
            && self.portfolio_threads == other.portfolio_threads
            && self.time_budget == other.time_budget
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

    /// Returns a copy evaluating repetend candidates on `threads` worker
    /// threads (see [`SearchConfig::portfolio_threads`]).
    #[must_use]
    pub fn with_portfolio_threads(mut self, threads: usize) -> Self {
        self.portfolio_threads = threads;
        self
    }

    /// Returns a copy whose repetend *and* phase solvers run the
    /// work-stealing parallel search with `threads` workers (see
    /// [`SolverConfig::threads`]). Orthogonal to
    /// [`SearchConfig::portfolio_threads`], which parallelises *across*
    /// candidates: solver threads parallelise each individual solve, which
    /// helps when a few hard candidates dominate the run.
    #[must_use]
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.repetend_solver.threads = threads;
        self.phase_solver.threads = threads;
        self
    }

    /// Returns a copy with a wall-clock budget for the whole run (see
    /// [`SearchConfig::time_budget`]).
    #[must_use]
    pub fn with_time_budget(mut self, budget: Option<Duration>) -> Self {
        self.time_budget = budget;
        self
    }

    /// Returns a copy observing `cancel` (see [`SearchConfig::cancel`]).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Returns a copy reporting anytime incumbent progress into `sink` (see
    /// [`SearchConfig::incumbent_sink`]).
    #[must_use]
    pub fn with_incumbent_sink(mut self, sink: IncumbentSink) -> Self {
        self.incumbent_sink = Some(sink);
        self
    }

    /// The portfolio thread count actually used: resolves `0` to the
    /// machine's available parallelism.
    #[must_use]
    pub fn effective_portfolio_threads(&self) -> usize {
        match self.portfolio_threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        }
    }
}

/// Wall-clock time spent in each search phase; the breakdown reported in
/// Fig. 10 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Time spent solving repetend candidates.
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
}

/// Statistics of one search run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of repetend candidates pulled from the incremental generator
    /// (enumeration stops early once the lower bound is reached).
    pub candidates_considered: usize,
    /// Number of candidates the [`CandidateScreen`] rejected — its bound
    /// already reached the best period found so far — before any instance
    /// was built.
    #[serde(default)]
    pub candidates_screened: usize,
    /// Number of repetend candidates that passed the screen and were handed
    /// on to the solver: `candidates_considered == candidates_screened +
    /// repetend_solves`.
    pub repetend_solves: usize,
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
    /// the memory budget, or a phase/composition error if completion fails.
    pub fn run(&self, placement: &PlacementSpec) -> Result<SearchOutcome, CoreError> {
        placement.validate()?;
        let started = Instant::now();
        let mut stats = SearchStats::default();

        // Per-run abort conditions: the caller's cancellation token plus the
        // wall-clock budget, shared with every solver this run creates so
        // in-flight branch loops stop cooperatively.
        let abort = Abort {
            cancel: self.config.cancel.clone(),
            deadline: self.config.time_budget.map(|budget| started + budget),
        };

        // Every solver this run creates reports its effort into one shared
        // sink, aggregated into `SearchStats::solver` at the end.
        let sink = StatsSink::new();
        let phase_solver = solver_for_run(&self.config.phase_solver, &abort, &sink, None);

        // Lines 1-6 of Algorithm 1: bounds and the in-flight micro-batch cap.
        let mut optimal = placement.total_block_time() + 1;
        let lower_bound = placement.repetend_lower_bound();
        let inflights = placement
            .max_inflight_micro_batches(self.config.max_repetend_micro_batches)
            .min(self.config.max_repetend_micro_batches)
            .min(self.config.num_micro_batches)
            .max(1);

        let threads = self.config.effective_portfolio_threads();
        let (best, best_phases) = if threads > 1 {
            self.search_candidates_portfolio(
                placement,
                &mut stats,
                &mut optimal,
                lower_bound,
                inflights,
                threads,
                &abort,
                &sink,
            )?
        } else {
            self.search_candidates_serial(
                placement,
                &mut stats,
                &mut optimal,
                lower_bound,
                inflights,
                &abort,
                &sink,
            )?
        };

        // The budget expiring anywhere inside the candidate loops — including
        // mid-solve on the last candidate of an eager-mode run, which the
        // loops themselves cannot distinguish from an infeasible candidate —
        // uniformly surfaces as a deadline error rather than a silently
        // weaker result.
        if abort.should_stop() {
            return Err(CoreError::DeadlineExceeded);
        }

        let repetend = best.ok_or(CoreError::NoFeasibleRepetend)?;
        let copies = self.copies_for(&repetend);
        let (warmup, cooldown) = match best_phases {
            Some(phases) => phases,
            None => {
                // Lazy mode (or the winning candidate changed after its eager
                // phases were solved): optimise the phases once, now.
                let warmup_clock = Instant::now();
                let warmup = solve_phase(
                    placement,
                    Phase::Warmup,
                    &warmup_blocks(&repetend.candidate),
                    vec![0; placement.num_devices()],
                    &phase_solver,
                )?;
                stats.phase_times.warmup += warmup_clock.elapsed();
                let cooldown_clock = Instant::now();
                let cooldown = solve_phase(
                    placement,
                    Phase::Cooldown,
                    &cooldown_blocks(&repetend.candidate),
                    cooldown_entry_memory(placement, &repetend.candidate, copies),
                    &phase_solver,
                )?;
                stats.phase_times.cooldown += cooldown_clock.elapsed();
                (warmup, cooldown)
            }
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
        stats.solver = sink.totals();
        stats.total_time = started.elapsed();
        Ok(SearchOutcome {
            schedule,
            repetend,
            warmup,
            cooldown,
            stats,
        })
    }

    /// Lines 7-19 of Algorithm 1: the strictly serial candidate loop.
    ///
    /// Candidates are pulled incrementally from [`candidate_iter`], so even
    /// an astronomically large candidate space costs `O(K)` memory, and pass
    /// the [`CandidateScreen`] before anything is built for them.
    ///
    /// Returns the winning repetend (if any) and, in eager mode, the phases
    /// solved alongside it.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn search_candidates_serial(
        &self,
        placement: &PlacementSpec,
        stats: &mut SearchStats,
        optimal: &mut u64,
        lower_bound: u64,
        inflights: usize,
        abort: &Abort,
        sink: &StatsSink,
    ) -> Result<(Option<Repetend>, Option<(PhasePlan, PhasePlan)>), CoreError> {
        let repetend_solver = solver_for_run(
            &self.config.repetend_solver,
            abort,
            sink,
            self.config.incumbent_sink.as_ref(),
        );
        let phase_solver = solver_for_run(&self.config.phase_solver, abort, sink, None);
        let probe_solver = solver_for_run(&SolverConfig::probe(), abort, sink, None);
        let mut screen = CandidateScreen::new(placement);
        let mut best: Option<Repetend> = None;
        let mut best_phases: Option<(PhasePlan, PhasePlan)> = None;

        'outer: for nr in 1..=inflights {
            let level_limit = self.config.candidate_limit.unwrap_or(usize::MAX);
            for candidate in candidate_iter(placement, nr).take(level_limit) {
                if abort.should_stop() {
                    return Err(CoreError::DeadlineExceeded);
                }
                stats.candidates_considered += 1;
                let repetend_clock = Instant::now();
                let solved = if screen.bound(&candidate, *optimal) >= *optimal {
                    stats.candidates_screened += 1;
                    None
                } else {
                    stats.repetend_solves += 1;
                    solve_repetend(placement, &candidate, &repetend_solver, *optimal)?
                };
                stats.phase_times.repetend += repetend_clock.elapsed();
                let Some(repetend) = solved else { continue };
                if repetend.period >= *optimal {
                    continue;
                }

                let copies = self.copies_for(&repetend);
                if self.config.lazy {
                    // Lazy search: a cheap satisfiability check instead of a
                    // time-optimal solve per improving candidate.
                    let warmup_clock = Instant::now();
                    let warmup_ok = probe_phase(
                        placement,
                        &warmup_blocks(&repetend.candidate),
                        vec![0; placement.num_devices()],
                        &probe_solver,
                    )?;
                    stats.feasibility_probes += 1;
                    stats.phase_times.warmup += warmup_clock.elapsed();
                    if !warmup_ok {
                        continue;
                    }
                    let cooldown_clock = Instant::now();
                    let cooldown_ok = probe_phase(
                        placement,
                        &cooldown_blocks(&repetend.candidate),
                        cooldown_entry_memory(placement, &repetend.candidate, copies),
                        &probe_solver,
                    )?;
                    stats.feasibility_probes += 1;
                    stats.phase_times.cooldown += cooldown_clock.elapsed();
                    if !cooldown_ok {
                        continue;
                    }
                    best_phases = None;
                } else {
                    // Eager mode: optimise the completion phases for every
                    // improving repetend (the configuration compared against
                    // in the Fig. 10(b) ablation).
                    let warmup_clock = Instant::now();
                    let warmup = solve_phase(
                        placement,
                        Phase::Warmup,
                        &warmup_blocks(&repetend.candidate),
                        vec![0; placement.num_devices()],
                        &phase_solver,
                    );
                    stats.phase_times.warmup += warmup_clock.elapsed();
                    let Ok(warmup) = warmup else { continue };
                    let cooldown_clock = Instant::now();
                    let cooldown = solve_phase(
                        placement,
                        Phase::Cooldown,
                        &cooldown_blocks(&repetend.candidate),
                        cooldown_entry_memory(placement, &repetend.candidate, copies),
                        &phase_solver,
                    );
                    stats.phase_times.cooldown += cooldown_clock.elapsed();
                    let Ok(cooldown) = cooldown else { continue };
                    best_phases = Some((warmup, cooldown));
                }

                *optimal = repetend.period;
                stats.improving_repetends += 1;
                stats.chosen_nr = nr;
                best = Some(repetend);
                if *optimal <= lower_bound {
                    stats.early_exit = true;
                    break 'outer;
                }
            }
        }
        Ok((best, best_phases))
    }

    /// The parallel portfolio variant of the candidate loop.
    ///
    /// All repetend candidates (every `NR` level, in enumeration order) form
    /// one logical work queue, produced **lazily** by a shared
    /// [`PortfolioStream`] — nothing is materialized up front, so very large
    /// `NR` levels cost `O(K)` memory no matter how many candidates they
    /// contain. Workers pull the next candidate under a short-held lock,
    /// screen it (each on its own clone of the [`CandidateScreen`]) and solve
    /// it with the current shared best period as the upper bound of both, run
    /// the lazy feasibility probes (or the eager phase solves) for
    /// improving candidates, and publish improvements to the shared
    /// `AtomicU64` bound — which immediately tightens the pruning of every
    /// other worker and cancels candidates that can no longer win. A worker
    /// that reaches the repetend lower bound raises the stop flag (the
    /// parallel form of Algorithm 1's line 19 early exit).
    ///
    /// The final winner is chosen by smallest period, breaking ties by
    /// enumeration order (the stream's sequence number). The winning *period*
    /// always matches the serial loop's (both are the minimum over
    /// phase-feasible candidates); which equally-good candidate carries it
    /// may depend on completion timing.
    #[allow(
        clippy::type_complexity,
        clippy::too_many_lines,
        clippy::too_many_arguments
    )]
    fn search_candidates_portfolio(
        &self,
        placement: &PlacementSpec,
        stats: &mut SearchStats,
        optimal: &mut u64,
        lower_bound: u64,
        inflights: usize,
        threads: usize,
        abort: &Abort,
        sink: &StatsSink,
    ) -> Result<(Option<Repetend>, Option<(PhasePlan, PhasePlan)>), CoreError> {
        let stream = Mutex::new(PortfolioStream::new(
            placement,
            inflights,
            self.config.candidate_limit,
        ));

        struct Win {
            seq: usize,
            nr: usize,
            repetend: Repetend,
            phases: Option<(PhasePlan, PhasePlan)>,
        }

        #[derive(Default)]
        struct WorkerTally {
            candidates_screened: usize,
            repetend_solves: usize,
            feasibility_probes: usize,
            improving: usize,
            phase_times: PhaseBreakdown,
        }

        let screen = CandidateScreen::new(placement);
        let shared_optimal = AtomicU64::new(*optimal);
        let stop = AtomicBool::new(false);
        let timed_out = AtomicBool::new(false);
        // Only the (period, seq)-minimum candidate can win, so a single
        // running best is retained instead of every phase-feasible candidate.
        let best_win: Mutex<Option<Win>> = Mutex::new(None);

        let tallies: Vec<Result<WorkerTally, CoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let stream = &stream;
                    let shared_optimal = &shared_optimal;
                    let stop = &stop;
                    let timed_out = &timed_out;
                    let best_win = &best_win;
                    let screen = &screen;
                    scope.spawn(move || -> Result<WorkerTally, CoreError> {
                        let repetend_solver = solver_for_run(
                            &self.config.repetend_solver,
                            abort,
                            sink,
                            self.config.incumbent_sink.as_ref(),
                        );
                        let phase_solver =
                            solver_for_run(&self.config.phase_solver, abort, sink, None);
                        let probe_solver =
                            solver_for_run(&SolverConfig::probe(), abort, sink, None);
                        let mut screen = screen.clone();
                        let mut tally = WorkerTally::default();
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            if abort.should_stop() {
                                timed_out.store(true, Ordering::Relaxed);
                                break;
                            }
                            let Some((seq, nr, candidate)) =
                                stream.lock().expect("stream lock").next()
                            else {
                                break;
                            };
                            // The shared bound cancels candidates that can no
                            // longer win before any solver work happens.
                            let bound = shared_optimal.load(Ordering::Relaxed);
                            let repetend_clock = Instant::now();
                            let solved = if screen.bound(&candidate, bound) >= bound {
                                tally.candidates_screened += 1;
                                None
                            } else {
                                tally.repetend_solves += 1;
                                solve_repetend(placement, &candidate, &repetend_solver, bound)?
                            };
                            tally.phase_times.repetend += repetend_clock.elapsed();
                            let Some(repetend) = solved else { continue };
                            if repetend.period >= shared_optimal.load(Ordering::Relaxed) {
                                continue;
                            }

                            let copies = self.copies_for(&repetend);
                            let phases = if self.config.lazy {
                                // Lazy search: probe feasibility first and
                                // leave phase optimisation to the very end.
                                let warmup_clock = Instant::now();
                                let warmup_ok = probe_phase(
                                    placement,
                                    &warmup_blocks(&repetend.candidate),
                                    vec![0; placement.num_devices()],
                                    &probe_solver,
                                )?;
                                tally.feasibility_probes += 1;
                                tally.phase_times.warmup += warmup_clock.elapsed();
                                if !warmup_ok {
                                    continue;
                                }
                                let cooldown_clock = Instant::now();
                                let cooldown_ok = probe_phase(
                                    placement,
                                    &cooldown_blocks(&repetend.candidate),
                                    cooldown_entry_memory(placement, &repetend.candidate, copies),
                                    &probe_solver,
                                )?;
                                tally.feasibility_probes += 1;
                                tally.phase_times.cooldown += cooldown_clock.elapsed();
                                if !cooldown_ok {
                                    continue;
                                }
                                None
                            } else {
                                let warmup_clock = Instant::now();
                                let warmup = solve_phase(
                                    placement,
                                    Phase::Warmup,
                                    &warmup_blocks(&repetend.candidate),
                                    vec![0; placement.num_devices()],
                                    &phase_solver,
                                );
                                tally.phase_times.warmup += warmup_clock.elapsed();
                                let Ok(warmup) = warmup else { continue };
                                let cooldown_clock = Instant::now();
                                let cooldown = solve_phase(
                                    placement,
                                    Phase::Cooldown,
                                    &cooldown_blocks(&repetend.candidate),
                                    cooldown_entry_memory(placement, &repetend.candidate, copies),
                                    &phase_solver,
                                );
                                tally.phase_times.cooldown += cooldown_clock.elapsed();
                                let Ok(cooldown) = cooldown else { continue };
                                Some((warmup, cooldown))
                            };

                            // Publish the improvement (CAS-min on the shared
                            // bound) and record the win for the final pick.
                            let period = repetend.period;
                            let mut current = shared_optimal.load(Ordering::Relaxed);
                            let mut improved = false;
                            while period < current {
                                match shared_optimal.compare_exchange_weak(
                                    current,
                                    period,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => {
                                        improved = true;
                                        break;
                                    }
                                    Err(observed) => current = observed,
                                }
                            }
                            if improved {
                                tally.improving += 1;
                            }
                            {
                                let mut best = best_win.lock().unwrap();
                                let beats = best
                                    .as_ref()
                                    .is_none_or(|b| (period, seq) < (b.repetend.period, b.seq));
                                if beats {
                                    *best = Some(Win {
                                        seq,
                                        nr,
                                        repetend,
                                        phases,
                                    });
                                }
                            }
                            if improved && period <= lower_bound {
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        Ok(tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio worker panicked"))
                .collect()
        });

        // Candidates actually pulled from the generator; comparable to the
        // serial loop, which also stops enumerating once the early exit
        // fires.
        stats.candidates_considered += stream.into_inner().expect("stream lock").pulled();

        for tally in tallies {
            let tally = tally?;
            stats.candidates_screened += tally.candidates_screened;
            stats.repetend_solves += tally.repetend_solves;
            stats.feasibility_probes += tally.feasibility_probes;
            stats.improving_repetends += tally.improving;
            stats.phase_times.repetend += tally.phase_times.repetend;
            stats.phase_times.warmup += tally.phase_times.warmup;
            stats.phase_times.cooldown += tally.phase_times.cooldown;
        }

        if timed_out.load(Ordering::Relaxed) {
            return Err(CoreError::DeadlineExceeded);
        }

        let Some(winner) = best_win.into_inner().unwrap() else {
            return Ok((None, None));
        };
        *optimal = winner.repetend.period.min(*optimal);
        stats.chosen_nr = winner.nr;
        stats.early_exit = winner.repetend.period <= lower_bound;
        Ok((Some(winner.repetend), winner.phases))
    }

    fn copies_for(&self, repetend: &Repetend) -> usize {
        let nr = repetend.num_micro_batches();
        let n = self.config.num_micro_batches.max(nr);
        n - nr + 1
    }
}

/// Clones a solver configuration with the run's abort conditions, statistics
/// sink and (for repetend solvers only) the anytime incumbent observer
/// attached.
fn solver_for_run(
    config: &SolverConfig,
    abort: &Abort,
    sink: &StatsSink,
    incumbent: Option<&IncumbentSink>,
) -> Solver {
    let mut config = config.clone();
    config.abort = abort.clone();
    config.stats_sink = Some(sink.clone());
    config.incumbent_sink = incumbent.cloned();
    Solver::new(config)
}

/// Shared lazy candidate source for the portfolio search: chains the
/// incremental [`candidate_iter`] generators of every `NR` level (respecting
/// the per-level candidate limit) and stamps each candidate with its global
/// enumeration sequence number, which doubles as the deterministic
/// tie-breaker among equal periods.
struct PortfolioStream<'a> {
    placement: &'a PlacementSpec,
    inflights: usize,
    level_limit: usize,
    nr: usize,
    taken_in_level: usize,
    iter: CandidateIter<'a>,
    pulled: usize,
}

impl<'a> PortfolioStream<'a> {
    fn new(placement: &'a PlacementSpec, inflights: usize, limit: Option<usize>) -> Self {
        PortfolioStream {
            placement,
            inflights,
            level_limit: limit.unwrap_or(usize::MAX),
            nr: 1,
            taken_in_level: 0,
            iter: candidate_iter(placement, 1.min(inflights)),
            pulled: 0,
        }
    }

    /// Number of candidates handed out so far.
    fn pulled(&self) -> usize {
        self.pulled
    }
}

impl Iterator for PortfolioStream<'_> {
    type Item = (usize, usize, RepetendCandidate);

    fn next(&mut self) -> Option<(usize, usize, RepetendCandidate)> {
        loop {
            if self.nr > self.inflights {
                return None;
            }
            if self.taken_in_level < self.level_limit {
                if let Some(candidate) = self.iter.next() {
                    self.taken_in_level += 1;
                    let seq = self.pulled;
                    self.pulled += 1;
                    return Some((seq, self.nr, candidate));
                }
            }
            self.nr += 1;
            self.taken_in_level = 0;
            if self.nr <= self.inflights {
                self.iter = candidate_iter(self.placement, self.nr);
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
    /// opposite directions across two devices.
    fn x_shape() -> PlacementSpec {
        let mut b = PlacementSpec::builder("x2", 2);
        b.set_memory_capacity(Some(4));
        // Branch "down": stage0 on dev0, stage1 on dev1.
        let f0 = b
            .add_block("d-f0", BlockKind::Forward, [0], 1, 1, [])
            .unwrap();
        let f1 = b
            .add_block("d-f1", BlockKind::Forward, [1], 1, 1, [f0])
            .unwrap();
        let b1 = b
            .add_block("d-b1", BlockKind::Backward, [1], 2, -1, [f1])
            .unwrap();
        let _b0 = b
            .add_block("d-b0", BlockKind::Backward, [0], 2, -1, [b1])
            .unwrap();
        // Branch "up": stage0 on dev1, stage1 on dev0.
        let g0 = b
            .add_block("u-f0", BlockKind::Forward, [1], 1, 1, [])
            .unwrap();
        let g1 = b
            .add_block("u-f1", BlockKind::Forward, [0], 1, 1, [g0])
            .unwrap();
        let c1 = b
            .add_block("u-b1", BlockKind::Backward, [0], 2, -1, [g1])
            .unwrap();
        let _c0 = b
            .add_block("u-b0", BlockKind::Backward, [1], 2, -1, [c1])
            .unwrap();
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
        let p = x_shape();
        let search = TesselSearch::new(SearchConfig::default().with_micro_batches(6));
        let outcome = search.run(&p).unwrap();
        outcome.schedule.validate(&p).unwrap();
        // Each device carries 6 time units of work per micro-batch; a good
        // repetend gets close to that bound.
        assert!(outcome.repetend.period <= p.total_block_time());
        assert!(outcome.repetend.period >= p.repetend_lower_bound());
    }

    #[test]
    fn incumbent_sink_observes_improving_makespans() {
        let p = v_shape(3, 1, 2, Some(4));
        let seen: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
        let sink = {
            let seen = seen.clone();
            IncumbentSink::new(move |value| seen.lock().unwrap().push(value))
        };
        let config = SearchConfig::default()
            .with_micro_batches(8)
            .with_incumbent_sink(sink);
        let outcome = TesselSearch::new(config).run(&p).unwrap();
        let seen = seen.lock().unwrap();
        // At least the greedy seed (the first incumbent) must be reported,
        // and every reported makespan upper-bounds the final period.
        assert!(!seen.is_empty(), "no incumbents reported");
        assert!(seen.iter().all(|&v| v >= outcome.repetend.period));
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
        assert!(stats.improving_repetends >= 1);
        assert!(stats.chosen_nr >= 1);
        assert!(stats.phase_times.total() <= stats.total_time + Duration::from_secs(1));
    }

    #[test]
    fn stats_aggregate_solver_effort() {
        let p = v_shape(2, 1, 2, Some(3));
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
        for placement in [v_shape(2, 1, 2, Some(3)), x_shape()] {
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
            .with_portfolio_threads(4);
        assert_eq!(config.num_micro_batches, 12);
        assert!(!config.lazy);
        assert_eq!(config.max_repetend_micro_batches, 3);
        assert_eq!(config.portfolio_threads, 4);
        assert_eq!(config.effective_portfolio_threads(), 4);
        assert!(
            SearchConfig::default()
                .with_portfolio_threads(0)
                .effective_portfolio_threads()
                >= 1
        );
    }

    #[test]
    fn zero_time_budget_times_out_cleanly() {
        let p = v_shape(2, 1, 2, Some(3));
        for threads in [1usize, 3] {
            let config = SearchConfig::default()
                .with_portfolio_threads(threads)
                .with_time_budget(Some(Duration::ZERO));
            let err = TesselSearch::new(config).run(&p).unwrap_err();
            assert!(
                matches!(err, CoreError::DeadlineExceeded),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn eager_mode_zero_budget_also_times_out() {
        let p = v_shape(2, 1, 2, Some(3));
        let config = SearchConfig::default()
            .with_lazy(false)
            .with_time_budget(Some(Duration::ZERO));
        let err = TesselSearch::new(config).run(&p).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded));
    }

    #[test]
    fn cancelled_token_aborts_the_search() {
        let p = v_shape(2, 1, 2, Some(3));
        let token = tessel_solver::CancelToken::new();
        token.cancel();
        let config = SearchConfig::default().with_cancel(token);
        let err = TesselSearch::new(config).run(&p).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded));
    }

    #[test]
    fn generous_budget_leaves_the_result_unchanged() {
        let p = v_shape(2, 1, 2, Some(3));
        let plain = TesselSearch::new(SearchConfig::default()).run(&p).unwrap();
        let budgeted = TesselSearch::new(
            SearchConfig::default().with_time_budget(Some(Duration::from_secs(120))),
        )
        .run(&p)
        .unwrap();
        assert_eq!(plain.repetend.period, budgeted.repetend.period);
    }

    #[test]
    fn portfolio_search_finds_the_serial_period() {
        for placement in [v_shape(2, 1, 2, Some(3)), x_shape()] {
            let serial = TesselSearch::new(SearchConfig::default().with_micro_batches(6))
                .run(&placement)
                .unwrap();
            for threads in [2usize, 4] {
                let portfolio = TesselSearch::new(
                    SearchConfig::default()
                        .with_micro_batches(6)
                        .with_portfolio_threads(threads),
                )
                .run(&placement)
                .unwrap();
                portfolio.schedule.validate(&placement).unwrap();
                assert_eq!(portfolio.repetend.period, serial.repetend.period);
            }
        }
    }

    #[test]
    fn portfolio_search_works_in_eager_mode() {
        let p = v_shape(2, 1, 2, Some(3));
        let serial = TesselSearch::new(SearchConfig::default().with_lazy(false))
            .run(&p)
            .unwrap();
        let portfolio = TesselSearch::new(
            SearchConfig::default()
                .with_lazy(false)
                .with_portfolio_threads(3),
        )
        .run(&p)
        .unwrap();
        portfolio.schedule.validate(&p).unwrap();
        assert_eq!(portfolio.repetend.period, serial.repetend.period);
        assert_eq!(portfolio.stats.feasibility_probes, 0);
    }

    #[test]
    fn portfolio_stats_report_effort() {
        let p = v_shape(2, 1, 2, Some(3));
        let outcome = TesselSearch::new(SearchConfig::default().with_portfolio_threads(4))
            .run(&p)
            .unwrap();
        let stats = &outcome.stats;
        assert!(stats.candidates_considered > 0);
        assert!(stats.repetend_solves > 0);
        assert_eq!(
            stats.candidates_considered,
            stats.candidates_screened + stats.repetend_solves
        );
        assert!(stats.improving_repetends >= 1);
        assert!(stats.chosen_nr >= 1);
        assert!(stats.early_exit);
    }
}
