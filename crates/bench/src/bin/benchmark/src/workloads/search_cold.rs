//! `search_cold`: the paper's headline path. `TesselSearch::run`, serial, over
//! a fixed suite of 19 placements; one operation is one search, one segment is
//! one pass over the suite.

use crate::check::{check_schedule, Expected};
use crate::gen::{relabel, Rng};
use crate::stats::median;
use crate::trace::{SpanId, Tracer, NONE};
use crate::workload::{solver_effort, timed_segment, Ctx, Layers, Segment, Workload};
use std::time::Instant;
use tessel_core::completion::{
    complete_schedule, cooldown_blocks, cooldown_entry_memory, probe_phase, warmup_blocks,
};
use tessel_core::compose::compose_schedule;
use tessel_core::ir::PlacementSpec;
use tessel_core::repetend::{
    build_repetend_instance, candidate_iter, entry_memory, evaluate_repetend, Repetend,
};
use tessel_core::search::{SearchConfig, SearchStats, TesselSearch};
use tessel_models::config::{gpt_config_for_gpus, mt5_config_for_gpus, FlavaConfig};
use tessel_models::cost::CostModel;
use tessel_placement::{flava_k_shape, gpt_m_shape, mt5_nn_shape, synthetic_placement, ShapeKind};
use tessel_solver::{Solver, SolverConfig};

/// One suite entry: the placement (identity labeling) and how it is searched.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub placement: PlacementSpec,
    pub num_micro_batches: usize,
    pub max_repetend: usize,
    pub candidate_limit: Option<usize>,
}

impl Case {
    /// Serial search: one portfolio thread, one solver thread, both set
    /// explicitly (`SolverConfig::default()` would read the environment).
    pub fn config(&self) -> SearchConfig {
        let mut config = SearchConfig::default()
            .with_micro_batches(self.num_micro_batches)
            .with_max_repetend_micro_batches(self.max_repetend)
            .with_portfolio_threads(1)
            .with_solver_threads(1);
        config.candidate_limit = self.candidate_limit;
        config
    }
}

/// The fixed suite, in identity labeling. Returns the cases and the seconds
/// spent inside `placement`/`models` building them.
pub fn suite() -> Result<(Vec<Case>, f64), String> {
    let clock = Instant::now();
    let mut cases = Vec::new();
    let synthetic = |kind: ShapeKind, devices: usize, nr: usize| -> Result<Case, String> {
        let label = match kind {
            ShapeKind::V => "V",
            ShapeKind::X => "X",
            ShapeKind::M => "M",
            ShapeKind::K => "K",
            ShapeKind::NN => "NN",
        };
        Ok(Case {
            name: format!("{label}{devices}"),
            placement: synthetic_placement(kind, devices).map_err(|e| e.to_string())?,
            num_micro_batches: 8,
            max_repetend: nr,
            candidate_limit: None,
        })
    };
    for kind in ShapeKind::all() {
        cases.push(synthetic(kind, 4, 6)?);
    }
    for (kind, nr) in [
        (ShapeKind::V, 6),
        (ShapeKind::X, 3),
        (ShapeKind::M, 6),
        (ShapeKind::NN, 6),
        (ShapeKind::K, 4),
    ] {
        cases.push(synthetic(kind, 8, nr)?);
    }
    let cost = CostModel::paper_default();
    for gpus in [4, 8, 16] {
        let gpt = gpt_config_for_gpus(gpus).ok_or("no GPT configuration")?;
        let mt5 = mt5_config_for_gpus(gpus).ok_or("no mT5 configuration")?;
        let models = [
            ("gpt", gpt_m_shape(&gpt, &cost, gpus)),
            ("mt5", mt5_nn_shape(&mt5, &cost, gpus)),
            (
                "flava",
                flava_k_shape(&FlavaConfig::default(), &cost, gpus, false),
            ),
        ];
        for (model, placement) in models {
            cases.push(Case {
                name: format!("{model}-{gpus}gpu"),
                placement: placement.map_err(|e| format!("{model}-{gpus}gpu: {e}"))?,
                num_micro_batches: 12,
                max_repetend: 6,
                candidate_limit: Some(4000),
            });
        }
    }
    Ok((cases, clock.elapsed().as_secs_f64()))
}

pub struct SearchCold {
    /// The suite in this seed's order, each placement under this seed's
    /// device relabeling and block reorder.
    cases: Vec<Case>,
    expected_periods: Vec<u64>,
    placement_build_s: f64,
}

impl SearchCold {
    /// Runs one search and checks its output; returns the latency in
    /// milliseconds, whether the output passed, and the search statistics.
    fn run_case(&self, index: usize) -> (f64, bool, Option<SearchStats>) {
        let case = &self.cases[index];
        let search = TesselSearch::new(case.config());
        let clock = Instant::now();
        let outcome = search.run(std::hint::black_box(&case.placement));
        let latency_ms = clock.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(outcome) => {
                let n = case
                    .num_micro_batches
                    .max(outcome.repetend.num_micro_batches());
                let ok = outcome.repetend.period == self.expected_periods[index]
                    && outcome.repetend.period >= case.placement.repetend_lower_bound()
                    && check_schedule(&case.placement, &outcome.schedule, n).is_ok();
                (latency_ms, ok, Some(outcome.stats))
            }
            Err(_) => (latency_ms, false, None),
        }
    }
}

impl Workload for SearchCold {
    const NAME: &'static str = "search_cold";
    const SEGMENT_OPS: usize = 19;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let expected = Expected::load()?;
        let (mut cases, placement_build_s) = suite()?;
        let mut rng = Rng::new(ctx.seed, 1);
        rng.shuffle(&mut cases);
        let mut expected_periods = Vec::with_capacity(cases.len());
        for case in &mut cases {
            case.placement = relabel(&case.placement, &mut rng);
            expected_periods.push(
                *expected
                    .periods
                    .get(&case.name)
                    .ok_or_else(|| format!("expected.json pins no period for {}", case.name))?,
            );
        }
        Ok(SearchCold {
            cases,
            expected_periods,
            placement_build_s,
        })
    }

    fn segment(&mut self, _index: usize) -> Segment {
        timed_segment(|| {
            let mut latencies = Vec::with_capacity(self.cases.len());
            let mut failed = 0;
            for index in 0..self.cases.len() {
                let (latency_ms, ok, _) = self.run_case(index);
                latencies.push(latency_ms);
                failed += usize::from(!ok);
            }
            (latencies, failed)
        })
    }

    fn traced_segment(
        &mut self,
        _index: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Segment, String> {
        let mut totals = SearchStats::default();
        let mut slowest_s = 0.0f64;
        let mut run_s = 0.0;
        let mut shadow_s = 0.0;
        // The timed part: the same pass as an untraced segment, one span per
        // search.
        let segment = timed_segment(|| {
            let mut latencies = Vec::with_capacity(self.cases.len());
            let mut failed = 0;
            for index in 0..self.cases.len() {
                let ((latency_ms, ok, stats), _, span_s) =
                    tracer.span("core.search.run", index, NONE, || self.run_case(index));
                run_s += span_s;
                latencies.push(latency_ms);
                failed += usize::from(!ok);
                if let Some(stats) = stats {
                    slowest_s = slowest_s.max(stats.total_time.as_secs_f64());
                    absorb(&mut totals, &stats);
                }
            }
            (latencies, failed)
        });
        // Outside the timed part: Algorithm 1 again, step by step through the
        // public functions `run` is built from, one span per step.
        for (index, case) in self.cases.iter().enumerate() {
            let root = tracer.open("shadow.search", index, NONE);
            shadow_search(case, tracer, index, root);
            shadow_s += tracer.close(root);
        }

        let solver = &totals.solver;
        let small_solves = tracer.durations("solver.small_solve");
        let complete_s: f64 = tracer.durations("core.completion.complete").iter().sum();
        let busy_s = small_solves.iter().sum::<f64>() + complete_s;
        let us_p50 = |name: &str| median(&tracer.durations(name)) * 1e6;
        let enumerate_s: f64 = tracer.durations("core.repetend.enumerate").iter().sum();
        layers.extend(search_layers(&totals));
        layers.extend(solver_effort(
            solver.nodes,
            solver.pruned_bound,
            solver.pruned_dominance,
        ));
        layers.extend([
            ("placement.build_ms", self.placement_build_s * 1e3),
            ("core.search.slowest_placement_s", slowest_s),
            ("core.search.shadow_coverage", shadow_s / run_s),
            (
                "core.repetend.enumerate_us_per_cand",
                enumerate_s * 1e6 / totals.candidates_considered.max(1) as f64,
            ),
            (
                "core.repetend.build_instance_us_p50",
                us_p50("core.repetend.build_instance"),
            ),
            (
                "core.repetend.evaluate_us_p50",
                us_p50("core.repetend.evaluate"),
            ),
            ("core.completion.complete_ms", complete_s * 1e3),
            (
                "core.compose.compose_us_p50",
                us_p50("core.compose.compose"),
            ),
            ("solver.small_solve_us_p50", median(&small_solves) * 1e6),
            ("solver.small_solves", small_solves.len() as f64),
            ("solver.busy_s", busy_s),
            ("solver.nodes_per_s", solver.nodes as f64 / busy_s),
        ]);
        Ok(segment)
    }
}

/// Adds one search's counters and phase times to a running total.
pub fn absorb(total: &mut SearchStats, stats: &SearchStats) {
    total.candidates_considered += stats.candidates_considered;
    total.repetend_solves += stats.repetend_solves;
    total.feasibility_probes += stats.feasibility_probes;
    total.improving_repetends += stats.improving_repetends;
    total.phase_times.repetend += stats.phase_times.repetend;
    total.phase_times.warmup += stats.phase_times.warmup;
    total.phase_times.cooldown += stats.phase_times.cooldown;
    total.solver.merge(&stats.solver);
}

/// The `core.search` rows every workload that searches reports.
pub fn search_layers(total: &SearchStats) -> [(&'static str, f64); 8] {
    [
        ("core.search.candidates", total.candidates_considered as f64),
        ("core.search.repetend_solves", total.repetend_solves as f64),
        (
            "core.search.feasibility_probes",
            total.feasibility_probes as f64,
        ),
        (
            "core.search.improving_repetends",
            total.improving_repetends as f64,
        ),
        ("core.search.solver_nodes", total.solver.nodes as f64),
        (
            "core.search.phase_repetend_s",
            total.phase_times.repetend.as_secs_f64(),
        ),
        (
            "core.search.phase_warmup_s",
            total.phase_times.warmup.as_secs_f64(),
        ),
        (
            "core.search.phase_cooldown_s",
            total.phase_times.cooldown.as_secs_f64(),
        ),
    ]
}

/// Algorithm 1 (serial, lazy) re-enacted through `core`'s public functions,
/// with a span around each step. Follows `TesselSearch::run` closely enough
/// that `core.search.shadow_coverage` stays near 1; it is a measuring device,
/// not an oracle, so a divergence is reported rather than failed.
fn shadow_search(case: &Case, tracer: &mut Tracer, op: usize, root: SpanId) {
    let placement = &case.placement;
    let config = case.config();
    let repetend_solver = Solver::new(config.repetend_solver.clone());
    let phase_solver = Solver::new(config.phase_solver.clone());
    let probe_solver = Solver::new(SolverConfig::probe().with_threads(1));
    let n = case.num_micro_batches;
    let mut optimal = placement.total_block_time() + 1;
    let lower_bound = placement.repetend_lower_bound();
    let inflights = placement
        .max_inflight_micro_batches(case.max_repetend)
        .min(case.max_repetend)
        .min(n)
        .max(1);
    let mut best: Option<Repetend> = None;
    'levels: for nr in 1..=inflights {
        let mut candidates = candidate_iter(placement, nr);
        for _ in 0..case.candidate_limit.unwrap_or(usize::MAX) {
            let (candidate, _, _) =
                tracer.span("core.repetend.enumerate", op, root, || candidates.next());
            let Some(candidate) = candidate else { break };
            let (instance, _, _) = tracer.span("core.repetend.build_instance", op, root, || {
                let fits = placement.memory_capacity().is_none_or(|cap| {
                    entry_memory(placement, &candidate)
                        .iter()
                        .all(|&m| m <= cap)
                });
                fits.then(|| build_repetend_instance(placement, &candidate).ok())
                    .flatten()
            });
            let Some(instance) = instance else { continue };
            let (outcome, _, _) = tracer.span("solver.small_solve", op, root, || {
                repetend_solver.minimize_below(&instance, optimal)
            });
            let Some(solution) = outcome.ok().and_then(|o| o.solution().cloned()) else {
                continue;
            };
            let (repetend, _, _) = tracer.span("core.repetend.evaluate", op, root, || {
                evaluate_repetend(placement, &candidate, &solution)
            });
            if repetend.period >= optimal {
                continue;
            }
            let copies = n.max(repetend.num_micro_batches()) - repetend.num_micro_batches() + 1;
            let (feasible, _, _) = tracer.span("core.completion.probe", op, root, || {
                probe_phase(
                    placement,
                    &warmup_blocks(&repetend.candidate),
                    vec![0; placement.num_devices()],
                    &probe_solver,
                )
                .unwrap_or(false)
                    && probe_phase(
                        placement,
                        &cooldown_blocks(&repetend.candidate),
                        cooldown_entry_memory(placement, &repetend.candidate, copies),
                        &probe_solver,
                    )
                    .unwrap_or(false)
            });
            if !feasible {
                continue;
            }
            optimal = repetend.period;
            best = Some(repetend);
            if optimal <= lower_bound {
                break 'levels;
            }
        }
    }
    let Some(repetend) = best else { return };
    let nr = repetend.num_micro_batches();
    let (phases, _, _) = tracer.span("core.completion.complete", op, root, || {
        complete_schedule(placement, &repetend, n.max(nr) - nr + 1, &phase_solver)
    });
    if let Ok((warmup, cooldown)) = phases {
        let _ = tracer.span("core.compose.compose", op, root, || {
            compose_schedule(placement, &repetend, &warmup, &cooldown, n.max(nr))
        });
    }
}
