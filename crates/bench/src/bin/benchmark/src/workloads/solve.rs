//! `solve_exact` and `solve_parallel`: `Solver::minimize` on the four
//! time-optimal instances of Fig. 3 (every block of every micro-batch a
//! task), proved to optimality — serially, and with two worker threads.

use crate::check::{check_schedule, Expected, ExpectedSolve};
use crate::gen::Rng;
use crate::stats::median;
use crate::trace::{Tracer, NONE};
use crate::workload::{solver_effort, timed_segment, Ctx, Layers, Segment, Workload};
use std::time::Instant;
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::{scheduled_block, Schedule};
use tessel_placement::{synthetic_placement, ShapeKind};
use tessel_solver::{
    greedy_schedule, makespan_lower_bound, GreedyPriority, Instance, InstanceBuilder, SolveStats,
    Solver, SolverConfig, TaskId,
};

/// The whole-schedule formulation the paper hands to Z3: one task per block
/// per micro-batch, task `mb * K + stage`, with only the data dependencies
/// inside each micro-batch.
fn time_optimal_instance(
    placement: &PlacementSpec,
    micro_batches: usize,
) -> Result<Instance, String> {
    let k = placement.num_blocks();
    let mut builder = InstanceBuilder::new(placement.num_devices());
    builder.set_memory_capacity(placement.memory_capacity());
    for mb in 0..micro_batches {
        for block in placement.blocks() {
            builder
                .add_task(
                    format!("{}^{mb}", block.name),
                    block.time,
                    block.devices.iter().copied(),
                    block.memory,
                )
                .map_err(|e| e.to_string())?;
        }
        for (stage, block) in placement.blocks().iter().enumerate() {
            for &dep in &block.deps {
                builder
                    .add_precedence(
                        TaskId::from_index(mb * k + dep),
                        TaskId::from_index(mb * k + stage),
                    )
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    builder.build().map_err(|e| e.to_string())
}

struct Case {
    /// `V4/mb6` → the per-layer metric `solver.v4mb6_s`.
    layer_metric: &'static str,
    placement: PlacementSpec,
    micro_batches: usize,
    instance: Instance,
    expected: ExpectedSolve,
}

const CASES: [(&str, &str, ShapeKind, usize); 4] = [
    ("V4/mb6", "solver.v4mb6_s", ShapeKind::V, 6),
    ("M4/mb5", "solver.m4mb5_s", ShapeKind::M, 5),
    ("X4/mb3", "solver.x4mb3_s", ShapeKind::X, 3),
    ("K4/mb4", "solver.k4mb4_s", ShapeKind::K, 4),
];

/// `THREADS` = 1 is `solve_exact`, 2 is `solve_parallel`.
pub struct Solve<const THREADS: usize> {
    cases: Vec<Case>,
    placement_build_s: f64,
    instance_build_s: Vec<f64>,
}

pub type SolveExact = Solve<1>;
pub type SolveParallel = Solve<2>;

impl<const THREADS: usize> Solve<THREADS> {
    fn solver(threads: usize) -> Solver {
        Solver::new(SolverConfig::exhaustive().with_threads(threads))
    }

    /// One exact solve and its output check; returns the latency in
    /// milliseconds, whether the output passed, and the solve's statistics.
    fn run_case(case: &Case, threads: usize) -> (f64, bool, Option<SolveStats>) {
        let solver = Self::solver(threads);
        let clock = Instant::now();
        let outcome = solver.minimize(std::hint::black_box(&case.instance));
        let latency_ms = clock.elapsed().as_secs_f64() * 1e3;
        let Ok(outcome) = outcome else {
            return (latency_ms, false, None);
        };
        let stats = outcome.stats().clone();
        let ok = outcome.is_optimal()
            && outcome.solution().is_some_and(|solution| {
                let k = case.placement.num_blocks();
                let blocks = (0..case.instance.num_tasks())
                    .map(|task| {
                        scheduled_block(
                            &case.placement,
                            task % k,
                            task / k,
                            solution.start(TaskId::from_index(task)),
                        )
                    })
                    .collect();
                let schedule =
                    Schedule::new(case.placement.num_devices(), case.micro_batches, blocks);
                solution.makespan() == case.expected.makespan
                    && check_schedule(&case.placement, &schedule, case.micro_batches).is_ok()
            })
            // The serial search is deterministic, so its node count is pinned;
            // the parallel one explores a schedule-dependent number of nodes.
            && (threads > 1 || stats.nodes == case.expected.serial_nodes);
        (latency_ms, ok, Some(stats))
    }

    fn pass(&self, mut each: impl FnMut(usize, &Case) -> (f64, bool)) -> Segment {
        timed_segment(|| {
            let mut latencies = Vec::with_capacity(self.cases.len());
            let mut failed = 0;
            for (index, case) in self.cases.iter().enumerate() {
                let (latency_ms, ok) = each(index, case);
                latencies.push(latency_ms);
                failed += usize::from(!ok);
            }
            (latencies, failed)
        })
    }
}

impl<const THREADS: usize> Workload for Solve<THREADS> {
    const NAME: &'static str = if THREADS == 1 {
        "solve_exact"
    } else {
        "solve_parallel"
    };
    const SEGMENT_OPS: usize = CASES.len();

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let pinned = Expected::load()?;
        let mut cases = Vec::new();
        let mut placement_build_s = 0.0;
        let mut instance_build_s = Vec::new();
        for (name, layer_metric, kind, micro_batches) in CASES {
            let clock = Instant::now();
            let placement = synthetic_placement(kind, 4).map_err(|e| e.to_string())?;
            placement_build_s += clock.elapsed().as_secs_f64();
            let clock = Instant::now();
            let instance = time_optimal_instance(&placement, micro_batches)?;
            instance_build_s.push(clock.elapsed().as_secs_f64());
            let expected = *pinned
                .solves
                .get(name)
                .ok_or_else(|| format!("expected.json pins nothing for {name}"))?;
            cases.push(Case {
                layer_metric,
                placement,
                micro_batches,
                instance,
                expected,
            });
        }
        // The instances keep their identity labeling so the node counts pin;
        // the seed only orders the four solves inside a segment.
        Rng::new(ctx.seed, 2).shuffle(&mut cases);
        Ok(Solve {
            cases,
            placement_build_s,
            instance_build_s,
        })
    }

    fn segment(&mut self, _index: usize) -> Segment {
        self.pass(|_, case| {
            let (latency_ms, ok, _) = Self::run_case(case, THREADS);
            (latency_ms, ok)
        })
    }

    fn traced_segment(
        &mut self,
        _index: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Segment, String> {
        let mut total = SolveStats::default();
        let mut busy_s = 0.0;
        let segment = self.pass(|index, case| {
            let ((latency_ms, ok, stats), _, span_s) =
                tracer.span("solver.minimize", index, NONE, || {
                    Self::run_case(case, THREADS)
                });
            layers.insert(case.layer_metric, latency_ms / 1e3);
            busy_s += span_s;
            if let Some(stats) = stats {
                total.nodes += stats.nodes;
                total.pruned_bound += stats.pruned_bound;
                total.pruned_dominance += stats.pruned_dominance;
                total.incumbents += stats.incumbents;
                total.steals += stats.steals;
                total.steal_failures += stats.steal_failures;
                total.cas_retries += stats.cas_retries;
                total.memo_drops += stats.memo_drops;
                total.shared_memo_hits += stats.shared_memo_hits;
                total.warmstart_micros += stats.warmstart_micros;
                total.parallel_micros += stats.parallel_micros;
            }
            (latency_ms, ok)
        });

        // The solver's cheap public entry points, once per instance.
        let mut greedy_us = Vec::new();
        let mut lower_bound_us = Vec::new();
        for (index, case) in self.cases.iter().enumerate() {
            let (_, _, s) = tracer.span("solver.greedy_schedule", index, NONE, || {
                std::hint::black_box(greedy_schedule(&case.instance, GreedyPriority::default()))
            });
            greedy_us.push(s * 1e6);
            let (_, _, s) = tracer.span("solver.makespan_lower_bound", index, NONE, || {
                std::hint::black_box(makespan_lower_bound(&case.instance))
            });
            lower_bound_us.push(s * 1e6);
        }

        layers.extend(solver_effort(
            total.nodes,
            total.pruned_bound,
            total.pruned_dominance,
        ));
        layers.extend([
            ("placement.build_ms", self.placement_build_s * 1e3),
            (
                "solver.instance_build_us",
                median(&self.instance_build_s) * 1e6,
            ),
            ("solver.greedy_us", median(&greedy_us)),
            ("solver.lower_bound_us", median(&lower_bound_us)),
            ("solver.busy_s", busy_s),
            ("solver.nodes_per_s", total.nodes as f64 / busy_s),
            ("solver.incumbents", total.incumbents as f64),
        ]);
        if THREADS > 1 {
            // One serial pass, outside the timed part, for the ratios.
            let serial = self.pass(|index, case| {
                let ((latency_ms, ok, _), _, _) =
                    tracer.span("solver.minimize_serial", index, NONE, || {
                        Self::run_case(case, 1)
                    });
                (latency_ms, ok)
            });
            let serial_nodes: u64 = self.cases.iter().map(|c| c.expected.serial_nodes).sum();
            layers.extend([
                ("solver.steals", total.steals as f64),
                ("solver.steal_failures", total.steal_failures as f64),
                ("solver.cas_retries", total.cas_retries as f64),
                ("solver.memo_drops", total.memo_drops as f64),
                ("solver.shared_memo_hits", total.shared_memo_hits as f64),
                ("solver.warmstart_us", total.warmstart_micros as f64),
                ("solver.parallel_us", total.parallel_micros as f64),
                (
                    "solver.nodes_vs_serial",
                    total.nodes as f64 / serial_nodes as f64,
                ),
                ("solver.speedup_vs_serial", serial.wall_s / segment.wall_s),
            ]);
        }
        Ok(segment)
    }
}
