//! Cross-thread determinism of the work-stealing parallel solver.
//!
//! The parallel search shares a striped dominance table and an atomic
//! incumbent bound between workers, steals subtrees between their per-worker
//! deques, and merges per-worker results at the end — none of which may
//! change *what is proved*. These tests pin that property end to end: for thread counts
//! 1, 2, 4 and 8 the proved optimal period/makespan must be identical on
//! every built-in placement shape and on a battery of randomized instances
//! (where infeasibility verdicts must agree too).

use tessel::core::search::{SearchConfig, TesselSearch};
use tessel::placement::shapes::{synthetic_placement, ShapeKind};
use tessel::solver::{InstanceBuilder, Solver, SolverConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A bounded-but-quick search configuration: small enough that 5 shapes × 4
/// thread counts stay in the seconds range, large enough to exercise real
/// repetend searches with warmup/cooldown completion.
fn shape_config(solver_threads: usize) -> SearchConfig {
    let mut config = SearchConfig::default()
        .with_micro_batches(6)
        .with_max_repetend_micro_batches(3)
        .with_solver_threads(solver_threads);
    config.candidate_limit = Some(600);
    config
}

#[test]
fn built_in_shapes_prove_the_same_period_for_all_thread_counts() {
    for shape in [
        ShapeKind::V,
        ShapeKind::X,
        ShapeKind::M,
        ShapeKind::NN,
        ShapeKind::K,
    ] {
        let placement = synthetic_placement(shape, 4).expect("placement");
        let mut reference = None;
        for threads in THREAD_COUNTS {
            let outcome = TesselSearch::new(shape_config(threads))
                .run(&placement)
                .expect("search");
            outcome.schedule.validate(&placement).expect("valid");
            let period = outcome.repetend.period;
            match reference {
                None => reference = Some(period),
                Some(expected) => assert_eq!(
                    period, expected,
                    "{shape}: solver_threads={threads} found period {period}, serial found {expected}"
                ),
            }
        }
    }
}

/// Deterministic xorshift-style generator — no external crates, same
/// sequence on every host, so failures reproduce exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random precedence-constrained instance: 3 devices, 8–14 tasks, random
/// DAG edges (always from lower to higher task index, so acyclic), durations
/// 1–4, memory deltas in {-1, 0, 1} under a tight capacity, occasional
/// two-device (tensor-parallel-style) tasks.
fn random_instance(seed: u64) -> tessel::solver::Instance {
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef);
    let devices = 3usize;
    let tasks = 8 + rng.below(7) as usize;
    let mut b = InstanceBuilder::new(devices);
    if rng.below(2) == 0 {
        b.set_memory_capacity(Some(2 + rng.below(3) as i64));
    }
    let mut ids = Vec::with_capacity(tasks);
    for i in 0..tasks {
        let duration = 1 + rng.below(4);
        let memory = rng.below(3) as i64 - 1;
        let first = rng.below(devices as u64) as usize;
        let devs: Vec<usize> = if rng.below(8) == 0 {
            let second = (first + 1) % devices;
            vec![first, second]
        } else {
            vec![first]
        };
        let id = b
            .add_task(format!("t{i}"), duration, devs, memory)
            .expect("task");
        ids.push(id);
    }
    for j in 1..tasks {
        // Each task draws 0-2 predecessors from earlier tasks.
        for _ in 0..rng.below(3) {
            let i = rng.below(j as u64) as usize;
            let _ = b.add_precedence(ids[i], ids[j]);
        }
    }
    b.build().expect("instance")
}

#[test]
fn randomized_instances_agree_across_thread_counts() {
    for seed in 0..25u64 {
        let instance = random_instance(seed);
        let mut reference: Option<Option<u64>> = None;
        for threads in THREAD_COUNTS {
            let solver = Solver::new(SolverConfig::exhaustive().with_threads(threads));
            let outcome = solver.minimize(&instance).expect("solve");
            assert!(
                outcome.stats().complete,
                "seed {seed}: exhaustive search must complete"
            );
            let makespan = outcome.solution().map(|sol| {
                sol.validate(&instance).expect("valid");
                sol.makespan()
            });
            match &reference {
                None => reference = Some(makespan),
                Some(expected) => assert_eq!(
                    &makespan, expected,
                    "seed {seed}: threads={threads} disagrees with serial"
                ),
            }
        }
    }
}

#[test]
fn randomized_satisfiability_agrees_across_thread_counts() {
    for seed in 0..10u64 {
        let instance = random_instance(seed);
        let serial = Solver::new(SolverConfig::exhaustive())
            .minimize(&instance)
            .expect("solve");
        let Some(best) = serial.solution().map(tessel::solver::Solution::makespan) else {
            continue;
        };
        for threads in THREAD_COUNTS {
            let solver = Solver::new(SolverConfig::exhaustive().with_threads(threads));
            // At the optimum: satisfiable. Strictly below it: not.
            let sat = solver.satisfy(&instance, best).expect("satisfy");
            assert!(
                sat.solution().is_some(),
                "seed {seed}: threads={threads} missed a schedule at the optimum"
            );
            if best > 0 {
                let unsat = solver.satisfy(&instance, best - 1).expect("satisfy");
                assert!(
                    unsat.solution().is_none(),
                    "seed {seed}: threads={threads} beat the proved optimum"
                );
            }
        }
    }
}
