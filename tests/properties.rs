//! Property-based tests over the core invariants: solver solutions always
//! satisfy the constraint system, searched schedules always validate, and
//! schedule extension preserves validity for arbitrary micro-batch counts.

use proptest::prelude::*;
use tessel::core::ir::{BlockKind, PlacementSpec};
use tessel::core::search::{SearchConfig, TesselSearch};
use tessel::placement::shapes::{synthetic_placement, ShapeKind};
use tessel::solver::{greedy_schedule, GreedyPriority, InstanceBuilder, Solver, SolverConfig};
use tessel_bench::time_optimal_instance;

/// Strategy: a random pipeline-like placement — a chain of forward blocks over
/// `devices` devices followed by the mirrored backward chain, with random
/// per-stage durations.
fn placement_strategy() -> impl Strategy<Value = PlacementSpec> {
    (
        2usize..=4,
        proptest::collection::vec(1u64..=4, 2..=4),
        2i64..=8,
    )
        .prop_map(|(devices, times, capacity)| {
            let devices = devices.min(times.len().max(2));
            let mut b = PlacementSpec::builder("prop-pipeline", devices);
            b.set_memory_capacity(Some(capacity.max(devices as i64)));
            let mut prev: Option<usize> = None;
            for (i, &t) in times.iter().enumerate() {
                let dev = i % devices;
                let deps: Vec<usize> = prev.into_iter().collect();
                prev = Some(
                    b.add_block(format!("f{i}"), BlockKind::Forward, [dev], t, 1, deps)
                        .unwrap(),
                );
            }
            for (i, &t) in times.iter().enumerate().rev() {
                let dev = i % devices;
                let deps: Vec<usize> = prev.into_iter().collect();
                prev = Some(
                    b.add_block(format!("b{i}"), BlockKind::Backward, [dev], t * 2, -1, deps)
                        .unwrap(),
                );
            }
            b.build().unwrap()
        })
}

/// Strategy: a random solver instance with chain dependencies.
fn instance_strategy() -> impl Strategy<Value = tessel::solver::Instance> {
    (
        2usize..=3,
        proptest::collection::vec((1u64..=5, -2i64..=2), 3..=8),
    )
        .prop_map(|(devices, tasks)| {
            let mut b = InstanceBuilder::new(devices);
            b.set_memory_capacity(Some(6));
            let mut prev = None;
            for (i, &(duration, memory)) in tasks.iter().enumerate() {
                let id = b
                    .add_task(format!("t{i}"), duration, [i % devices], memory)
                    .unwrap();
                // Chain every other task to create a mix of dependent and
                // independent work.
                if i % 2 == 1 {
                    if let Some(p) = prev {
                        b.add_precedence(p, id).unwrap();
                    }
                }
                prev = Some(id);
            }
            b.build().unwrap()
        })
}

/// Determinism of the parallel solver: every thread count proves the same
/// optimal makespan on every synthetic placement shape of
/// `crates/placement/src/shapes.rs`.
#[test]
fn parallel_and_serial_solver_agree_on_all_shapes() {
    for shape in ShapeKind::all() {
        let placement = synthetic_placement(shape, 4).unwrap();
        let instance = time_optimal_instance(&placement, 2).unwrap();
        let serial = Solver::new(SolverConfig::default())
            .minimize(&instance)
            .unwrap();
        assert!(
            serial.is_optimal(),
            "{shape:?} serial must prove optimality"
        );
        let serial_makespan = serial.solution().unwrap().makespan();
        for threads in [2usize, 4, 0] {
            let parallel = Solver::new(SolverConfig::default().with_threads(threads))
                .minimize(&instance)
                .unwrap();
            assert!(
                parallel.is_optimal(),
                "{shape:?} with {threads} threads must prove optimality"
            );
            let solution = parallel.solution().unwrap();
            solution.validate(&instance).unwrap();
            assert_eq!(
                solution.makespan(),
                serial_makespan,
                "{shape:?} with {threads} threads proved a different optimum"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn solver_solutions_satisfy_all_constraints(instance in instance_strategy()) {
        let outcome = Solver::new(SolverConfig::default()).minimize(&instance).unwrap();
        if let Some(solution) = outcome.solution() {
            prop_assert!(solution.validate(&instance).is_ok());
            // The makespan respects the trivial lower bound.
            let lower = tessel::solver::makespan_lower_bound(&instance);
            prop_assert!(solution.makespan() >= lower);
        }
    }

    #[test]
    fn greedy_never_beats_the_exact_solver(instance in instance_strategy()) {
        let exact = Solver::new(SolverConfig::default()).minimize(&instance).unwrap();
        if let (Some(exact_solution), Some(greedy)) = (
            exact.solution(),
            greedy_schedule(&instance, GreedyPriority::LongestTail),
        ) {
            prop_assert!(greedy.validate(&instance).is_ok());
            if exact.is_optimal() {
                prop_assert!(exact_solution.makespan() <= greedy.makespan());
            }
        }
    }

    /// Soundness of dominance pruning: disabling the memo entirely
    /// (`dominance_memo_limit = 0`) must prove the same optimum, so pruning
    /// never discards the only path to the optimal schedule.
    #[test]
    fn dominance_pruning_never_discards_the_optimum(instance in instance_strategy()) {
        let pruned = Solver::new(SolverConfig {
            dominance_memo_limit: 1 << 20,
            ..SolverConfig::default()
        })
        .minimize(&instance)
        .unwrap();
        let unpruned = Solver::new(SolverConfig {
            dominance_memo_limit: 0,
            ..SolverConfig::default()
        })
        .minimize(&instance)
        .unwrap();
        if pruned.is_optimal() && unpruned.is_optimal() {
            prop_assert_eq!(
                pruned.solution().unwrap().makespan(),
                unpruned.solution().unwrap().makespan()
            );
        }
        prop_assert_eq!(pruned.is_infeasible(), unpruned.is_infeasible());
    }

    /// The parallel root split proves the same optimum as the serial search
    /// on random instances, not just the curated shapes.
    #[test]
    fn parallel_solver_agrees_on_random_instances(instance in instance_strategy()) {
        let serial = Solver::new(SolverConfig::default()).minimize(&instance).unwrap();
        let parallel = Solver::new(SolverConfig::default().with_threads(3))
            .minimize(&instance)
            .unwrap();
        if serial.is_optimal() && parallel.is_optimal() {
            prop_assert_eq!(
                serial.solution().unwrap().makespan(),
                parallel.solution().unwrap().makespan()
            );
            prop_assert!(parallel.solution().unwrap().validate(&instance).is_ok());
        }
    }

    #[test]
    fn searched_schedules_always_validate(placement in placement_strategy()) {
        let outcome = TesselSearch::new(SearchConfig::default().with_micro_batches(6))
            .run(&placement)
            .unwrap();
        prop_assert!(outcome.schedule.validate(&placement).is_ok());
        // The repetend period is bounded by the search's own bounds.
        prop_assert!(outcome.repetend.period >= placement.repetend_lower_bound());
        prop_assert!(outcome.repetend.period <= placement.total_block_time());
    }

    #[test]
    fn schedule_extension_is_valid_for_any_micro_batch_count(
        placement in placement_strategy(),
        extra in 0usize..12,
    ) {
        let outcome = TesselSearch::new(SearchConfig::default().with_micro_batches(6))
            .run(&placement)
            .unwrap();
        let n = outcome.repetend.num_micro_batches() + extra;
        let schedule = outcome.schedule_for(&placement, n).unwrap();
        prop_assert!(schedule.validate(&placement).is_ok());
        prop_assert_eq!(schedule.num_micro_batches(), n);
    }
}
