//! Criterion bench backing Fig. 3: cost of the time-optimal (whole-schedule)
//! solve as the number of micro-batches grows on the V-shape placement, and
//! what the solver charges per node and per solve (`per_node`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use tessel_bench::time_optimal_instance;
use tessel_placement::shapes::{synthetic_placement, ShapeKind};
use tessel_solver::{Solver, SolverConfig};

fn bench_time_optimal(c: &mut Criterion) {
    let placement = synthetic_placement(ShapeKind::V, 4).expect("placement");
    let mut group = c.benchmark_group("fig03_time_optimal_search");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for micro_batches in [1usize, 2, 3, 4] {
        let instance = time_optimal_instance(&placement, micro_batches).expect("instance");
        group.bench_with_input(
            BenchmarkId::from_parameter(micro_batches),
            &instance,
            |b, instance| {
                b.iter(|| {
                    Solver::new(SolverConfig::default())
                        .minimize(instance)
                        .expect("solve")
                });
            },
        );
    }
    group.finish();
}

fn bench_repetend_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("repetend_solve");
    group.sample_size(20);
    for shape in [ShapeKind::V, ShapeKind::M, ShapeKind::NN] {
        let placement = synthetic_placement(shape, 4).expect("placement");
        let candidates = tessel_core::repetend::enumerate_candidates(&placement, 2);
        let candidate = candidates.into_iter().next().expect("candidate");
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.to_string()),
            &(placement, candidate),
            |b, (placement, candidate)| {
                b.iter(|| {
                    tessel_core::repetend::solve_repetend(
                        placement,
                        candidate,
                        &Solver::new(SolverConfig::default()),
                        u64::MAX,
                    )
                    .expect("solve")
                });
            },
        );
    }
    group.finish();
}

/// Benchmarks the current solver against the seed (allocation-heavy)
/// implementation and the 4-thread root split on the same instance.
fn bench_engines(c: &mut Criterion) {
    let placement = synthetic_placement(ShapeKind::V, 4).expect("placement");
    let instance = time_optimal_instance(&placement, 3).expect("instance");
    let mut group = c.benchmark_group("solver_engines");
    group.sample_size(10);
    group.bench_function("seed_alloc_heavy", |b| {
        b.iter(|| {
            tessel_bench::legacy_solver::legacy_minimize(
                &instance,
                u64::MAX,
                None,
                SolverConfig::exhaustive().dominance_memo_limit,
            )
        });
    });
    group.bench_function("current_1t", |b| {
        b.iter(|| {
            Solver::new(SolverConfig::exhaustive())
                .minimize(&instance)
                .expect("solve")
        });
    });
    group.bench_function("current_4t", |b| {
        b.iter(|| {
            Solver::new(SolverConfig::exhaustive().with_threads(4))
                .minimize(&instance)
                .expect("solve")
        });
    });
    group.finish();
}

/// One row of the `per_node` group: what is solved per iteration and what
/// the iteration's time is divided by.
struct PerNodeCase {
    name: String,
    instances: Vec<tessel_solver::Instance>,
    unit: &'static str,
    /// Nodes expanded per iteration (`ns/node`), or solves (`us/solve`).
    count: u64,
}

/// The four benchmark anchors one micro-batch down, so the group runs in
/// seconds, and the fixed cost of a solve: every repetend instance of the
/// 4-device X-shape up to NR 3 that the greedy seeds settle without a node.
fn per_node_cases() -> Vec<PerNodeCase> {
    let solver = Solver::new(SolverConfig::exhaustive().with_threads(1));
    let nodes = |instance: &tessel_solver::Instance| {
        solver.minimize(instance).expect("solve").stats().nodes
    };
    let mut cases: Vec<PerNodeCase> = [
        ("V4", ShapeKind::V, 5usize),
        ("M4", ShapeKind::M, 4),
        ("X4", ShapeKind::X, 2),
        ("K4", ShapeKind::K, 3),
    ]
    .into_iter()
    .map(|(name, shape, micro_batches)| {
        let placement = synthetic_placement(shape, 4).expect("placement");
        let instance = time_optimal_instance(&placement, micro_batches).expect("instance");
        PerNodeCase {
            name: format!("{name}/mb{micro_batches}"),
            unit: "ns/node",
            count: nodes(&instance),
            instances: vec![instance],
        }
    })
    .collect();
    let placement = synthetic_placement(ShapeKind::X, 4).expect("placement");
    let zero_node: Vec<_> = (1..=3)
        .flat_map(|nr| tessel_core::repetend::candidate_iter(&placement, nr))
        .map(|candidate| {
            tessel_core::repetend::build_repetend_instance(&placement, &candidate)
                .expect("instance")
        })
        .filter(|instance| nodes(instance) == 0)
        .collect();
    cases.push(PerNodeCase {
        name: "X4/zero_node_repetends".into(),
        unit: "us/solve",
        count: zero_node.len() as u64,
        instances: zero_node,
    });
    cases
}

/// What a branch-and-bound node costs, and what a solve costs before its
/// first node (serial, so the counts divide exactly).
fn bench_per_node(c: &mut Criterion) {
    let solver = Solver::new(SolverConfig::exhaustive().with_threads(1));
    let mut group = c.benchmark_group("per_node");
    group.sample_size(20);
    for case in per_node_cases() {
        group.bench_function(&case.name, |b| {
            b.iter(|| {
                for instance in &case.instances {
                    criterion::black_box(solver.minimize(instance).expect("solve"));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_time_optimal,
    bench_repetend_solve,
    bench_engines,
    bench_per_node
);

// Instead of `criterion_main!`, run the groups and track the measurements in
// BENCH_search.json alongside the authoritative before/after rows.
fn main() {
    benches();
    let measured = tessel_bench::report::criterion_rows();
    // The `per_node` rows once more, divided by what an iteration did:
    // `(row, unit, nodes or solves per iteration, value)`.
    let per_node: Vec<(String, &str, u64, f64)> = per_node_cases()
        .into_iter()
        .filter_map(|case| {
            let (_, seconds) = measured
                .iter()
                .find(|(id, _)| *id == format!("per_node/{}", case.name))?;
            let scale = if case.unit == "ns/node" { 1e9 } else { 1e6 };
            let value = seconds * scale / case.count as f64;
            println!("per_node {:<26} {value:>8.1} {}", case.name, case.unit);
            Some((case.name, case.unit, case.count, value))
        })
        .collect();
    tessel_bench::report::write_section("solver_per_node", &per_node);
    tessel_bench::report::write_section("criterion_solver_scaling", &measured);
    tessel_bench::report::write_section(
        "solver_scaling",
        &tessel_bench::report::solver_scaling_rows(),
    );
}
