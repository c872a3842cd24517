//! The serial search tree is pinned, counter for counter.
//!
//! The serial branch-and-bound is deterministic: for a given instance it
//! expands the same nodes, prunes the same ones for the same reason and meets
//! the same incumbents, whatever the machine. `tests/golden/solver_counters.json`
//! records `(makespan, nodes, pruned_bound, pruned_dominance, incumbents)` for
//! some fifteen small and mid-size solves; a change to the engine that claims to keep the
//! tree — a faster bound, another memo layout — must reproduce every number.
//! The golden file is written by the code *before* such a change (run
//! `cargo test --test solver_counters -- --ignored` at the parent commit) and
//! only compared against afterwards.

use tessel::core::ir::PlacementSpec;
use tessel::core::repetend::{build_repetend_instance, candidate_iter};
use tessel::placement::shapes::{synthetic_placement, ShapeKind};
use tessel::solver::{Instance, SolveOutcome, Solver, SolverConfig};
use tessel_bench::time_optimal_instance;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/solver_counters.json"
);

/// Serial and unlimited, whatever `TESSEL_TEST_THREADS` says.
fn solver() -> Solver {
    Solver::new(SolverConfig::exhaustive().with_threads(1))
}

fn row(name: &str, outcome: &SolveOutcome) -> String {
    let stats = outcome.stats();
    assert!(stats.complete, "{name} did not run to completion");
    assert_eq!(stats.memo_drops, 0, "{name} filled its memo");
    let makespan = outcome
        .solution()
        .map_or("null".to_string(), |s| s.makespan().to_string());
    format!(
        "  \"{name}\": {{\"makespan\": {makespan}, \"nodes\": {}, \"pruned_bound\": {}, \
         \"pruned_dominance\": {}, \"incumbents\": {}}}",
        stats.nodes, stats.pruned_bound, stats.pruned_dominance, stats.incumbents
    )
}

/// The `index`-th repetend candidate over `nr` micro-batches, as a solver
/// instance: one task per block, so an 8- or 16-device placement gives the
/// finish vectors that span two or three memo lines.
fn repetend_instance(placement: &PlacementSpec, nr: usize, index: usize) -> Instance {
    let candidate = candidate_iter(placement, nr)
        .nth(index)
        .expect("candidate index in range");
    build_repetend_instance(placement, &candidate).expect("repetend instance")
}

/// Every pinned solve, rendered as the golden file's text.
fn render() -> String {
    let mut rows = Vec::new();
    for (shape, kind, micro_batches, cap) in [
        ("V4", ShapeKind::V, 3, 2),
        ("V4", ShapeKind::V, 4, 3),
        ("M4", ShapeKind::M, 3, 4),
        ("X4", ShapeKind::X, 2, 3),
        ("K4", ShapeKind::K, 3, 3),
    ] {
        let placement = synthetic_placement(kind, 4).expect("placement");
        let free = time_optimal_instance(&placement, micro_batches).expect("instance");
        let outcome = solver().minimize(&free).expect("solve");
        rows.push(row(&format!("{shape}/mb{micro_batches}"), &outcome));
        let capped = placement.with_memory_capacity(Some(cap));
        let capped = time_optimal_instance(&capped, micro_batches).expect("instance");
        let outcome = solver().minimize(&capped).expect("solve");
        rows.push(row(
            &format!("{shape}/mb{micro_batches}/cap{cap}"),
            &outcome,
        ));
        if (shape, micro_batches) == ("V4", 4) {
            // A bounded solve at the optimum proves there is nothing below
            // it; one above, it has to find the optimum again.
            let optimum = outcome
                .solution()
                .expect("capped V4 is feasible")
                .makespan();
            for upper in [optimum, optimum + 1] {
                let outcome = solver().minimize_below(&capped, upper).expect("solve");
                let expected = (upper > optimum).then_some(optimum);
                assert_eq!(outcome.solution().map(|s| s.makespan()), expected);
                rows.push(row(
                    &format!(
                        "{shape}/mb{micro_batches}/cap{cap}/below{}",
                        upper - optimum
                    ),
                    &outcome,
                ));
            }
        }
    }
    for (shape, kind, devices, nr, index) in [
        ("X8", ShapeKind::X, 8, 2, 163),
        ("K16", ShapeKind::K, 16, 2, 81),
        ("X16", ShapeKind::X, 16, 2, 583),
    ] {
        let placement = synthetic_placement(kind, devices).expect("placement");
        let instance = repetend_instance(&placement, nr, index);
        assert_eq!(instance.num_devices(), devices);
        let outcome = solver().minimize(&instance).expect("solve");
        rows.push(row(&format!("{shape}/nr{nr}/candidate{index}"), &outcome));
    }
    // The one solve here that takes a debug build a second or two: 765,716
    // nodes, the count `BENCH_search.json` carries for it as well.
    let placement = synthetic_placement(ShapeKind::V, 4).expect("placement");
    let instance = time_optimal_instance(&placement, 5).expect("instance");
    rows.push(row("V4/mb5", &solver().minimize(&instance).expect("solve")));
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[test]
fn serial_search_trees_match_the_golden_counters() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/solver_counters.json");
    let actual = render();
    assert_eq!(
        actual, golden,
        "the serial search tree changed; if that is the point of the change, say so and \
         re-record with `cargo test --test solver_counters -- --ignored`"
    );
}

/// Writes the golden file from the code as it stands.
#[test]
#[ignore = "re-records the golden file; run it at the parent commit of an engine change"]
fn record_golden_counters() {
    std::fs::write(GOLDEN, render()).expect("write golden file");
}
