//! Fig. 9: search cost of the time-optimal formulation (TO) with a small
//! number of micro-batches, normalised by the Tessel search time, for the
//! three evaluation placements.

use std::time::{Duration, Instant};
use tessel_bench::{
    print_subtrees_pruned, print_table, run_tessel, save_record, screening_cells,
    time_optimal_instance, ExperimentRecord, SCREENING_HEADER,
};
use tessel_placement::shapes::{synthetic_placement, ShapeKind};
use tessel_solver::{Solver, SolverConfig};

fn to_search_seconds(placement: &tessel_core::PlacementSpec, micro_batches: usize) -> (f64, bool) {
    let instance = time_optimal_instance(placement, micro_batches).expect("instance");
    let mut config = SolverConfig::exhaustive();
    config.time_limit = Some(Duration::from_secs(20));
    config.max_nodes = 20_000_000;
    let solver = Solver::new(config);
    let started = Instant::now();
    let outcome = solver.minimize(&instance).expect("solve");
    (started.elapsed().as_secs_f64(), outcome.is_optimal())
}

fn main() {
    let devices = 4;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    let mut pruned = Vec::new();
    for (label, shape) in [
        ("GPT (M-Shape)", ShapeKind::M),
        ("mT5 (NN-Shape)", ShapeKind::NN),
        ("Flava (K-Shape)", ShapeKind::K),
    ] {
        let placement = synthetic_placement(shape, devices).expect("placement");
        let started = Instant::now();
        let stats = run_tessel(&placement, 8).expect("tessel search").stats;
        let tessel_seconds = started.elapsed().as_secs_f64().max(1e-4);

        let mut row = vec![label.to_string(), format!("{tessel_seconds:.3}")];
        row.extend(screening_cells(&stats));
        pruned.push((label, stats.subtrees_pruned));
        let mut series = vec![];
        for nmb in [2usize, 4, 6] {
            let (to_seconds, optimal) = to_search_seconds(&placement, nmb);
            let ratio = to_seconds / tessel_seconds;
            row.push(if optimal {
                format!("{ratio:.1}x")
            } else {
                format!(">{ratio:.1}x (limit)")
            });
            series.push((nmb, ratio, optimal));
        }
        rows.push(row);
        data.push((label.to_string(), tessel_seconds, series));
    }
    print_table(
        "Fig. 9 — time-optimal search cost normalised by Tessel search time (training)",
        &[
            "placement",
            "Tessel (s)",
            SCREENING_HEADER[0],
            SCREENING_HEADER[1],
            "TO nmb=2",
            "TO nmb=4",
            "TO nmb=6",
        ],
        &rows,
    );
    print_subtrees_pruned(&pruned);
    save_record(&ExperimentRecord {
        id: "fig09".into(),
        description: "Relative search cost of the time-optimal formulation vs Tessel".into(),
        data,
    });
}
