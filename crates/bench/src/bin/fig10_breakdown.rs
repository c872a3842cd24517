//! Fig. 10: search-time breakdown across the warmup / repetend / cooldown
//! phases, and the effect of the lazy-search optimisation.

use std::time::Instant;
use tessel_bench::{
    experiment_search_config, print_subtrees_pruned, print_table, save_record, screening_cells,
    ExperimentRecord, SCREENING_HEADER,
};
use tessel_core::search::TesselSearch;
use tessel_placement::shapes::{synthetic_placement, ShapeKind};

fn main() {
    let devices = 4;
    let mut breakdown_rows = Vec::new();
    let mut lazy_rows = Vec::new();
    let mut data = Vec::new();
    let mut pruned = Vec::new();
    for (label, shape) in [
        ("GPT (M-Shape)", ShapeKind::M),
        ("mT5 (NN-Shape)", ShapeKind::NN),
        ("Flava (K-Shape)", ShapeKind::K),
    ] {
        let placement = synthetic_placement(shape, devices).expect("placement");

        let lazy_outcome = TesselSearch::new(experiment_search_config(8))
            .run(&placement)
            .expect("lazy search");
        let times = lazy_outcome.stats.phase_times;
        let total = times.total().as_secs_f64().max(1e-9);
        let mut row = vec![
            label.to_string(),
            format!("{:.0}%", times.warmup.as_secs_f64() / total * 100.0),
            format!("{:.0}%", times.repetend.as_secs_f64() / total * 100.0),
            format!("{:.0}%", times.cooldown.as_secs_f64() / total * 100.0),
        ];
        row.extend(screening_cells(&lazy_outcome.stats));
        pruned.push((label, lazy_outcome.stats.subtrees_pruned));
        breakdown_rows.push(row);

        let started = Instant::now();
        let _ = TesselSearch::new(experiment_search_config(8).with_lazy(false))
            .run(&placement)
            .expect("eager search");
        let eager_seconds = started.elapsed().as_secs_f64();
        let lazy_seconds = lazy_outcome.stats.total_time.as_secs_f64().max(1e-9);
        lazy_rows.push(vec![
            label.to_string(),
            format!("{:.3}", eager_seconds),
            format!("{:.3}", lazy_seconds),
            format!("{:.2}x", eager_seconds / lazy_seconds),
        ]);
        data.push((
            label.to_string(),
            times.warmup.as_secs_f64(),
            times.repetend.as_secs_f64(),
            times.cooldown.as_secs_f64(),
            eager_seconds,
            lazy_seconds,
        ));
    }
    print_table(
        "Fig. 10(a) — search time distribution across phases (lazy search enabled)",
        &[
            "placement",
            "warmup",
            "repetend",
            "cooldown",
            SCREENING_HEADER[0],
            SCREENING_HEADER[1],
        ],
        &breakdown_rows,
    );
    print_subtrees_pruned(&pruned);
    print_table(
        "Fig. 10(b) — lazy search ablation",
        &["placement", "w/o lazy (s)", "w/ lazy (s)", "speedup"],
        &lazy_rows,
    );
    save_record(&ExperimentRecord {
        id: "fig10".into(),
        description: "Search time breakdown and lazy-search ablation".into(),
        data,
    });
}
