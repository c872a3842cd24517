//! Integration tests spanning the full pipeline: model cost model →
//! placement → Tessel search → runtime instantiation → cluster simulation.

use tessel::core::search::{SearchConfig, TesselSearch};
use tessel::models::config::{gpt_config_for_gpus, mt5_config_for_gpus, FlavaConfig};
use tessel::models::cost::CostModel;
use tessel::placement::shapes::{
    flava_k_shape, gpt_m_shape, mt5_nn_shape, synthetic_placement, ShapeKind,
};
use tessel::runtime::{instantiate, simulate, ClusterSpec, CommMode};

fn search(placement: &tessel::core::PlacementSpec, n: usize) -> tessel::core::SearchOutcome {
    TesselSearch::new(SearchConfig::default().with_micro_batches(n))
        .run(placement)
        .expect("search succeeds")
}

#[test]
fn gpt_m_shape_end_to_end() {
    let config = gpt_config_for_gpus(4).unwrap();
    let placement = gpt_m_shape(&config, &CostModel::paper_default(), 4).unwrap();
    let outcome = search(&placement, 8);
    outcome.schedule.validate(&placement).unwrap();

    let cluster = ClusterSpec::v100_cluster(placement.num_devices());
    let program = instantiate(&placement, &outcome.schedule, CommMode::NonBlocking).unwrap();
    let report = simulate(&program, &cluster, CommMode::NonBlocking).unwrap();
    // The simulator replays the per-device *order* of the schedule: it may
    // close idle gaps the composed schedule left at phase boundaries and it
    // adds communication time, so the simulated makespan stays within a
    // modest factor of the schedule's makespan in both directions.
    assert!(report.makespan >= outcome.schedule.makespan() / 2);
    assert!(report.makespan < outcome.schedule.makespan() * 2);
    assert!(report.pflops(&cluster) > 0.0);
    // Peak activation memory respects the placement budget.
    let cap = placement.memory_capacity().unwrap();
    assert!(report.peak_memory.iter().all(|&m| m <= cap));
}

#[test]
fn mt5_nn_shape_end_to_end() {
    let config = mt5_config_for_gpus(4).unwrap();
    let placement = mt5_nn_shape(&config, &CostModel::paper_default(), 4).unwrap();
    let outcome = search(&placement, 6);
    outcome.schedule.validate(&placement).unwrap();
    // The steady state beats the trivially sequential repetend.
    assert!(outcome.repetend.period < placement.total_block_time());
}

#[test]
fn flava_k_shape_inference_end_to_end() {
    let placement = flava_k_shape(
        &FlavaConfig::default(),
        &CostModel::paper_default(),
        4,
        true,
    )
    .unwrap();
    let outcome = search(&placement, 8);
    outcome.schedule.validate(&placement).unwrap();
    // Inference placements are forward-only.
    assert!(outcome
        .schedule
        .blocks()
        .iter()
        .all(|b| b.kind.is_forward()));
    // The two branches overlap: the repetend period is below the sum of all
    // block times.
    assert!(outcome.repetend.period < placement.total_block_time());
}

#[test]
fn every_synthetic_shape_is_searchable_and_extendable() {
    for shape in ShapeKind::all() {
        let placement = synthetic_placement(shape, 4).unwrap();
        // The X-shape has two independent 8-block chains and therefore a very
        // large candidate space; cap the enumeration to keep the test fast
        // (quality is not asserted here, only validity).
        let mut config = SearchConfig::default().with_micro_batches(8);
        config.candidate_limit = Some(400);
        let outcome = TesselSearch::new(config)
            .run(&placement)
            .expect("search succeeds");
        outcome.schedule.validate(&placement).unwrap();
        for n in [8usize, 12, 20] {
            let schedule = outcome.schedule_for(&placement, n).unwrap();
            schedule.validate(&placement).unwrap();
            assert_eq!(schedule.num_micro_batches(), n);
        }
        // More micro-batches never increase the per-micro-batch cost in the
        // steady state: the marginal cost of one more micro-batch is exactly
        // one repetend period.
        let s12 = outcome.schedule_for(&placement, 12).unwrap();
        let s13 = outcome.schedule_for(&placement, 13).unwrap();
        assert_eq!(s13.makespan() - s12.makespan(), outcome.repetend.period);
    }
}

#[test]
fn memory_constrained_search_degrades_gracefully() {
    let placement = synthetic_placement(ShapeKind::V, 4).unwrap();
    let mut previous_period = None;
    for capacity in [1i64, 2, 4, 8] {
        let constrained = placement.with_memory_capacity(Some(capacity));
        let outcome = search(&constrained, 8);
        outcome.schedule.validate(&constrained).unwrap();
        if let Some(prev) = previous_period {
            assert!(
                outcome.repetend.period <= prev,
                "period should not grow with more memory"
            );
        }
        previous_period = Some(outcome.repetend.period);
    }
}

/// `tests/golden/search_stats.json`: what the serial search does on six small
/// placements, lazy and eager — every host-independent counter of
/// `SearchStats`, the winner and the composed makespan. Written by the code
/// *before* a change to the candidate loop (`cargo test --test
/// search_end_to_end -- --ignored` at the parent commit) and only compared
/// against afterwards.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/search_stats.json"
);

/// The five 4-device synthetic shapes plus a V whose memory cap keeps the
/// search from reaching the zero-bubble bound, each lazy and eager.
fn pinned_cases() -> Vec<(String, tessel::core::PlacementSpec, SearchConfig)> {
    let mut placements: Vec<(String, tessel::core::PlacementSpec)> = ShapeKind::all()
        .into_iter()
        .map(|shape| (format!("{shape}"), synthetic_placement(shape, 4).unwrap()))
        .collect();
    let capped = synthetic_placement(ShapeKind::V, 4)
        .unwrap()
        .with_memory_capacity(Some(2));
    placements.push(("V-Shape/cap2".to_string(), capped));
    let mut cases = Vec::new();
    for (name, placement) in placements {
        for lazy in [true, false] {
            // Every thread count explicit, so `TESSEL_TEST_THREADS` cannot
            // change which of several equally short schedules a solve
            // returns. The candidate limit dates from when the X-shape's
            // two independent chains took seconds in a debug build; it stays
            // so the limited path is pinned too (it binds on M and NN).
            let mut config = SearchConfig::default()
                .with_micro_batches(8)
                .with_lazy(lazy)
                .with_portfolio_threads(1)
                .with_solver_threads(1);
            config.candidate_limit = Some(400);
            let mode = if lazy { "lazy" } else { "eager" };
            cases.push((format!("{name}/{mode}"), placement.clone(), config));
        }
    }
    cases
}

/// One golden row.
fn stats_row(name: &str, outcome: &tessel::core::SearchOutcome) -> String {
    let stats = &outcome.stats;
    format!(
        "  \"{name}\": {{\"considered\": {}, \"screened\": {}, \"solves\": {}, \"probes\": {}, \
         \"improving\": {}, \"chosen_nr\": {}, \"early_exit\": {}, \"period\": {}, \
         \"indices\": {:?}, \"makespan\": {}, \"nodes\": {}}}",
        stats.candidates_considered,
        stats.candidates_screened,
        stats.repetend_solves,
        stats.feasibility_probes,
        stats.improving_repetends,
        stats.chosen_nr,
        stats.early_exit,
        outcome.repetend.period,
        outcome.repetend.candidate.indices,
        outcome.schedule.makespan(),
        stats.solver.nodes
    )
}

fn render_search_stats() -> String {
    let rows: Vec<String> = pinned_cases()
        .iter()
        .map(|(name, placement, config)| {
            let outcome = TesselSearch::new(config.clone())
                .run(placement)
                .expect("search succeeds");
            outcome.schedule.validate(placement).unwrap();
            stats_row(name, &outcome)
        })
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Every thread count is explicit and no lazy probe here reaches the solver
/// (the uncapped placements' are answered by proof, the capped V's by a list
/// schedule), so `TESSEL_TEST_THREADS` moves no column, `nodes` included.
#[test]
fn serial_search_matches_the_golden_stats() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/search_stats.json");
    assert_eq!(
        render_search_stats(),
        golden,
        "the serial candidate loop changed"
    );
}

/// More portfolio workers change which candidates get solved, never the
/// period the search proves. Under the candidate limit that needs a margin:
/// the limit counts enumeration work, and a worker that pulls before another
/// has published its improvement spends more of it on the same stretch. The
/// pinned cases have one — serially M/NN reach period 7 at any limit from 150
/// to 800 and X reaches 6 at any limit from 100 up; the limit is 400.
#[test]
fn portfolio_widths_reach_the_golden_period() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/search_stats.json");
    for (name, placement, config) in pinned_cases() {
        let row = golden
            .lines()
            .find(|line| line.contains(&format!("\"{name}\"")))
            .unwrap_or_else(|| panic!("no golden row for {name}"));
        for threads in [2usize, 4] {
            let outcome = TesselSearch::new(config.clone().with_portfolio_threads(threads))
                .run(&placement)
                .expect("search succeeds");
            outcome.schedule.validate(&placement).unwrap();
            let stats = &outcome.stats;
            assert!(
                row.contains(&format!("\"period\": {},", outcome.repetend.period)),
                "{name} at {threads} workers: period {} not in {row}",
                outcome.repetend.period
            );
            assert_eq!(
                stats.candidates_considered,
                stats.candidates_screened + stats.repetend_solves,
                "{name} at {threads} workers"
            );
        }
    }
}

/// Writes the golden file from the code as it stands.
#[test]
#[ignore = "re-records the golden file; run it at the parent commit of a search change"]
fn record_golden_search_stats() {
    std::fs::write(GOLDEN, render_search_stats()).expect("write golden file");
}
