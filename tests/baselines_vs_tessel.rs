//! Integration tests comparing Tessel's searched schedules against the
//! baseline schedules, mirroring the qualitative claims of the paper's
//! evaluation.

use tessel::baselines::{gpipe, one_f_one_b, one_f_one_b_plus, tensor_parallel_schedule};
use tessel::core::search::{SearchConfig, TesselSearch};
use tessel::models::config::FlavaConfig;
use tessel::models::cost::CostModel;
use tessel::placement::shapes::{flava_k_shape, synthetic_placement, ShapeKind};

#[test]
fn tessel_matches_1f1b_on_its_home_turf() {
    // On the V-shape placement the 1F1B schedule is already optimal in the
    // steady state; Tessel's searched schedule matches its bubble rate.
    let placement = synthetic_placement(ShapeKind::V, 4)
        .unwrap()
        .with_memory_capacity(Some(5));
    let n = 24;
    let tessel = TesselSearch::new(SearchConfig::default().with_micro_batches(n))
        .run(&placement)
        .unwrap();
    let f1b = one_f_one_b(&placement, n).unwrap();
    // The repetend solver optimises the repetend makespan and recovers the
    // period with a compaction pass; on the 4-device V-shape this lands on
    // the 1F1B optimum or within one time unit of it (see EXPERIMENTS.md).
    assert!(tessel.repetend.period <= placement.repetend_lower_bound() + 1);
    // The overall cost stays in the same league as the hand-written 1F1B
    // schedule: within the small per-micro-batch residual noted above plus
    // the warmup/cooldown boundary.
    let budget = f1b.makespan() + n as u64 + placement.total_block_time();
    assert!(
        tessel.schedule.makespan() <= budget,
        "Tessel {} vs budget {budget}",
        tessel.schedule.makespan()
    );
}

#[test]
fn tessel_beats_fixed_schedules_on_advanced_placements() {
    // The headline claim: on the M/NN shapes a searched schedule beats the
    // manual 1F1B+ adaptation, which in turn beats GPipe.
    for shape in [ShapeKind::M, ShapeKind::NN] {
        let placement = synthetic_placement(shape, 4).unwrap();
        let n = 16;
        let tessel = TesselSearch::new(SearchConfig::default().with_micro_batches(n))
            .run(&placement)
            .unwrap();
        let plus = one_f_one_b_plus(&placement, n).unwrap();
        assert!(
            tessel.schedule.makespan() <= plus.makespan(),
            "{shape}: Tessel {} vs 1F1B+ {}",
            tessel.schedule.makespan(),
            plus.makespan()
        );
        let gpipe_schedule = gpipe(&placement, n).unwrap();
        assert!(tessel.schedule.makespan() <= gpipe_schedule.makespan());
    }
}

#[test]
fn baseline_schedules_validate_against_their_placements() {
    let flava_inference = flava_k_shape(
        &FlavaConfig::default(),
        &CostModel::paper_default(),
        4,
        true,
    )
    .unwrap();
    let placements = ShapeKind::all()
        .into_iter()
        .map(|shape| synthetic_placement(shape, 4).unwrap())
        .chain([flava_inference]);
    for placement in placements {
        for n in 1usize..=8 {
            let plus = one_f_one_b_plus(&placement, n).unwrap();
            plus.validate(&placement).unwrap();
            // 1F1B+ runs exactly the micro-batches asked for, never its
            // repetend's NR in their place.
            assert_eq!(
                plus.num_micro_batches(),
                n,
                "{} at n = {n}",
                placement.name()
            );
            let gp = gpipe(&placement, n).unwrap();
            gp.validate(&placement).unwrap();
        }
    }
}

#[test]
fn inference_tradeoff_matches_fig15_shape() {
    // Tensor parallelism has the lowest single-request latency; Tessel's
    // K-shape schedule has the higher throughput at larger batch counts.
    let placement = flava_k_shape(
        &FlavaConfig::default(),
        &CostModel::paper_default(),
        4,
        true,
    )
    .unwrap();
    let tessel_outcome = TesselSearch::new(SearchConfig::default().with_micro_batches(16))
        .run(&placement)
        .unwrap();
    let (_, tp16) = tensor_parallel_schedule(&placement, 16).unwrap();
    let tessel16 = tessel_outcome.schedule_for(&placement, 16).unwrap();
    assert!(
        tessel16.makespan() < tp16.makespan(),
        "pipelined K-shape should finish 16 requests sooner than serialised tensor parallelism"
    );
    // Single request: tensor parallelism is at least as fast as running the
    // whole micro-batch through the pipeline sequentially.
    let (_, tp1) = tensor_parallel_schedule(&placement, 1).unwrap();
    assert!(tp1.makespan() <= placement.total_block_time());
}

#[test]
fn one_f_one_b_memory_cap_matches_pipeline_depth() {
    let placement = synthetic_placement(ShapeKind::V, 4).unwrap();
    let schedule = one_f_one_b(&placement, 16).unwrap();
    let peaks = schedule.peak_memory();
    // The first stage holds at most D = 4 in-flight micro-batches.
    assert!(peaks[0] <= 4);
}
