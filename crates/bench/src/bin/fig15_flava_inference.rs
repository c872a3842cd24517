//! Fig. 15: Flava inference latency and throughput versus the number of
//! micro-batches, comparing Tessel's K-shape schedule against 1F1B+ and pure
//! tensor parallelism on 4 GPUs. The 400 ms latency budget of the paper is
//! marked in the output.
//!
//! The 1F1B+ column runs the fixed 1F1B+ pattern on the K-shape placement
//! itself, not the paper's 1F1B, which runs the branches sequentially on a
//! conventional pipeline.

use tessel_baselines::{one_f_one_b_plus, tensor_parallel_schedule};
use tessel_bench::{
    cluster_for, print_table, run_tessel, save_record, simulate_schedule, ExperimentRecord,
};
use tessel_core::ir::PlacementSpec;
use tessel_models::config::FlavaConfig;
use tessel_models::cost::CostModel;
use tessel_placement::shapes::flava_k_shape;
use tessel_runtime::CommMode;

const LATENCY_BUDGET_MS: f64 = 400.0;

fn latency_throughput(
    placement: &PlacementSpec,
    schedule: &tessel_core::Schedule,
    gpus: usize,
) -> Option<(f64, f64)> {
    let report = simulate_schedule(placement, schedule, gpus, CommMode::NonBlocking).ok()?;
    let cluster = cluster_for(placement, gpus);
    let latency_ms = report.iteration_seconds(&cluster) * 1e3;
    let throughput = report.requests_per_second(&cluster);
    Some((latency_ms, throughput))
}

fn main() {
    let gpus = 4;
    let cost = CostModel::paper_default();
    let config = FlavaConfig::default();
    let k_shape = flava_k_shape(&config, &cost, gpus, true).expect("K-shape inference placement");
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let tessel = run_tessel(&k_shape, n)
            .ok()
            .and_then(|o| latency_throughput(&k_shape, &o.schedule, gpus));
        let plus = one_f_one_b_plus(&k_shape, n)
            .ok()
            .and_then(|s| latency_throughput(&k_shape, &s, gpus));
        let tp = tensor_parallel_schedule(&k_shape, n)
            .ok()
            .and_then(|(tp_placement, s)| latency_throughput(&tp_placement, &s, gpus));

        let fmt = |x: Option<(f64, f64)>| match x {
            Some((latency, throughput)) => {
                let marker = if latency <= LATENCY_BUDGET_MS {
                    ""
                } else {
                    " !"
                };
                format!("{latency:.0}ms / {throughput:.1} req/s{marker}")
            }
            None => "x".to_string(),
        };
        rows.push(vec![n.to_string(), fmt(tessel), fmt(plus), fmt(tp)]);
        data.push((n, tessel, plus, tp));
    }
    print_table(
        &format!(
            "Fig. 15 — Flava inference on {gpus} GPUs (latency / throughput; '!' marks > {LATENCY_BUDGET_MS} ms budget)"
        ),
        &["micro-batches", "Tessel (K-Shape)", "1F1B+", "Tensor Parallelism"],
        &rows,
    );
    save_record(&ExperimentRecord {
        id: "fig15".into(),
        description: "Flava inference latency and throughput vs micro-batches".into(),
        data,
    });
}
