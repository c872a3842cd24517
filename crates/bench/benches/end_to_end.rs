//! Criterion bench backing Figs. 13–17: baseline schedule generation, the
//! cluster simulator and the full search-plus-simulate pipeline on the
//! model-driven placements — plus `json_codec`, the daemon's wire codec on
//! its own (the `json.*` rows of the benchmark's ledger, per shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tessel_baselines::{one_f_one_b, one_f_one_b_plus};
use tessel_bench::{run_tessel, simulate_schedule, EvalModel};
use tessel_placement::{synthetic_placement, ShapeKind};
use tessel_runtime::CommMode;
use tessel_service::wire::SearchRequest;
use tessel_service::{ScheduleService, ServiceConfig};

fn bench_baseline_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_baseline_schedules");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    let placement = EvalModel::Gpt.baseline_placement(4).expect("placement");
    group.bench_function("1f1b_gpt_4gpu", |b| {
        b.iter(|| one_f_one_b(&placement, 8).expect("schedule"));
    });
    let advanced = EvalModel::Gpt.advanced_placement(4).expect("placement");
    group.bench_function("1f1b_plus_gpt_4gpu", |b| {
        b.iter(|| one_f_one_b_plus(&advanced, 8).expect("schedule"));
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_simulator");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for model in [EvalModel::Gpt, EvalModel::Mt5] {
        let placement = model.advanced_placement(4).expect("placement");
        let outcome = run_tessel(&placement, 8).expect("search");
        group.bench_with_input(
            BenchmarkId::from_parameter(model.name()),
            &(placement, outcome.schedule),
            |b, (placement, schedule)| {
                b.iter(|| {
                    simulate_schedule(placement, schedule, 4, CommMode::NonBlocking)
                        .expect("simulate")
                });
            },
        );
    }
    group.finish();
}

fn bench_blocking_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig17_comm_modes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    let placement = EvalModel::Gpt.advanced_placement(4).expect("placement");
    let outcome = run_tessel(&placement, 8).expect("search");
    for (name, mode) in [
        ("blocking", CommMode::Blocking),
        ("non_blocking", CommMode::NonBlocking),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            b.iter(|| simulate_schedule(&placement, &outcome.schedule, 4, mode).expect("simulate"));
        });
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15_inference_search");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    let placement = EvalModel::Flava.advanced_placement(4).expect("placement");
    group.bench_function("tessel_flava_search", |b| {
        b.iter(|| run_tessel(&placement, 8).expect("search"));
    });
    group.finish();
}

/// Encoding a `/v1/search` response and decoding its request, for each
/// built-in 4-device shape at the service's default parameters. The typed
/// call is what the daemon makes per request; bytes per second are printed
/// once the group has run.
fn bench_json_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("json_codec");
    group.sample_size(2000);
    group.measurement_time(std::time::Duration::from_secs(2));
    let service = ScheduleService::new(ServiceConfig::default()).expect("service");
    let mut sizes = Vec::new();
    for kind in ShapeKind::all() {
        let placement = synthetic_placement(kind, 4).expect("placement");
        let request = SearchRequest::for_placement(placement);
        let response = service.search(&request).expect("search");
        let request_text = serde_json::to_string(&request).expect("encode");
        let response_text = serde_json::to_string(&response).expect("encode");
        let name = format!("{kind:?}").to_lowercase();
        group.bench_function(BenchmarkId::new("encode_response", &name), |b| {
            b.iter(|| serde_json::to_string(&response).expect("encode"));
        });
        group.bench_function(BenchmarkId::new("decode_request", &name), |b| {
            b.iter(|| serde_json::from_str::<SearchRequest>(&request_text).expect("decode"));
        });
        sizes.push((
            format!("json_codec/encode_response/{name}"),
            response_text.len(),
        ));
        sizes.push((
            format!("json_codec/decode_request/{name}"),
            request_text.len(),
        ));
    }
    group.finish();
    for measurement in criterion::take_measurements() {
        if let Some((_, bytes)) = sizes.iter().find(|(id, _)| *id == measurement.id) {
            println!(
                "{}  {bytes} B  {:.0} MB/s",
                measurement.id,
                *bytes as f64 * 1e3 / measurement.mean_ns
            );
        }
    }
}

criterion_group!(
    benches,
    bench_json_codec,
    bench_baseline_schedules,
    bench_simulator,
    bench_blocking_modes,
    bench_inference
);
criterion_main!(benches);
