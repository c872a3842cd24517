//! Machine-readable performance tracking: `BENCH_search.json`.
//!
//! The daemon's behaviour under load is tracked in a single JSON file at the
//! repository root, written in one piece by the `bench_service` binary
//! ([`emit_service`]). Its keys:
//!
//! * `host` — the host's parallelism and the commit the run measured;
//! * `admission_overload`, `anytime_streaming`, `observability_overhead` —
//!   the daemon under sustained overload, the time to the first streamed
//!   incumbent and the cost of the live-plane sampler.
//!
//! Request throughput, per-stage latency and the solver's node counts are
//! not recorded here: the benchmark package's workloads (`serve_hit`,
//! `serve_miss`, `solve_exact`, `solve_parallel`, …) measure them with
//! segments, medians and spread.

use serde::Serialize;
use std::time::Instant;
use tessel_placement::shapes::{synthetic_placement, ShapeKind};

/// Path of the tracked JSON file.
///
/// Anchored to the workspace root at compile time: the emitter may start in
/// an arbitrary working directory, so a bare relative path would scatter
/// copies of the file.
fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_search.json")
}

/// One row of the `admission_overload` section: the daemon under sustained
/// overload (one worker, a tiny queue, more clients than slots), shedding the
/// least valuable waiting request.
///
/// The headline column is `valuable_goodput_per_sec`: completed
/// high-priority requests per second — the traffic the operator actually
/// cares about under overload. (The blind tail-drop baseline this was once
/// compared against, `reject-newest`, recorded 30/s here against 1,231/s and
/// was retired with its code path.)
#[derive(Debug, Clone, Serialize)]
pub struct AdmissionOverloadRow {
    /// Shed policy the daemon ran with (always `least-valuable`; the column
    /// keeps rows comparable with earlier snapshots).
    pub policy: String,
    /// Client requests issued (all classes).
    pub requests: u64,
    /// Requests answered `200`.
    pub completed: u64,
    /// High-priority (zipf-distributed search) requests issued.
    pub valuable_requests: u64,
    /// High-priority requests answered `200`.
    pub valuable_completed: u64,
    /// Requests shed (`429`) or refused while shutting down (`503`).
    pub shed_or_rejected: u64,
    /// Requests that ran past their deadline (`408`).
    pub timeouts: u64,
    /// Wall-clock seconds of the measured window.
    pub seconds: f64,
    /// Completed requests per second, all classes.
    pub goodput_per_sec: f64,
    /// Completed high-priority requests per second.
    pub valuable_goodput_per_sec: f64,
    /// `shed_or_rejected / requests`.
    pub shed_rate: f64,
    /// Median admission-queue wait (histogram bucket bound, ms).
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile admission-queue wait (bucket bound, ms).
    pub queue_wait_p99_ms: f64,
}

/// A deterministic xorshift64 step (the bench must not depend on external
/// PRNG crates or wall-clock seeding).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Samples a zipf-ish rank in `0..n`: rank `r` has weight `1/(r+1)`.
fn zipf_rank(state: &mut u64, n: usize) -> usize {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
    for (rank, w) in weights.iter().enumerate() {
        if u < *w {
            return rank;
        }
        u -= w;
    }
    n - 1
}

/// Reads the `le`-bucket cumulative counts of a Prometheus histogram out of
/// `/metrics` text and returns the smallest bucket bound (in ms) whose
/// cumulative count reaches quantile `q`.
fn histogram_quantile_ms(metrics: &str, name: &str, q: f64) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let Some((bound, count)) = rest.split_once("\"} ") else {
                continue;
            };
            let bound = if bound == "+Inf" {
                f64::INFINITY
            } else {
                bound.parse().unwrap_or(f64::INFINITY)
            };
            if let Ok(count) = count.trim().parse::<u64>() {
                buckets.push((bound, count));
            }
        }
    }
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    let need = (q * total as f64).ceil() as u64;
    for (bound, count) in buckets {
        if count >= need.max(1) {
            return bound * 1e3;
        }
    }
    0.0
}

/// Measures goodput under sustained overload: one
/// worker and a 2-deep queue, hammered by background spam (hopeless
/// 8-device X-shape searches bounded to 150 ms by their deadline, priority
/// 0) and by high-priority zipf-distributed searches over the 4-device
/// synthetic shapes (every other repeat device-rotated, so the tail mixes
/// canonical-fingerprint hits with cold solves).
#[must_use]
pub fn admission_overload_rows(window: std::time::Duration) -> Vec<AdmissionOverloadRow> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use tessel_service::http::http_call;
    use tessel_service::wire::SearchRequest;
    use tessel_service::{HttpClient, HttpServer, ScheduleService, ServerConfig, ServiceConfig};

    const SPAM_THREADS: usize = 6;
    const VALUABLE_THREADS: usize = 4;

    // The zipf catalog: 4-device synthetic shapes at several micro-batch
    // counts. Rank 0 is the hot entry; deep ranks are cold solves.
    let catalog: Vec<String> = {
        let mut bodies = Vec::new();
        for mb in [8usize, 6, 7] {
            for shape in [ShapeKind::V, ShapeKind::M, ShapeKind::NN, ShapeKind::K] {
                let placement = synthetic_placement(shape, 4).expect("placement");
                for rotated in [false, true] {
                    let variant = if rotated {
                        let rotation: Vec<usize> = (0..4).map(|d| (d + 1) % 4).collect();
                        let order: Vec<usize> = (0..placement.num_blocks()).collect();
                        placement.permuted(&rotation, &order).expect("permutation")
                    } else {
                        placement.clone()
                    };
                    let mut request = SearchRequest::for_placement(variant);
                    request.num_micro_batches = Some(mb);
                    request.max_repetend_micro_batches = Some(3);
                    request.priority = Some(5);
                    request.deadline_ms = Some(2_000);
                    bodies.push(serde_json::to_string(&request).expect("request"));
                }
            }
        }
        bodies
    };
    // Spam cycles through distinct micro-batch counts so nearly every spam
    // request is a cold solve: real worker time burned (bounded by the
    // 150 ms deadline), not a cache hit.
    let spam_bodies: Vec<String> = {
        let placement = synthetic_placement(ShapeKind::X, 8).expect("placement");
        (0..64usize)
            .map(|i| {
                let mut request = SearchRequest::for_placement(placement.clone());
                request.num_micro_batches = Some(8 + i);
                request.max_repetend_micro_batches = Some(4);
                request.priority = Some(0);
                request.deadline_ms = Some(150);
                serde_json::to_string(&request).expect("request")
            })
            .collect()
    };

    let service = ScheduleService::new(ServiceConfig {
        default_micro_batches: 8,
        default_max_repetend: 3,
        candidate_limit: Some(600),
        ..ServiceConfig::default()
    })
    .expect("service");
    let server = HttpServer::serve(
        Arc::new(service),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let issued = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let valuable_issued = Arc::new(AtomicU64::new(0));
    let valuable_completed = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for thread in 0..SPAM_THREADS + VALUABLE_THREADS {
        let spam = thread < SPAM_THREADS;
        let addr = addr.clone();
        let stop = stop.clone();
        let issued = issued.clone();
        let completed = completed.clone();
        let valuable_issued = valuable_issued.clone();
        let valuable_completed = valuable_completed.clone();
        let shed = shed.clone();
        let timeouts = timeouts.clone();
        let catalog = catalog.clone();
        let spam_bodies = spam_bodies.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (thread as u64 + 1);
            let mut spam_cursor = thread;
            let mut client = HttpClient::new(&addr).expect("client");
            while !stop.load(Ordering::Relaxed) {
                let body = if spam {
                    spam_cursor += SPAM_THREADS;
                    &spam_bodies[spam_cursor % spam_bodies.len()]
                } else {
                    &catalog[zipf_rank(&mut rng, catalog.len())]
                };
                issued.fetch_add(1, Ordering::Relaxed);
                if !spam {
                    valuable_issued.fetch_add(1, Ordering::Relaxed);
                }
                match client.call("POST", "/v1/search", Some(body)) {
                    Ok((200, _)) => {
                        completed.fetch_add(1, Ordering::Relaxed);
                        if !spam {
                            valuable_completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok((429 | 503, _)) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                        // Bound the reject-retry spin without draining
                        // the pressure the bench is about.
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Ok((408, _)) => {
                        timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        client = HttpClient::new(&addr).expect("client");
                    }
                }
            }
        }));
    }
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().expect("client thread");
    }
    let seconds = started.elapsed().as_secs_f64();

    let (status, metrics) = http_call(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200, "{metrics}");
    let requests = issued.load(Ordering::Relaxed);
    let completed = completed.load(Ordering::Relaxed);
    let valuable_requests = valuable_issued.load(Ordering::Relaxed);
    let valuable_completed = valuable_completed.load(Ordering::Relaxed);
    let shed_or_rejected = shed.load(Ordering::Relaxed);
    let row = AdmissionOverloadRow {
        policy: "least-valuable".into(),
        requests,
        completed,
        valuable_requests,
        valuable_completed,
        shed_or_rejected,
        timeouts: timeouts.load(Ordering::Relaxed),
        seconds,
        goodput_per_sec: completed as f64 / seconds.max(1e-9),
        valuable_goodput_per_sec: valuable_completed as f64 / seconds.max(1e-9),
        shed_rate: shed_or_rejected as f64 / (requests.max(1)) as f64,
        queue_wait_p50_ms: histogram_quantile_ms(&metrics, "tessel_admission_wait_seconds", 0.50),
        queue_wait_p99_ms: histogram_quantile_ms(&metrics, "tessel_admission_wait_seconds", 0.99),
    };
    server.shutdown();
    vec![row]
}

/// The `anytime_streaming` section: client-observed latency to the first
/// incumbent event of a streamed search vs the total search wall-clock.
#[derive(Debug, Clone, Serialize)]
pub struct AnytimeStreamingRow {
    /// Workload description.
    pub workload: String,
    /// Milliseconds until the first incumbent event arrived.
    pub first_incumbent_ms: f64,
    /// Incumbent events before the terminal event.
    pub incumbents: u64,
    /// Milliseconds until the terminal result event arrived.
    pub total_ms: f64,
    /// `first_incumbent_ms / total_ms`.
    pub first_incumbent_fraction: f64,
}

/// Measures anytime streaming on a search slow enough to be worth watching:
/// the 8-device X-shape (bounded by a candidate limit), streamed
/// over `POST /v1/search?stream=1`.
#[must_use]
pub fn anytime_streaming_row() -> AnytimeStreamingRow {
    use std::sync::Arc;
    use tessel_service::http::http_call_streaming;
    use tessel_service::wire::SearchRequest;
    use tessel_service::{HttpServer, ScheduleService, ServerConfig, ServiceConfig};

    let service = ScheduleService::new(ServiceConfig {
        default_micro_batches: 8,
        default_max_repetend: 4,
        candidate_limit: Some(600),
        ..ServiceConfig::default()
    })
    .expect("service");
    let server = HttpServer::serve(
        Arc::new(service),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.local_addr().to_string();
    let placement = synthetic_placement(ShapeKind::X, 8).expect("placement");
    let body = serde_json::to_string(&SearchRequest::for_placement(placement)).expect("request");

    let started = Instant::now();
    let mut first_incumbent = None;
    let mut incumbents = 0u64;
    let (status, _last) = http_call_streaming(&addr, "/v1/search?stream=1", &body, |event| {
        if event.contains("\"incumbent\"") {
            incumbents += 1;
            first_incumbent.get_or_insert(started.elapsed());
        }
    })
    .expect("streamed search");
    let total = started.elapsed();
    assert_eq!(status, 200);
    server.shutdown();

    let first_ms = first_incumbent.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let total_ms = total.as_secs_f64() * 1e3;
    AnytimeStreamingRow {
        workload: "stream/x8-mb8-nr4".into(),
        first_incumbent_ms: first_ms,
        incumbents,
        total_ms,
        first_incumbent_fraction: first_ms / total_ms.max(1e-9),
    }
}

/// One mode of the `observability_overhead` section: the cache-hit repeat
/// workload with the live-plane sampler on or off.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityOverheadRow {
    /// `sampler-off` or `sampler-<interval>ms`.
    pub mode: String,
    /// Keep-alive requests measured (cache hits, transport-bound).
    pub requests: u64,
    /// Wall-clock seconds of the best pass.
    pub seconds: f64,
    /// Requests per second of the best pass.
    pub requests_per_sec: f64,
}

/// The `observability_overhead` section: sampler-on vs sampler-off
/// throughput on the same workload, with the relative delta the live plane
/// costs.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityOverheadSection {
    /// Both modes' best-of-`passes` measurements.
    pub rows: Vec<ObservabilityOverheadRow>,
    /// `(off - on) / off`: the throughput fraction the sampler costs
    /// (negative means the difference sank below run-to-run noise).
    pub delta_fraction: f64,
    /// The budget this section is tracked against.
    pub target_max_fraction: f64,
}

/// Measures the live-plane sampler's overhead: the same keep-alive
/// cache-hit repeat workload against one daemon with the sampler off and
/// one sampling aggressively (10 ms — 100× the default cadence), best of
/// `passes` passes each, interleaved so drift hits both modes equally.
#[must_use]
pub fn observability_overhead_rows(requests: usize, passes: usize) -> ObservabilityOverheadSection {
    use std::sync::Arc;
    use tessel_service::http::http_call;
    use tessel_service::wire::SearchRequest;
    use tessel_service::{HttpClient, HttpServer, ScheduleService, ServerConfig, ServiceConfig};

    const SAMPLE_INTERVAL_MS: u64 = 10;
    let requests = requests.max(1);
    let placement = synthetic_placement(ShapeKind::V, 4).expect("placement");
    let body = serde_json::to_string(&SearchRequest::for_placement(placement)).expect("request");

    let start_daemon = |sample_interval_ms: u64| {
        let service = ScheduleService::new(ServiceConfig {
            default_micro_batches: 8,
            default_max_repetend: 3,
            candidate_limit: Some(600),
            ..ServiceConfig::default()
        })
        .expect("service");
        let server = HttpServer::serve(
            Arc::new(service),
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                sample_interval_ms,
                ..ServerConfig::default()
            },
        )
        .expect("server");
        let addr = server.local_addr().to_string();
        // Warm the cache so every measured request is a transport-bound hit.
        let (status, warm) = http_call(&addr, "POST", "/v1/search", Some(&body)).expect("warmup");
        assert_eq!(status, 200, "warmup failed: {warm}");
        (server, addr)
    };

    let (server_off, addr_off) = start_daemon(0);
    let (server_on, addr_on) = start_daemon(SAMPLE_INTERVAL_MS);
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..passes.max(1) {
        for (addr, best) in [(&addr_off, &mut best_off), (&addr_on, &mut best_on)] {
            let mut client = HttpClient::new(addr).expect("client");
            let started = Instant::now();
            for _ in 0..requests {
                let (status, _) = client
                    .call("POST", "/v1/search", Some(&body))
                    .expect("repeat call");
                assert_eq!(status, 200);
            }
            let seconds = started.elapsed().as_secs_f64();
            if seconds < *best {
                *best = seconds;
            }
        }
    }
    server_off.shutdown();
    server_on.shutdown();

    let rate = |seconds: f64| requests as f64 / seconds.max(1e-9);
    ObservabilityOverheadSection {
        rows: vec![
            ObservabilityOverheadRow {
                mode: "sampler-off".into(),
                requests: requests as u64,
                seconds: best_off,
                requests_per_sec: rate(best_off),
            },
            ObservabilityOverheadRow {
                mode: format!("sampler-{SAMPLE_INTERVAL_MS}ms"),
                requests: requests as u64,
                seconds: best_on,
                requests_per_sec: rate(best_on),
            },
        ],
        delta_fraction: (rate(best_off) - rate(best_on)) / rate(best_off).max(1e-9),
        target_max_fraction: 0.02,
    }
}

/// The whole of `BENCH_search.json`: one key per measurement, in the order
/// [`emit_service`] takes them.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSnapshot {
    /// The host and commit the measurements were taken on.
    pub host: HostInfo,
    /// See [`admission_overload_rows`].
    pub admission_overload: Vec<AdmissionOverloadRow>,
    /// See [`anytime_streaming_row`].
    pub anytime_streaming: AnytimeStreamingRow,
    /// See [`observability_overhead_rows`].
    pub observability_overhead: ObservabilityOverheadSection,
}

/// Runs the daemon workloads (overload, streaming, sampler overhead) and
/// rewrites `BENCH_search.json` with their results.
///
/// # Panics
///
/// If the file cannot be written.
pub fn emit_service() {
    let overload = admission_overload_rows(std::time::Duration::from_secs(4));
    for row in &overload {
        println!(
            "admission_overload {:<16} {:>5} reqs goodput={:>6.1}/s valuable={:>5.1}/s \
             shed_rate={:.2} wait_p50={:.1}ms p99={:.1}ms",
            row.policy,
            row.requests,
            row.goodput_per_sec,
            row.valuable_goodput_per_sec,
            row.shed_rate,
            row.queue_wait_p50_ms,
            row.queue_wait_p99_ms
        );
    }
    let streaming = anytime_streaming_row();
    println!(
        "anytime_streaming {:<20} first_incumbent={:.1}ms of {:.1}ms total ({:.1}% in, {} incumbents)",
        streaming.workload,
        streaming.first_incumbent_ms,
        streaming.total_ms,
        streaming.first_incumbent_fraction * 100.0,
        streaming.incumbents
    );
    let overhead = observability_overhead_rows(2000, 5);
    for row in &overhead.rows {
        println!(
            "observability_overhead {:<14} {:>4} reqs {:>8.1} req/s",
            row.mode, row.requests, row.requests_per_sec
        );
    }
    println!(
        "observability_overhead delta={:.2}% (target <{:.0}%)",
        overhead.delta_fraction * 100.0,
        overhead.target_max_fraction * 100.0
    );
    let snapshot = BenchSnapshot {
        host: HostInfo::capture(),
        admission_overload: overload,
        anytime_streaming: streaming,
        observability_overhead: overhead,
    };
    let path = bench_json_path();
    let json = serde_json::to_string_pretty(&snapshot).expect("the snapshot serialises");
    std::fs::write(&path, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// Host metadata stored alongside the measurements, so a snapshot can be
/// read against the parallelism it ran with and the code it measured.
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// Available hardware parallelism.
    pub cpus: usize,
    /// `git rev-parse HEAD` of the workspace at measurement time
    /// (`"unknown"` outside a git checkout), so a snapshot can be tied back
    /// to the exact code it measured.
    pub git_commit: String,
    /// How the snapshot was produced.
    pub generated_by: String,
}

impl HostInfo {
    /// Captures the current host.
    #[must_use]
    pub fn capture() -> Self {
        HostInfo {
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            git_commit: git_commit_hash(),
            generated_by: "cargo run --release -p tessel-bench --bin bench_service".into(),
        }
    }
}

/// The workspace's current commit hash, or `"unknown"`. Anchored to the
/// manifest directory: the emitter may run with an arbitrary working
/// directory.
fn git_commit_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_records_the_git_commit() {
        let host = HostInfo::capture();
        // This workspace is a git checkout, so the stamp must be a real
        // 40-hex commit hash, not the fallback.
        assert_eq!(host.git_commit.len(), 40, "{}", host.git_commit);
        assert!(host.git_commit.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
