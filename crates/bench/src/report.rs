//! Machine-readable performance tracking: `BENCH_search.json`.
//!
//! The daemon's behaviour under load is tracked in a single JSON file at the
//! repository root, written in one piece by the `bench_service` binary
//! ([`emit_service`]). Its keys:
//!
//! * `host` — the host's parallelism and the commit the run measured;
//! * `admission_overload`, `anytime_streaming`, `observability_overhead` —
//!   the daemon under sustained overload, how far into its solve a streamed
//!   search's first incumbent arrives, and the cost of the live-plane
//!   sampler;
//! * `hit_fanout` — cache hits under 1, 4 and 8 concurrent unpinned
//!   clients, the multi-client load the benchmark package has no workload
//!   for.
//!
//! Single-client request throughput, per-stage latency and the solver's
//! node counts are not recorded here: the benchmark package's workloads
//! (`serve_hit`, `serve_miss`, `solve_exact`, `solve_parallel`, …) measure
//! them with segments, medians and spread.

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

/// The `anytime_streaming` section: how soon a streamed search's first
/// incumbent arrives, measured from the start of its `solve` stage, beside
/// the time that stage takes and the client's wall clock.
#[derive(Debug, Clone, Serialize)]
pub struct AnytimeStreamingRow {
    /// Workload description.
    pub workload: String,
    /// Incumbent events before the terminal event: one per improving
    /// repetend.
    pub incumbents: u64,
    /// The `solve` stage of the request's flight record, ms.
    pub solve_ms: f64,
    /// The first incumbent's offset into the solve, ms: the first incumbent
    /// event's `elapsed_us` (from the request's arrival, as the flight
    /// record's clock) less the stages the flight record puts before
    /// `solve`. The microseconds between those stages that no stage claims
    /// count into it.
    pub first_incumbent_solve_ms: f64,
    /// `first_incumbent_solve_ms / solve_ms`.
    pub first_incumbent_fraction: f64,
    /// Client-observed ms until the first incumbent event arrived.
    pub first_incumbent_ms: f64,
    /// Client-observed ms until the terminal result event arrived.
    pub total_ms: f64,
}

/// Streams one uncached search (`POST /v1/search?stream=1` against a fresh
/// one-worker daemon) and reads its flight record back from
/// `GET /v1/debug/requests?trace=`, which tells how the request's time
/// splits into stages.
///
/// # Panics
///
/// If the daemon cannot be started or the search fails.
#[must_use]
pub fn anytime_streaming_row() -> AnytimeStreamingRow {
    use std::sync::Arc;
    use tessel_service::http::{http_call, http_call_streaming};
    use tessel_service::wire::{DebugRequestsResponse, SearchRequest, StreamEvent};
    use tessel_service::{HttpServer, ScheduleService, ServerConfig, ServiceConfig};

    // The 10-device X-shape, 8 micro-batches, `NR` up to 4: 77–135 ms in
    // `solve` on a 2-vCPU host. A search of a few milliseconds would time
    // the incumbent frame's delivery, not the search's anytime behaviour.
    const SHAPE: ShapeKind = ShapeKind::X;
    const DEVICES: usize = 10;
    const MICRO_BATCHES: usize = 8;
    const MAX_REPETEND: usize = 4;

    let service = ScheduleService::new(ServiceConfig::default()).expect("service");
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
    let placement = synthetic_placement(SHAPE, DEVICES).expect("placement");
    let mut request = SearchRequest::for_placement(placement);
    request.num_micro_batches = Some(MICRO_BATCHES);
    request.max_repetend_micro_batches = Some(MAX_REPETEND);
    let body = serde_json::to_string(&request).expect("request");

    let started = Instant::now();
    let mut first = None;
    let mut incumbents = 0u64;
    let (status, last) = http_call_streaming(&addr, "/v1/search?stream=1", &body, |event| {
        if let Ok(StreamEvent::Incumbent { elapsed_us, .. }) = serde_json::from_str(event) {
            incumbents += 1;
            first.get_or_insert((started.elapsed(), elapsed_us));
        }
    })
    .expect("streamed search");
    let total = started.elapsed();
    assert_eq!(status, 200, "{last}");

    // The daemon has served this one search: its record names the trace to
    // ask for. A record lands just after its response is written.
    let flight = (0..100)
        .find_map(|_| {
            let query = "/v1/debug/requests?endpoint=/v1/search";
            let (_, listed) = http_call(&addr, "GET", query, None).expect("flight records");
            let listed: DebugRequestsResponse = serde_json::from_str(&listed).expect("records");
            let Some(record) = listed.recent.first() else {
                std::thread::sleep(std::time::Duration::from_millis(10));
                return None;
            };
            let query = format!("/v1/debug/requests?trace={}", record.trace_id);
            let (_, traced) = http_call(&addr, "GET", &query, None).expect("flight record");
            let traced: DebugRequestsResponse = serde_json::from_str(&traced).expect("record");
            traced.recent.into_iter().next()
        })
        .expect("the streamed request's flight record");
    server.shutdown();

    // Stage rows are in first-recorded order, and the events' clock starts
    // where the record's does.
    let ms = |micros: u64| micros as f64 / 1e3;
    let mut before_solve = 0;
    let mut solve = 0;
    for stage in &flight.stages {
        if stage.name == "solve" {
            solve = stage.micros;
            break;
        }
        before_solve += stage.micros;
    }
    let (first_client, first_elapsed_us) = first.expect("at least one incumbent event");
    let first_in_solve = ms(first_elapsed_us.saturating_sub(before_solve));
    AnytimeStreamingRow {
        workload: format!("stream/{SHAPE:?}{DEVICES}-mb{MICRO_BATCHES}-nr{MAX_REPETEND}")
            .to_lowercase(),
        incumbents,
        solve_ms: ms(solve),
        first_incumbent_solve_ms: first_in_solve,
        first_incumbent_fraction: first_in_solve / ms(solve).max(1e-9),
        first_incumbent_ms: first_client.as_secs_f64() * 1e3,
        total_ms: total.as_secs_f64() * 1e3,
    }
}

/// One mode of the `observability_overhead` section: the cache-hit repeat
/// workload with the live-plane sampler on or off.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityOverheadRow {
    /// `sampler-off` or `sampler-<interval>ms`.
    pub mode: String,
    /// Keep-alive requests per pass (cache hits, transport-bound).
    pub requests: u64,
    /// Median process CPU seconds (client and daemon, every thread) of a
    /// pass.
    pub cpu_seconds: f64,
    /// Median wall-clock seconds of a pass.
    pub seconds: f64,
    /// Requests per second of the median pass.
    pub requests_per_sec: f64,
}

/// The `observability_overhead` section: the process CPU a pass of the same
/// workload costs with the sampler on and off, over pairs of passes.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityOverheadSection {
    /// Both modes' median passes.
    pub rows: Vec<ObservabilityOverheadRow>,
    /// Pairs of passes measured; which mode runs first alternates.
    pub pairs: u64,
    /// The resolution of a pass's CPU time (the kernel's clock tick), s.
    pub cpu_resolution_s: f64,
    /// Median over the pairs of `(on - off) / off` process CPU: the fraction
    /// the sampler costs (negative: below run-to-run noise).
    pub delta_fraction: f64,
    /// First quartile of the paired deltas.
    pub delta_q1: f64,
    /// Third quartile of the paired deltas.
    pub delta_q3: f64,
    /// The budget this section is tracked against.
    pub target_max_fraction: f64,
    /// `within` or `over` the budget, or `unresolved` when the quartile
    /// spread of the paired deltas exceeds the budget itself.
    pub verdict: String,
}

/// The `q`-quantile of `sorted`, interpolating between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Kernel clock ticks per second: `/proc/self/stat` counts CPU time in
/// `sysconf(_SC_CLK_TCK)` ticks, which is 100 on every Linux this runs on.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process (every thread, exited ones
/// included) has used so far: fields 14 and 15 of `/proc/self/stat`.
fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; the numeric fields follow
    // its closing parenthesis, starting with field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / CLK_TCK
}

/// Voluntary and involuntary context switches, summed over every live
/// thread of this process (`/proc/self/task/*/status`).
fn context_switches() -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        for line in status.lines() {
            let count = |prefix: &str| line.strip_prefix(prefix)?.trim().parse::<u64>().ok();
            if let Some(n) = count("voluntary_ctxt_switches:") {
                total.0 += n;
            } else if let Some(n) = count("nonvoluntary_ctxt_switches:") {
                total.1 += n;
            }
        }
    }
    total
}

/// Measures the live-plane sampler's overhead in process CPU: the same
/// keep-alive cache-hit repeat workload against a daemon with the sampler
/// off and one sampling aggressively (10 ms — 100× the default cadence),
/// `pairs` pairs of passes of `requests` requests. Each pass starts its own
/// daemon, so the sampler runs only in the passes it is charged to. The
/// mode that runs first alternates from pair to pair, so neither mode
/// always takes the warm (or the cold) slot, and each pair's two passes run
/// back to back, so a drift in host speed hits both alike. A pass must cost
/// well over 50 clock ticks of CPU for the 10 ms tick to resolve the 2 %
/// budget.
#[must_use]
pub fn observability_overhead_rows(requests: usize, pairs: usize) -> ObservabilityOverheadSection {
    use std::sync::Arc;
    use tessel_service::http::http_call;
    use tessel_service::wire::SearchRequest;
    use tessel_service::{HttpClient, HttpServer, ScheduleService, ServerConfig, ServiceConfig};

    const SAMPLE_INTERVAL_MS: u64 = 10;
    const TARGET: f64 = 0.02;
    let (requests, pairs) = (requests.max(1), pairs.max(1));
    let placement = synthetic_placement(ShapeKind::V, 4).expect("placement");
    let body = serde_json::to_string(&SearchRequest::for_placement(placement)).expect("request");

    // One pass: a fresh daemon, warmed so that every measured request is a
    // transport-bound hit; returns (CPU seconds, wall seconds).
    let pass = |sample_interval_ms: u64| {
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
        let (status, warm) = http_call(&addr, "POST", "/v1/search", Some(&body)).expect("warmup");
        assert_eq!(status, 200, "warmup failed: {warm}");
        let mut client = HttpClient::new(&addr).expect("client");
        let (cpu, started) = (process_cpu_seconds(), Instant::now());
        for _ in 0..requests {
            let (status, _) = client
                .call("POST", "/v1/search", Some(&body))
                .expect("repeat call");
            assert_eq!(status, 200);
        }
        let measured = (process_cpu_seconds() - cpu, started.elapsed().as_secs_f64());
        server.shutdown();
        measured
    };

    let (mut off, mut on, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (off_pass, on_pass) = if pair % 2 == 0 {
            let off_pass = pass(0);
            (off_pass, pass(SAMPLE_INTERVAL_MS))
        } else {
            let on_pass = pass(SAMPLE_INTERVAL_MS);
            (pass(0), on_pass)
        };
        deltas.push(on_pass.0 / off_pass.0.max(1.0 / CLK_TCK) - 1.0);
        off.push(off_pass);
        on.push(on_pass);
    }

    deltas.sort_by(f64::total_cmp);
    let row = |mode: String, passes: &[(f64, f64)]| {
        let median = |pick: fn(&(f64, f64)) -> f64| {
            let mut values: Vec<f64> = passes.iter().map(pick).collect();
            values.sort_by(f64::total_cmp);
            quantile(&values, 0.5)
        };
        let seconds = median(|pass| pass.1);
        ObservabilityOverheadRow {
            mode,
            requests: requests as u64,
            cpu_seconds: median(|pass| pass.0),
            seconds,
            requests_per_sec: requests as f64 / seconds.max(1e-9),
        }
    };
    let (q1, median, q3) = (
        quantile(&deltas, 0.25),
        quantile(&deltas, 0.5),
        quantile(&deltas, 0.75),
    );
    let verdict = if q3 - q1 > TARGET {
        "unresolved"
    } else if median <= TARGET {
        "within"
    } else {
        "over"
    };
    ObservabilityOverheadSection {
        rows: vec![
            row("sampler-off".into(), &off),
            row(format!("sampler-{SAMPLE_INTERVAL_MS}ms"), &on),
        ],
        pairs: pairs as u64,
        cpu_resolution_s: 1.0 / CLK_TCK,
        delta_fraction: median,
        delta_q1: q1,
        delta_q3: q3,
        target_max_fraction: TARGET,
        verdict: verdict.into(),
    }
}

/// One row of the `hit_fanout` section: `clients` keep-alive clients,
/// unpinned, each posting cache hits back to back for a fixed window.
#[derive(Debug, Clone, Serialize)]
pub struct HitFanoutRow {
    /// Concurrent keep-alive clients.
    pub clients: u64,
    /// Hits answered in the window.
    pub hits: u64,
    /// Wall-clock seconds of the window.
    pub seconds: f64,
    /// `hits / seconds`.
    pub hits_per_sec: f64,
    /// Median client-observed round trip, ms.
    pub latency_ms_p50: f64,
    /// 99th-percentile client-observed round trip, ms.
    pub latency_ms_p99: f64,
    /// Context switches of every thread of the process (clients, event
    /// loop, workers) per hit, voluntary and involuntary together.
    pub switches_per_hit: f64,
    /// The voluntary share of `switches_per_hit`: a thread that blocked.
    pub voluntary_switches_per_hit: f64,
}

/// How long each `hit_fanout` client count is measured.
const HIT_FANOUT_WINDOW: std::time::Duration = std::time::Duration::from_secs(3);

/// Measures cache hits under fan-out: a daemon with the default four
/// workers and its sampler off, warmed with the 4-device V, M, K and X
/// shapes, answers 1, 4 and 8 concurrent keep-alive clients for 3 s
/// (`HIT_FANOUT_WINDOW`) each. Each client cycles through the four
/// placements from its own offset. With one client the event loop answers
/// every hit itself, the pool being idle; with more, the loop answers only
/// while the pool is idle or saturated, and a readiness batch of several
/// connections goes to the pool.
///
/// # Panics
///
/// If the daemon cannot be started or a request fails.
#[must_use]
pub fn hit_fanout_rows() -> Vec<HitFanoutRow> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use tessel_service::http::http_call;
    use tessel_service::wire::SearchRequest;
    use tessel_service::{HttpClient, HttpServer, ScheduleService, ServerConfig, ServiceConfig};

    let bodies: Vec<String> = [ShapeKind::V, ShapeKind::M, ShapeKind::K, ShapeKind::X]
        .into_iter()
        .map(|shape| {
            let placement = synthetic_placement(shape, 4).expect("placement");
            serde_json::to_string(&SearchRequest::for_placement(placement)).expect("request")
        })
        .collect();
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
            sample_interval_ms: 0,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.local_addr().to_string();
    for body in &bodies {
        let (status, warm) = http_call(&addr, "POST", "/v1/search", Some(body)).expect("warmup");
        assert_eq!(status, 200, "warmup failed: {warm}");
    }

    let rows = [1usize, 4, 8].map(|clients| {
        let stop = Arc::new(AtomicBool::new(false));
        // Every client thread is alive at both readings of the switch
        // counters: the threads connect, then wait for the start; they stop,
        // then wait while the counters are read again.
        let [start, stopped, read] = [(); 3].map(|()| Arc::new(Barrier::new(clients + 1)));
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                let (addr, bodies, stop) = (addr.clone(), bodies.clone(), stop.clone());
                let (start, stopped, read) = (start.clone(), stopped.clone(), read.clone());
                std::thread::spawn(move || {
                    let mut client = HttpClient::new(&addr).expect("client");
                    let mut latencies_ms = Vec::new();
                    start.wait();
                    for body in bodies.iter().cycle().skip(client_index) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let sent = Instant::now();
                        let (status, answer) =
                            client.call("POST", "/v1/search", Some(body)).expect("hit");
                        assert_eq!(status, 200, "{answer}");
                        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                    stopped.wait();
                    read.wait();
                    latencies_ms
                })
            })
            .collect();
        let before = context_switches();
        start.wait();
        let started = Instant::now();
        std::thread::sleep(HIT_FANOUT_WINDOW);
        stop.store(true, Ordering::Relaxed);
        stopped.wait();
        let seconds = started.elapsed().as_secs_f64();
        let after = context_switches();
        read.wait();
        let mut latencies: Vec<f64> = handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread"))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let hits = latencies.len() as u64;
        let per_hit = |count: u64| count as f64 / hits.max(1) as f64;
        let (voluntary, involuntary) = (after.0 - before.0, after.1 - before.1);
        HitFanoutRow {
            clients: clients as u64,
            hits,
            seconds,
            hits_per_sec: hits as f64 / seconds.max(1e-9),
            latency_ms_p50: quantile(&latencies, 0.5),
            latency_ms_p99: quantile(&latencies, 0.99),
            switches_per_hit: per_hit(voluntary + involuntary),
            voluntary_switches_per_hit: per_hit(voluntary),
        }
    });
    server.shutdown();
    rows.into()
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
    /// See [`hit_fanout_rows`].
    pub hit_fanout: Vec<HitFanoutRow>,
}

/// Requests per `observability_overhead` pass: about a CPU-second of
/// keep-alive hits on a 2-vCPU host, 100 clock ticks.
const OVERHEAD_PASS_REQUESTS: usize = 20_000;

/// Runs the daemon workloads (overload, streaming, sampler overhead, hit
/// fan-out) and rewrites `BENCH_search.json` with their results.
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
        "anytime_streaming {:<20} first_incumbent {:.3}ms into a {:.1}ms solve ({:.2}%, {} incumbents; \
         client {:.1}ms of {:.1}ms)",
        streaming.workload,
        streaming.first_incumbent_solve_ms,
        streaming.solve_ms,
        streaming.first_incumbent_fraction * 100.0,
        streaming.incumbents,
        streaming.first_incumbent_ms,
        streaming.total_ms
    );
    let overhead = observability_overhead_rows(OVERHEAD_PASS_REQUESTS, 10);
    for row in &overhead.rows {
        println!(
            "observability_overhead {:<14} {:>5} reqs {:>6.2} cpu-s {:>8.1} req/s (median pass)",
            row.mode, row.requests, row.cpu_seconds, row.requests_per_sec
        );
    }
    println!(
        "observability_overhead delta={:.2}% [q1 {:.2}%, q3 {:.2}%] of process CPU over {} pairs (target <{:.0}%): {}",
        overhead.delta_fraction * 100.0,
        overhead.delta_q1 * 100.0,
        overhead.delta_q3 * 100.0,
        overhead.pairs,
        overhead.target_max_fraction * 100.0,
        overhead.verdict
    );
    let fanout = hit_fanout_rows();
    for row in &fanout {
        println!(
            "hit_fanout {} clients {:>8.1} hits/s p50={:.3}ms p99={:.3}ms switches/hit={:.2} ({:.2} voluntary)",
            row.clients,
            row.hits_per_sec,
            row.latency_ms_p50,
            row.latency_ms_p99,
            row.switches_per_hit,
            row.voluntary_switches_per_hit
        );
    }
    let snapshot = BenchSnapshot {
        host: HostInfo::capture(),
        admission_overload: overload,
        anytime_streaming: streaming,
        observability_overhead: overhead,
        hit_fanout: fanout,
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
