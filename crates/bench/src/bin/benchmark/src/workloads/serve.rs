//! `serve_hit` and `serve_miss`: the daemon, in process, behind its real HTTP
//! transport. One closed-loop client on one keep-alive connection posts
//! `/v1/search` bodies that were rendered before the clock started.
//!
//! * `serve_hit` — 64 warmed placements, zipf(1) popularity, every request
//!   under a fresh relabeling: the steady state, where the solver does
//!   nothing.
//! * `serve_miss` — never-seen placements against a 256-entry cache with the
//!   journal on: search, simulate, insert, evict, append, compact.

use crate::check::check_schedule;
use crate::gen::{base_shapes, distinct_placements, relabel, Rng, Zipf};
use crate::host;
use crate::stats::median;
use crate::trace::{SpanId, Tracer, NONE};
use crate::workload::{solver_effort, timed_segment, Ctx, Layers, Segment, Workload};
use crate::workloads::search_cold::{absorb, search_layers};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tessel_core::fingerprint::{CanonicalPlacement, Fingerprint};
use tessel_core::ir::PlacementSpec;
use tessel_core::search::{SearchConfig, SearchStats, TesselSearch};
use tessel_runtime::{instantiate, simulate, ClusterSpec, CommMode};
use tessel_service::cache::{CacheKey, CacheParams};
use tessel_service::http::ResponseHeaders;
use tessel_service::wire::{SearchRequest, SearchResponse};
use tessel_service::{
    CacheConfig, CacheJournal, CachedSearch, HttpClient, HttpServer, ScheduleService, ServerConfig,
    ServiceConfig, ShardedCache,
};

const WORKING_SET: usize = 64;
const HIT_SEGMENT_OPS: usize = 3_000;
const MISS_SEGMENT_OPS: usize = 1_200;
/// One response in this many gets the full parse and schedule check (every
/// response gets the cheap status / `cached` / fingerprint / period check).
const HIT_CHECK_EVERY: usize = 128;
const MISS_CHECK_EVERY: usize = 16;
/// In the traced `serve_miss` segment one request in this many is replayed
/// in process (each replay searches twice more).
const MISS_REPLAY_EVERY: usize = 4;

/// The service's shipping defaults for `N` and `NR`, which every request
/// here relies on.
const PARAMS: CacheParams = CacheParams {
    num_micro_batches: 8,
    max_repetend_micro_batches: 6,
};

/// One request: the placement in the labeling the request uses (what the
/// response's schedule must be valid for), the rendered body, and what the
/// answer must say.
#[derive(Debug, Clone)]
pub struct Op {
    pub placement: PlacementSpec,
    pub body: String,
    pub fingerprint: Fingerprint,
    /// The warmed period (`serve_hit`); `serve_miss` has no pinned period.
    pub period: Option<u64>,
    /// What the payload must contain, rendered once so the per-response
    /// check allocates nothing.
    needles: Vec<String>,
}

fn render(placement: PlacementSpec, fingerprint: Fingerprint, period: Option<u64>) -> Op {
    let request = SearchRequest::for_placement(placement);
    let body = serde_json::to_string(&request).expect("requests serialize");
    let mut needles = vec![format!("\"fingerprint\":\"{fingerprint}\"")];
    needles.extend(period.map(|p| format!("\"period\":{p},")));
    Op {
        placement: request.placement,
        body,
        fingerprint,
        period,
        needles,
    }
}

/// A warmed working-set member, in the generator's labeling.
#[derive(Debug, Clone)]
pub struct Warm {
    pub placement: PlacementSpec,
    pub fingerprint: Fingerprint,
    pub period: u64,
}

/// The working set's placements for `seed` (periods are filled in by the
/// warm-up).
pub fn draw_working_set(seed: u64) -> Vec<(PlacementSpec, Fingerprint)> {
    distinct_placements(WORKING_SET, &mut Rng::new(seed, 10), &mut HashSet::new())
}

/// Segment `segment` of `serve_hit`: zipf(1) ranks over the working set,
/// each request under a fresh relabeling.
pub fn hit_ops(seed: u64, segment: usize, set: &[Warm], count: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 100 + segment as u64);
    let zipf = Zipf::new(set.len());
    (0..count)
        .map(|_| {
            let warm = &set[zipf.sample(&mut rng)];
            render(
                relabel(&warm.placement, &mut rng),
                warm.fingerprint,
                Some(warm.period),
            )
        })
        .collect()
}

/// Segment `segment` of `serve_miss`: placements whose fingerprints are in
/// no earlier segment (`seen` carries them across segments).
pub fn miss_ops(
    seed: u64,
    segment: usize,
    seen: &mut HashSet<Fingerprint>,
    count: usize,
) -> Vec<Op> {
    let mut rng = Rng::new(seed, 200 + segment as u64);
    distinct_placements(count, &mut rng, seen)
        .into_iter()
        .map(|(placement, fingerprint)| render(relabel(&placement, &mut rng), fingerprint, None))
        .collect()
}

/// The search the service runs for a request at its defaults, configured
/// through `core`'s public API.
fn service_search_config() -> SearchConfig {
    SearchConfig::default()
        .with_micro_batches(PARAMS.num_micro_batches)
        .with_max_repetend_micro_batches(PARAMS.max_repetend_micro_batches)
        .with_portfolio_threads(1)
        .with_solver_threads(1)
}

/// The miss pipeline re-enacted through public functions — search on the
/// canonical placement, instantiate, simulate — with a span around each.
fn build_entry(
    canon: &CanonicalPlacement,
    tracer: &mut Tracer,
    op: usize,
    parent: SpanId,
) -> Option<(CachedSearch, SearchStats)> {
    let (outcome, _, _) = tracer.span("core.search.run", op, parent, || {
        TesselSearch::new(service_search_config()).run(&canon.placement)
    });
    let outcome = outcome.ok()?;
    let (program, _, _) = tracer.span("runtime.instantiate", op, parent, || {
        instantiate(&canon.placement, &outcome.schedule, CommMode::NonBlocking)
    });
    let program = program.ok()?;
    let cluster = ClusterSpec::v100_cluster(canon.placement.num_devices());
    let (report, _, _) = tracer.span("runtime.simulate", op, parent, || {
        simulate(&program, &cluster, CommMode::NonBlocking)
    });
    let entry = CachedSearch {
        fingerprint: canon.fingerprint,
        params: PARAMS,
        canonical_placement: canon.placement.clone(),
        period: outcome.repetend.period,
        repetend_micro_batches: outcome.repetend.num_micro_batches(),
        bubble_rate: outcome.repetend.bubble_rate(&canon.placement),
        utilization: report.ok()?.utilization_summary(),
        solver: outcome.stats.solver,
        search_millis: outcome.stats.total_time.as_millis() as u64,
        schedule: outcome.schedule,
    };
    Some((entry, outcome.stats))
}

/// A daemon: the service, its HTTP server and its journal file.
struct Daemon {
    service: Arc<ScheduleService>,
    server: HttpServer,
    journal: PathBuf,
}

/// Distinguishes the journal files of the daemons one process starts.
static DAEMONS_STARTED: AtomicUsize = AtomicUsize::new(0);

fn service_config(miss: bool, journal: PathBuf) -> ServiceConfig {
    ServiceConfig {
        cache: if miss {
            CacheConfig {
                shards: 8,
                capacity_per_shard: 32,
            }
        } else {
            CacheConfig::default()
        },
        cache_path: Some(journal),
        portfolio_threads: 1,
        solver_threads: 1,
        ..ServiceConfig::default()
    }
}

fn journal_path(out_dir: &Path, workload: &str, role: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!(
        "journal-{workload}-{role}-{}-{}.jsonl",
        std::process::id(),
        DAEMONS_STARTED.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    Ok(path)
}

impl Daemon {
    fn start(out_dir: &Path, workload: &str, miss: bool) -> Result<Self, String> {
        let journal = journal_path(out_dir, workload, "daemon")?;
        let service = Arc::new(
            ScheduleService::new(service_config(miss, journal.clone()))
                .map_err(|e| e.to_string())?,
        );
        let server = HttpServer::serve(
            service.clone(),
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: host::nproc(),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        Ok(Daemon {
            service,
            server,
            journal,
        })
    }

    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// `MISS` = false is `serve_hit`, true is `serve_miss`.
pub struct Serve<const MISS: bool> {
    seed: u64,
    daemon: Daemon,
    client: HttpClient,
    working_set: Vec<Warm>,
    seen: HashSet<Fingerprint>,
    /// The next segment's operations, rendered before its clock starts.
    ops: Vec<Op>,
    ops_for_segment: usize,
    placement_build_s: f64,
    out_dir: PathBuf,
}

pub type ServeHit = Serve<false>;
pub type ServeMiss = Serve<true>;

/// The traced run's in-process replicas: a second service (so replays do not
/// disturb the daemon's cache) and a standalone cache and journal.
struct Shadow {
    service: ScheduleService,
    service_journal: PathBuf,
    cache: ShardedCache,
    journal: CacheJournal,
}

impl Shadow {
    fn stop(self) {
        let _ = std::fs::remove_file(&self.service_journal);
        let _ = std::fs::remove_file(self.journal.path());
    }
}

/// Status, headers and payload of one reply.
type Reply = (u16, ResponseHeaders, String);

/// Posts one body and times it as the caller sees it; `None` when the
/// transport failed.
fn post(client: &mut HttpClient, body: &str) -> (f64, Option<Reply>) {
    let clock = Instant::now();
    let reply = client.call_with_headers("POST", "/v1/search", Some(body), &[]);
    (clock.elapsed().as_secs_f64() * 1e3, reply.ok())
}

/// The check every response gets: status 200, the expected `cached` flag,
/// fingerprint and (when pinned) period, read straight off the payload.
fn quick_check(op: &Op, status: u16, payload: &str, cached: bool) -> bool {
    let flag = if cached {
        "\"cached\":true"
    } else {
        "\"cached\":false"
    };
    status == 200 && payload.contains(flag) && op.needles.iter().all(|n| payload.contains(n))
}

/// The check sampled responses get, on the parsed response: every field the
/// request pins, and the schedule against the request's own placement.
fn check_response(op: &Op, response: &SearchResponse, cached: bool) -> bool {
    response.cached == cached
        && !response.coalesced
        && response.fingerprint == op.fingerprint
        && op.period.is_none_or(|p| response.period == p)
        && response.period >= op.placement.repetend_lower_bound()
        && response.num_micro_batches == PARAMS.num_micro_batches
        && check_schedule(
            &op.placement,
            &response.schedule,
            response.num_micro_batches,
        )
        .is_ok()
}

fn full_check(op: &Op, payload: &str, cached: bool) -> bool {
    serde_json::from_str::<SearchResponse>(payload)
        .is_ok_and(|response| check_response(op, &response, cached))
}

impl<const MISS: bool> Serve<MISS> {
    const CHECK_EVERY: usize = if MISS {
        MISS_CHECK_EVERY
    } else {
        HIT_CHECK_EVERY
    };

    fn render_ops(&mut self, segment: usize) {
        self.ops = if MISS {
            miss_ops(self.seed, segment, &mut self.seen, Self::SEGMENT_OPS)
        } else {
            hit_ops(self.seed, segment, &self.working_set, Self::SEGMENT_OPS)
        };
        self.ops_for_segment = segment;
    }

    /// Runs the rendered operations; `observe` sees every reply after its
    /// clock stopped (the traced segment replays from there).
    fn run_ops(&mut self, mut observe: impl FnMut(usize, f64, &ResponseHeaders)) -> Segment {
        let ops = std::mem::take(&mut self.ops);
        let client = &mut self.client;
        let segment = timed_segment(|| {
            let mut latencies = Vec::with_capacity(ops.len());
            let mut failed = 0;
            for (index, op) in ops.iter().enumerate() {
                let (latency_ms, reply) = post(client, &op.body);
                latencies.push(latency_ms);
                let ok = match reply {
                    Some((status, headers, payload)) => {
                        observe(index, latency_ms, &headers);
                        quick_check(op, status, &payload, !MISS)
                            && (index % Self::CHECK_EVERY != 0 || full_check(op, &payload, !MISS))
                    }
                    None => false,
                };
                failed += usize::from(!ok);
            }
            (latencies, failed)
        });
        self.ops = ops;
        segment
    }

    fn start_shadow(&self) -> Result<Shadow, String> {
        let service_journal = journal_path(&self.out_dir, Self::NAME, "shadow")?;
        let service = ScheduleService::new(service_config(MISS, service_journal.clone()))
            .map_err(|e| e.to_string())?;
        let cache = ShardedCache::new(&service_config(MISS, PathBuf::new()).cache);
        let journal = CacheJournal::new(
            journal_path(&self.out_dir, Self::NAME, "standalone")?,
            ServiceConfig::default().journal_compact_every,
        );
        // Warm both replicas with the working set (`serve_hit`).
        let mut scratch = Tracer::new();
        for warm in &self.working_set {
            service
                .search(&SearchRequest::for_placement(warm.placement.clone()))
                .map_err(|e| format!("cannot warm the shadow service: {e}"))?;
            let canon = warm.placement.canonicalize();
            let (entry, _) = build_entry(&canon, &mut scratch, 0, NONE)
                .ok_or("cannot warm the standalone cache")?;
            cache.insert(CacheKey::new(canon.fingerprint, &PARAMS), Arc::new(entry));
        }
        Ok(Shadow {
            service,
            service_journal,
            cache,
            journal,
        })
    }
}

/// What the traced segment collects per replayed request.
#[derive(Default)]
struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    canon_nodes: u64,
    canon_leaves: u64,
    budget_exhausted: u64,
    search: SearchStats,
    run_s: f64,
}

impl Ledger {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn p50(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }
}

/// Parses `Server-Timing: parse;dur=0.006, queue_wait;dur=0.014, …` into
/// microseconds per stage (a stage that ran twice is summed).
pub fn server_timing_us(headers: &ResponseHeaders) -> BTreeMap<String, f64> {
    let mut stages = BTreeMap::new();
    for (name, value) in headers {
        if !name.eq_ignore_ascii_case("server-timing") {
            continue;
        }
        for part in value.split(',') {
            if let Some((stage, dur)) = part.trim().split_once(";dur=") {
                if let Ok(ms) = dur.trim().parse::<f64>() {
                    *stages.entry(stage.trim().to_string()).or_insert(0.0) += ms * 1e3;
                }
            }
        }
    }
    stages
}

const HEADER_STAGES: [(&str, &str); 6] = [
    ("parse", "http.stage.parse_us_p50"),
    ("queue_wait", "http.stage.queue_wait_us_p50"),
    ("cache_lookup", "http.stage.cache_lookup_us_p50"),
    ("solve", "http.stage.solve_us_p50"),
    ("translate", "http.stage.translate_us_p50"),
    ("serialize", "http.stage.serialize_us_p50"),
];

impl<const MISS: bool> Workload for Serve<MISS> {
    const NAME: &'static str = if MISS { "serve_miss" } else { "serve_hit" };
    const SEGMENT_OPS: usize = if MISS {
        MISS_SEGMENT_OPS
    } else {
        HIT_SEGMENT_OPS
    };

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        // The client and the daemon share one CPU: on this 2-vCPU host a
        // hand-off between vCPUs costs as much as the rest of a cache hit and
        // swings with the hypervisor (see README, "One CPU for the daemon
        // workloads").
        if !host::set_affinity(1 << host::allowed_cpus().trailing_zeros()) {
            return Err("cannot pin the process to one CPU".into());
        }
        let clock = Instant::now();
        std::hint::black_box(base_shapes());
        let placement_build_s = clock.elapsed().as_secs_f64();

        let daemon = Daemon::start(&ctx.out_dir, Self::NAME, MISS)?;
        let mut client = HttpClient::new(&daemon.server.local_addr().to_string())
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;

        // Warm the cache with the working set and remember what it answered.
        let mut working_set = Vec::new();
        if !MISS {
            for (placement, fingerprint) in draw_working_set(ctx.seed) {
                let op = render(placement, fingerprint, None);
                let (_, reply) = post(&mut client, &op.body);
                let (status, _, payload) = reply.ok_or("a warm-up request failed")?;
                let response: SearchResponse =
                    serde_json::from_str(&payload).map_err(|e| e.to_string())?;
                if !quick_check(&op, status, &payload, false)
                    || !check_response(&op, &response, false)
                {
                    return Err(format!("warm-up answer for {fingerprint} failed its check"));
                }
                working_set.push(Warm {
                    placement: op.placement,
                    fingerprint,
                    period: response.period,
                });
            }
        }
        let mut serve = Serve {
            seed: ctx.seed,
            daemon,
            client,
            working_set,
            seen: HashSet::new(),
            ops: Vec::new(),
            ops_for_segment: 0,
            placement_build_s,
            out_dir: ctx.out_dir.clone(),
        };
        serve.render_ops(0);
        Ok(serve)
    }

    fn segment(&mut self, index: usize) -> Segment {
        if self.ops_for_segment != index || self.ops.is_empty() {
            self.render_ops(index);
        }
        let segment = self.run_ops(|_, _, _| {});
        self.ops.clear();
        segment
    }

    fn traced_segment(
        &mut self,
        index: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Segment, String> {
        let shadow = self.start_shadow()?;
        self.render_ops(index);
        let service_before = self.daemon.service.metrics_snapshot();
        let transport_before = self.daemon.server.transport_snapshot();
        let mut ledger = Ledger::default();
        let replay_every = if MISS { MISS_REPLAY_EVERY } else { 1 };

        // The timed part: the same requests as an untraced segment, one span
        // per round trip, the daemon's own stage timings read off the reply.
        let mut roots = Vec::with_capacity(self.ops.len());
        let segment = self.run_ops(|index, latency_ms, headers| {
            let roundtrip_s = latency_ms / 1e3;
            roots.push((
                tracer.record("http.roundtrip", index, NONE, roundtrip_s),
                roundtrip_s,
            ));
            let stages = server_timing_us(headers);
            let attributed: f64 = stages.values().sum();
            for (stage, metric) in HEADER_STAGES {
                ledger.push(metric, stages.get(stage).copied().unwrap_or(0.0));
            }
            ledger.push("http.roundtrip_us_p50", roundtrip_s * 1e6);
            ledger.push(
                "http.stage_unattributed_us_p50",
                roundtrip_s * 1e6 - attributed,
            );
        });
        // Outside the timed part: each request again, in process, through the
        // public functions the daemon's worker calls — the children of its
        // round-trip span.
        for (index, op) in self.ops.iter().enumerate().step_by(replay_every) {
            if let Some(&(root, roundtrip_s)) = roots.get(index) {
                replay::<MISS>(&shadow, op, index, root, roundtrip_s, tracer, &mut ledger);
            }
        }
        self.ops.clear();

        let service_after = self.daemon.service.metrics_snapshot();
        let transport_after = self.daemon.server.transport_snapshot();
        let hits = (service_after.cache_hits - service_before.cache_hits) as f64;
        let misses = (service_after.cache_misses - service_before.cache_misses) as f64;
        let write_us: Vec<f64> = self
            .daemon
            .service
            .debug_requests()
            .recent
            .iter()
            .filter(|r| r.path == "/v1/search")
            .flat_map(|r| {
                r.stages
                    .iter()
                    .filter(|s| s.name == "write")
                    .map(|s| s.micros as f64)
            })
            .collect();

        for (name, values) in &ledger.samples {
            layers.insert(name, median(values));
        }
        layers.extend(solver_effort(
            service_after.solver_nodes - service_before.solver_nodes,
            service_after.solver_pruned_bound - service_before.solver_pruned_bound,
            service_after.solver_pruned_dominance - service_before.solver_pruned_dominance,
        ));
        layers.extend([
            ("placement.build_ms", self.placement_build_s * 1e3),
            (
                "json.decode_mb_per_s",
                rate(
                    ledger.p50("json.request_bytes_p50"),
                    ledger.p50("json.decode_request_us_p50"),
                ),
            ),
            (
                "json.encode_mb_per_s",
                rate(
                    ledger.p50("json.response_bytes_p50"),
                    ledger.p50("json.encode_response_us_p50"),
                ),
            ),
            ("core.fingerprint.canon_nodes", ledger.canon_nodes as f64),
            ("core.fingerprint.canon_leaves", ledger.canon_leaves as f64),
            (
                "core.fingerprint.budget_exhausted",
                ledger.budget_exhausted as f64,
            ),
            ("cache.hits", hits),
            ("cache.misses", misses),
            (
                "cache.evictions",
                (service_after.cache_evictions - service_before.cache_evictions) as f64,
            ),
            ("cache.hit_share", hits / (hits + misses).max(1.0)),
            (
                "cache.journal_bytes",
                std::fs::metadata(&self.daemon.journal).map_or(0.0, |m| m.len() as f64),
            ),
            (
                "service.coalesced",
                (service_after.coalesced - service_before.coalesced) as f64,
            ),
            ("http.stage.write_us_p50", median(&write_us)),
            (
                "http.keepalive_reuses",
                (transport_after.keepalive_reuses - transport_before.keepalive_reuses) as f64,
            ),
            (
                "http.connections_accepted",
                transport_after.connections_accepted as f64,
            ),
            ("http.shed", transport_after.admission_shed as f64),
        ]);
        if MISS {
            let stats = &ledger.search;
            layers.extend(search_layers(stats));
            let clock = Instant::now();
            let compacted = shadow.journal.compact(&shadow.cache);
            layers.extend([
                (
                    "cache.journal_compact_ms",
                    if compacted.is_ok() {
                        clock.elapsed().as_secs_f64() * 1e3
                    } else {
                        0.0
                    },
                ),
                // Time inside the replayed searches: the solver plus the
                // instance building around it.
                ("solver.busy_s", ledger.run_s),
                (
                    "solver.nodes_per_s",
                    stats.solver.nodes as f64 / ledger.run_s.max(1e-9),
                ),
            ]);
        }
        shadow.stop();
        Ok(segment)
    }

    fn teardown(self) {
        self.daemon.stop();
    }
}

fn rate(bytes: f64, micros: f64) -> f64 {
    if micros > 0.0 {
        bytes / micros
    } else {
        0.0
    }
}

/// Replays one request in process through the same public functions the
/// daemon's worker calls, as children of the request's round-trip span.
fn replay<const MISS: bool>(
    shadow: &Shadow,
    op: &Op,
    index: usize,
    root: SpanId,
    roundtrip_s: f64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let (request, _, decode_s) = tracer.span("json.decode_request", index, root, || {
        serde_json::from_str::<SearchRequest>(&op.body)
    });
    let Ok(request) = request else { return };
    let (response, search, search_s) = tracer.span("service.search", index, root, || {
        shadow.service.search(&request)
    });
    let Ok(response) = response else { return };
    let (encoded, _, encode_s) = tracer.span("json.encode_response", index, root, || {
        serde_json::to_string(&response)
    });
    let Ok(encoded) = encoded else { return };

    ledger.push("json.decode_request_us_p50", decode_s * 1e6);
    ledger.push("json.request_bytes_p50", op.body.len() as f64);
    ledger.push("json.encode_response_us_p50", encode_s * 1e6);
    ledger.push("json.response_bytes_p50", encoded.len() as f64);
    ledger.push(
        "http.transport_self_us_p50",
        (roundtrip_s - decode_s - search_s - encode_s) * 1e6,
    );

    // The pieces of `service.search`, each on its own.
    let (_, _, validate_s) = tracer.span("core.ir.validate", index, search, || {
        request.placement.validate()
    });
    let ((canon, canon_stats), _, canon_s) =
        tracer.span("core.fingerprint.canonicalize", index, search, || {
            request.placement.canonicalize_with_stats()
        });
    let key = CacheKey::new(canon.fingerprint, &PARAMS);
    let (found, _, get_s) = tracer.span("cache.get", index, search, || shadow.cache.get(key));
    ledger.push("core.ir.validate_us_p50", validate_s * 1e6);
    ledger.push("core.fingerprint.canonicalize_us_p50", canon_s * 1e6);
    ledger.canon_nodes += canon_stats.nodes;
    ledger.canon_leaves += canon_stats.leaves;
    ledger.budget_exhausted += u64::from(canon_stats.budget_exhausted);
    let mut children_s = validate_s + canon_s + get_s;

    if MISS {
        debug_assert!(found.is_none());
        ledger.push("cache.get_miss_ns_p50", get_s * 1e9);
        ledger.push("service.search_miss_ms_p50", search_s * 1e3);
        let before = tracer.len();
        let Some((entry, stats)) = build_entry(&canon, tracer, index, search) else {
            return;
        };
        let entry = Arc::new(entry);
        let (_, _, insert_s) = tracer.span("cache.insert", index, search, || {
            shadow.cache.insert(key, entry.clone())
        });
        let (_, _, append_s) = tracer.span("cache.journal_append", index, search, || {
            shadow.journal.append(&shadow.cache, key, &entry)
        });
        let pipeline = tracer.durations_since(before);
        let of = |name: &str| {
            pipeline
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, s)| *s)
        };
        ledger.push(
            "runtime.instantiate_us_p50",
            of("runtime.instantiate") * 1e6,
        );
        ledger.push("runtime.simulate_us_p50", of("runtime.simulate") * 1e6);
        ledger.push("cache.insert_ns_p50", insert_s * 1e9);
        ledger.push("cache.journal_append_us_p50", append_s * 1e6);
        ledger.run_s += of("core.search.run");
        children_s += pipeline.iter().map(|(_, s)| s).sum::<f64>();
        ledger.push("service.miss_self_us_p50", (search_s - children_s) * 1e6);
        absorb(&mut ledger.search, &stats);
    } else {
        debug_assert!(found.is_some());
        ledger.push("cache.get_hit_ns_p50", get_s * 1e9);
        ledger.push("service.search_hit_us_p50", search_s * 1e6);
        ledger.push("service.hit_self_us_p50", (search_s - children_s) * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(ops: &[Op]) -> Vec<&str> {
        ops.iter().map(|op| op.body.as_str()).collect()
    }

    fn warm_set(seed: u64) -> Vec<Warm> {
        draw_working_set(seed)
            .into_iter()
            .map(|(placement, fingerprint)| Warm {
                placement,
                fingerprint,
                period: 1,
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_ops_and_another_seed_does_not() {
        let set = warm_set(1);
        assert_eq!(set.len(), WORKING_SET);
        let a = hit_ops(1, 0, &set, 200);
        let b = hit_ops(1, 0, &warm_set(1), 200);
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&hit_ops(1, 1, &set, 200)));
        assert_ne!(bodies(&a), bodies(&hit_ops(2, 0, &warm_set(2), 200)));

        let a = miss_ops(1, 0, &mut HashSet::new(), 100);
        let b = miss_ops(1, 0, &mut HashSet::new(), 100);
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(
            bodies(&a),
            bodies(&miss_ops(2, 0, &mut HashSet::new(), 100))
        );
    }

    #[test]
    fn hit_ops_are_relabelings_of_the_working_set_and_miss_ops_never_repeat() {
        let set = warm_set(3);
        let known: HashSet<Fingerprint> = set.iter().map(|w| w.fingerprint).collect();
        for op in hit_ops(3, 0, &set, 100) {
            assert!(known.contains(&op.fingerprint));
            assert_eq!(op.placement.fingerprint(), op.fingerprint);
        }
        let mut seen = HashSet::new();
        let mut all = HashSet::new();
        for segment in 0..2 {
            for op in miss_ops(3, segment, &mut seen, 150) {
                assert_eq!(op.placement.fingerprint(), op.fingerprint);
                assert!(all.insert(op.fingerprint), "a miss placement repeated");
            }
        }
    }

    #[test]
    fn server_timing_header_parses_and_sums_repeated_stages() {
        let headers = vec![(
            "server-timing".to_string(),
            "parse;dur=0.006, cache_lookup;dur=0.001, solve;dur=2.500, cache_lookup;dur=0.002"
                .to_string(),
        )];
        let stages = server_timing_us(&headers);
        assert!((stages["parse"] - 6.0).abs() < 1e-9);
        assert!((stages["cache_lookup"] - 3.0).abs() < 1e-9);
        assert!((stages["solve"] - 2500.0).abs() < 1e-9);
    }
}
