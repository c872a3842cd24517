//! The in-process schedule-search service.
//!
//! [`ScheduleService`] is the transport-independent heart of the daemon: the
//! HTTP layer, the CLI client's `--in-process` mode, the benches and the
//! tests all drive this same object. A search request flows through:
//!
//! 1. **Canonicalization** — the placement is brought into canonical form
//!    ([`PlacementSpec::canonicalize`]); the fingerprint plus the resolved
//!    search parameters form the cache key. Device relabelings and block
//!    reorderings of a known placement therefore hit the cache.
//! 2. **Cache lookup** — a hit returns immediately, with the cached canonical
//!    schedule translated back into the request's own labeling.
//! 3. **Single-flight** — concurrent identical misses elect one leader; the
//!    rest block (bounded by their own deadlines) and share the result.
//! 4. **Search** — the leader runs [`TesselSearch`] with the request deadline
//!    plumbed through [`SearchConfig::time_budget`] into the solver's
//!    cooperative cancellation, simulates the winning schedule for the
//!    utilization summary, and populates the cache. Timeouts and failures
//!    are **not** cached.

use crate::cache::{CacheConfig, CacheJournal, CacheKey, CacheParams, CachedSearch, ShardedCache};
use crate::cluster::{Cluster, ClusterConfig, ClusterSnapshot, RemoteFetch};
use crate::flight::{now_unix_ms, FlightQuery, FlightRecord, FlightRecorder};
use crate::inflight::{self, InflightGuard, InflightRegistry};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::singleflight::{Joined, SingleFlight};
use crate::wire::{
    BatchSearchItem, BatchSearchRequest, BatchSearchResponse, CacheEntryInfo, CacheExchange,
    ClusterStatusResponse, DebugRequestsResponse, ErrorBody, FlightRecordInfo, InflightResponse,
    InspectResponse, ReplicationAck, SearchRequest, SearchResponse, TraceAssemblyResponse,
    TraceSpanInfo, WireSearchEntry,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tessel_core::fingerprint::{CanonicalPlacement, Fingerprint};
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::{scheduled_block, Schedule};
use tessel_core::search::{SearchConfig, TesselSearch};
use tessel_core::CoreError;
use tessel_runtime::{instantiate, simulate, ClusterSpec, CommMode};
use tessel_solver::IncumbentSink;

/// Errors surfaced to clients of the service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The request was malformed (invalid placement, bad parameters).
    BadRequest(String),
    /// The search (or the wait for a coalesced search) exceeded the request
    /// deadline. Nothing was cached.
    Timeout(String),
    /// The search completed without a usable schedule (e.g. no feasible
    /// repetend under the memory budget).
    Search(String),
    /// The daemon cannot take the request right now.
    Unavailable(String),
}

impl ServiceError {
    /// The HTTP status code this error maps to.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::BadRequest(_) => 400,
            ServiceError::Timeout(_) => 408,
            ServiceError::Search(_) => 422,
            ServiceError::Unavailable(_) => 503,
        }
    }

    /// Machine-readable kind tag used in error bodies.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::Timeout(_) => "timeout",
            ServiceError::Search(_) => "search",
            ServiceError::Unavailable(_) => "unavailable",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Timeout(msg) => write!(f, "deadline exceeded: {msg}"),
            ServiceError::Search(msg) => write!(f, "search failed: {msg}"),
            ServiceError::Unavailable(msg) => write!(f, "service unavailable: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Configuration of a [`ScheduleService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Result-cache layout.
    pub cache: CacheConfig,
    /// Snapshot file for cache persistence; `None` disables persistence.
    pub cache_path: Option<PathBuf>,
    /// Default `N` when a request omits `num_micro_batches`.
    pub default_micro_batches: usize,
    /// Default `NR` cap when a request omits `max_repetend_micro_batches`.
    pub default_max_repetend: usize,
    /// Hard ceiling on `NR` accepted from requests (protects the daemon from
    /// exponential blowup).
    pub max_repetend_ceiling: usize,
    /// Portfolio worker threads per search.
    pub portfolio_threads: usize,
    /// Worker threads for each exact solve (the work-stealing parallel
    /// solver) when a request does not ask for a specific count; `0` uses
    /// the machine's available parallelism.
    pub solver_threads: usize,
    /// Hard ceiling on solver threads accepted from requests (protects the
    /// daemon from thread-bomb requests).
    pub max_solver_threads: usize,
    /// Optional cap on candidates per `NR` level.
    pub candidate_limit: Option<usize>,
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Option<Duration>,
    /// Journal appends between compactions of the cache persistence file.
    pub journal_compact_every: usize,
    /// Cluster membership; `None` runs the daemon standalone.
    pub cluster: Option<ClusterConfig>,
    /// Distrust fingerprint equality on **cache lookups**: re-compare the
    /// full canonical form on every hit, counting every mismatch trusted
    /// mode would have accepted in
    /// `tessel_fingerprint_paranoia_mismatches_total`. The exact canonical
    /// labeling makes this redundant; the flag is the escape hatch that
    /// proves it. (Replicated/warmed entries are re-canonicalized
    /// *unconditionally*, regardless of this flag — exact labeling can only
    /// vouch for fingerprints this node computed itself, not for a peer's
    /// claim.)
    pub paranoid_fingerprints: bool,
    /// Node budget of the canonical-labeling search run per request. Past
    /// it the search completes greedily — bounded latency at the cost of
    /// possible cache splits between relabeled variants — and the event
    /// counts in `tessel_fingerprint_canon_budget_exhausted_total`.
    pub canon_node_budget: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache: CacheConfig::default(),
            cache_path: None,
            default_micro_batches: 8,
            default_max_repetend: 6,
            max_repetend_ceiling: 8,
            portfolio_threads: 1,
            solver_threads: 1,
            max_solver_threads: 8,
            candidate_limit: None,
            default_deadline: Some(Duration::from_secs(60)),
            journal_compact_every: 64,
            cluster: None,
            paranoid_fingerprints: false,
            canon_node_budget: tessel_core::fingerprint::DEFAULT_NODE_BUDGET,
        }
    }
}

/// The schedule-search service. Cheap to share behind an [`Arc`]; all methods
/// take `&self` and are thread-safe.
///
/// [`ScheduleService::search`] is a blocking call: the HTTP transport's
/// event loop never invokes it directly but hands parsed requests to the
/// bounded worker pool, whose threads call it and push the finished response
/// back to the loop (see [`crate::http`]). In-process callers (benches,
/// tests, `examples/service_quickstart.rs`) simply call it from their own
/// threads.
#[derive(Debug)]
pub struct ScheduleService {
    config: ServiceConfig,
    cache: ShardedCache,
    journal: Option<CacheJournal>,
    cluster: Option<Cluster>,
    metrics: ServiceMetrics,
    flights: SingleFlight<Result<Arc<CachedSearch>, ServiceError>>,
    recorder: FlightRecorder,
    inflight: InflightRegistry,
}

/// A validated request, resolved to what the cache / single-flight / solve
/// pipeline keys on.
struct Prepared {
    canon: CanonicalPlacement,
    params: CacheParams,
    key: CacheKey,
    deadline: Option<Instant>,
    solver_threads: usize,
}

/// How a cache entry was obtained, before translation into the requester's
/// labeling. `cached`/`coalesced` carry through to the response's
/// bookkeeping fields with the same semantics the inline flow always had.
struct Obtained {
    entry: Arc<CachedSearch>,
    cached: bool,
    coalesced: bool,
}

/// The batch member result for a search that failed with `error`.
fn failed_item(error: &ServiceError) -> BatchSearchItem {
    BatchSearchItem {
        ok: None,
        error: Some(ErrorBody {
            kind: error.kind().to_string(),
            error: error.to_string(),
        }),
        deduped: false,
    }
}

/// RAII guard for the in-flight gauge.
struct InFlightGuard<'a>(&'a ServiceMetrics);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Completes the leader's flight on drop unless a result was already
/// published, so a panicking leader fails its followers fast instead of
/// blackholing the key until daemon restart.
struct FlightGuard<'a> {
    flights: &'a SingleFlight<Result<Arc<CachedSearch>, ServiceError>>,
    key: u64,
    armed: bool,
}

impl FlightGuard<'_> {
    fn disarm_and_complete(mut self, result: Result<Arc<CachedSearch>, ServiceError>) {
        self.armed = false;
        self.flights.complete(self.key, result);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flights.complete(
                self.key,
                Err(ServiceError::Unavailable(
                    "the leading search aborted unexpectedly".into(),
                )),
            );
        }
    }
}

/// Times `f` as a trace stage **and** marks it as the calling request's live
/// pipeline stage on the in-flight registry, so `GET /v1/debug/inflight`
/// shows where each request currently is.
fn live_stage<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    inflight::with_current(|entry| entry.set_stage(name));
    tessel_obs::stage(name, f)
}

/// Expands one flight record into assembled-trace spans: a whole-request
/// envelope span named `request`, then one span per recorded stage laid out
/// back-to-back from the request's start. `offset_ms` is the recording
/// node's clock minus the assembling node's clock — remote starts are
/// shifted by it so all spans share one timeline.
fn push_record_spans(
    spans: &mut Vec<TraceSpanInfo>,
    node: &str,
    record: &FlightRecordInfo,
    offset_ms: i64,
) {
    let base = (record.start_unix_ms as i64 - offset_ms).max(0) as u64;
    spans.push(TraceSpanInfo {
        node: node.to_string(),
        name: "request".to_string(),
        start_unix_ms: base,
        micros: record.total_micros,
        method: record.method.clone(),
        path: record.path.clone(),
        status: record.status,
    });
    let mut cursor_micros = 0u64;
    for stage in &record.stages {
        spans.push(TraceSpanInfo {
            node: node.to_string(),
            name: stage.name.clone(),
            start_unix_ms: base + cursor_micros / 1000,
            micros: stage.micros,
            method: record.method.clone(),
            path: record.path.clone(),
            status: record.status,
        });
        cursor_micros += stage.micros;
    }
}

impl ScheduleService {
    /// Creates a service, loading the cache snapshot if one is configured and
    /// present.
    ///
    /// # Errors
    ///
    /// Propagates snapshot read failures. A missing snapshot is fine, and a
    /// snapshot that no longer parses (corrupt, or written by an older
    /// daemon with a different entry layout) is skipped with a warning — an
    /// incompatible cache file must cost a cold start, not a crash loop.
    pub fn new(mut config: ServiceConfig) -> std::io::Result<Self> {
        // An operator-raised default must never exceed the ceiling, or every
        // request relying on the default would be rejected.
        config.max_repetend_ceiling = config.max_repetend_ceiling.max(config.default_max_repetend);
        let cache = ShardedCache::new(&config.cache);
        let metrics = ServiceMetrics::new();
        let journal = config
            .cache_path
            .clone()
            .map(|path| CacheJournal::new(path, config.journal_compact_every));
        if let Some(journal) = &journal {
            // Replay with a freshness check: an entry whose stored placement
            // no longer re-canonicalizes to its stored fingerprint was keyed
            // by an older labeling scheme — it can never be hit again (every
            // lookup re-derives the fingerprint) and would only bloat the
            // journal forever. Drop it here; the startup compaction below
            // then persists the cleaned set.
            let canon_budget = config.canon_node_budget;
            match journal.replay_filtered(&cache, &mut |entry: &CachedSearch| {
                let (canon, stats) = entry
                    .canonical_placement
                    .canonicalize_budgeted(canon_budget);
                !stats.budget_exhausted && canon.fingerprint == entry.fingerprint
            }) {
                Ok(outcome) => {
                    if outcome.dropped > 0 {
                        metrics
                            .journal_stale_dropped
                            .fetch_add(outcome.dropped as u64, Ordering::Relaxed);
                        tessel_obs::warn(
                            "cache",
                            "dropped stale cache-journal entries whose fingerprints no longer re-canonicalize",
                            &[
                                ("path", &journal.path().display().to_string()),
                                ("dropped", &outcome.dropped.to_string()),
                                ("restored", &outcome.restored.to_string()),
                            ],
                        );
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    tessel_obs::warn(
                        "cache",
                        "ignoring incompatible cache journal",
                        &[
                            ("path", &journal.path().display().to_string()),
                            ("error", &e.to_string()),
                        ],
                    );
                }
                Err(e) => return Err(e),
            }
            // Rewrite the journal from the live entries before serving:
            // repairs a torn tail (appending onto a partial line would merge
            // two records into one unparseable line) and an incompatible
            // old-format file (appends onto it would be unreadable forever),
            // and bounds replay cost for daemons restarted more often than
            // the in-process compaction threshold fires.
            if let Err(e) = journal.compact(&cache) {
                tessel_obs::warn(
                    "cache",
                    "cannot compact cache journal",
                    &[
                        ("path", &journal.path().display().to_string()),
                        ("error", &e.to_string()),
                    ],
                );
            }
        }
        let cluster = match config.cluster.clone() {
            Some(cluster_config) => Some(Cluster::new(cluster_config)?),
            None => None,
        };
        Ok(ScheduleService {
            config,
            cache,
            journal,
            cluster,
            metrics,
            flights: SingleFlight::new(),
            recorder: FlightRecorder::default(),
            inflight: InflightRegistry::default(),
        })
    }

    /// The configuration the service runs with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Handles one search request end to end (see the module docs for the
    /// pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for malformed requests, deadline timeouts and
    /// infeasible searches.
    pub fn search(&self, request: &SearchRequest) -> Result<SearchResponse, ServiceError> {
        self.search_with_sink(request, None)
    }

    /// As [`ScheduleService::search`], but streams improving incumbents: when
    /// this request leads a solve, every strictly improving repetend makespan
    /// the solver proves is reported through `sink` while the search runs.
    /// Coalesced followers and cache hits report nothing (the transport still
    /// gets the terminal result). Portfolio workers report concurrently, so
    /// values are monotone per worker but not globally — a consumer wanting a
    /// strictly decreasing stream must filter (the HTTP transport does).
    ///
    /// # Errors
    ///
    /// As [`ScheduleService::search`].
    pub fn search_streamed(
        &self,
        request: &SearchRequest,
        sink: &IncumbentSink,
    ) -> Result<SearchResponse, ServiceError> {
        self.search_with_sink(request, Some(sink))
    }

    fn search_with_sink(
        &self,
        request: &SearchRequest,
        sink: Option<&IncumbentSink>,
    ) -> Result<SearchResponse, ServiceError> {
        let arrived = Instant::now();
        let started_unix_ms = now_unix_ms();
        // The HTTP worker opens the request context (with the client's or a
        // freshly minted trace ID) before calling in. In-process callers —
        // benches, tests, `--in-process` — have no transport, so the service
        // hosts a context of its own and deposits the flight record itself.
        let owns_context = tessel_obs::current_trace_id().is_none();
        if owns_context {
            tessel_obs::begin_request(tessel_obs::TraceId::generate());
        }
        // The HTTP worker registers its requests (with peer and queue wait)
        // before routing in; in-process callers are registered here, by the
        // same ownership rule as the trace context above.
        let _inflight = owns_context.then(|| self.register_inflight("CALL", "/v1/search", None));
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.search_inner(request, arrived, sink);
        if let Err(e) = &result {
            self.count_failures(e, 1);
        }
        self.metrics.record_latency(arrived.elapsed());
        if owns_context {
            if let Some(finished) = tessel_obs::end_request() {
                let status = match &result {
                    Ok(_) => 200,
                    Err(e) => e.http_status(),
                };
                self.record_flight(FlightRecord::from_finished(
                    &finished,
                    ("CALL", "/v1/search"),
                    status,
                    started_unix_ms,
                    arrived.elapsed().as_micros() as u64,
                ));
            }
        }
        result
    }

    /// Counts `requests` failed requests under the timeout or the error
    /// counter, by what failed them.
    fn count_failures(&self, error: &ServiceError, requests: usize) {
        let counter = match error {
            ServiceError::Timeout(_) => &self.metrics.timeouts,
            _ => &self.metrics.errors,
        };
        counter.fetch_add(requests as u64, Ordering::Relaxed);
    }

    fn search_inner(
        &self,
        request: &SearchRequest,
        arrived: Instant,
        sink: Option<&IncumbentSink>,
    ) -> Result<SearchResponse, ServiceError> {
        let prepared = self.prepare(request, arrived)?;
        inflight::with_current(|entry| entry.set_deadline(prepared.deadline));
        let obtained = self.obtain_entry(&prepared, sink)?;
        Ok(self.respond(
            &obtained.entry,
            &prepared.canon,
            &request.placement,
            obtained.cached,
            obtained.coalesced,
        ))
    }

    /// Validates a request and resolves everything the pipeline needs to
    /// know about it: parameters, canonical form, cache key, absolute
    /// deadline and solver thread count.
    fn prepare(&self, request: &SearchRequest, arrived: Instant) -> Result<Prepared, ServiceError> {
        live_stage("validate", || request.placement.validate())
            .map_err(|e| ServiceError::BadRequest(format!("invalid placement: {e}")))?;
        let params = self.resolve_params(request)?;
        let canon = live_stage("canonicalize", || {
            self.canonicalize_budgeted(&request.placement)
        });
        Ok(Prepared {
            key: CacheKey::new(canon.fingerprint, &params),
            canon,
            params,
            deadline: request
                .deadline_ms
                .map(|ms| arrived + Duration::from_millis(ms))
                .or_else(|| self.config.default_deadline.map(|d| arrived + d)),
            solver_threads: self.resolve_solver_threads(request),
        })
    }

    /// Resolves a canonicalized request to its cached entry: cache lookup,
    /// single-flight election and — for the leader — the remote fetch and
    /// solve. Shared by the single-search path and the batch path (which
    /// calls it once per distinct cache key and fans the entry out to every
    /// fingerprint-identical member). Counts hits/misses/coalesces exactly
    /// as the historical inline flow did.
    fn obtain_entry(
        &self,
        prepared: &Prepared,
        sink: Option<&IncumbentSink>,
    ) -> Result<Obtained, ServiceError> {
        let Prepared {
            key,
            ref canon,
            ref params,
            deadline,
            solver_threads,
        } = *prepared;
        if let Some(entry) = live_stage("cache_lookup", || self.cache_lookup(key, canon, params)) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Obtained {
                entry,
                cached: true,
                coalesced: false,
            });
        }

        match live_stage("singleflight_wait", || {
            self.flights.join(key.raw(), deadline)
        }) {
            Joined::Leader => {
                // The flight MUST complete even if the search panics —
                // otherwise the key is blackholed and every later identical
                // request hangs on a leaderless flight.
                let guard = FlightGuard {
                    flights: &self.flights,
                    key: key.raw(),
                    armed: true,
                };
                // Double-check the cache: another leader may have finished
                // between our lookup and the flight election. Then, before
                // paying for a solve, ask the ring owner — a sibling daemon
                // may already hold this schedule.
                let mut remote_hit = false;
                let mut inserted = false;
                let result = match live_stage("cache_lookup", || {
                    self.cache_lookup(key, canon, params)
                }) {
                    Some(entry) => Ok(entry),
                    // The stage only exists in cluster mode: standalone
                    // flight records carry no zero-length `remote_fetch` row.
                    None => match self.cluster.as_ref().and_then(|_| {
                        live_stage("remote_fetch", || self.cluster_fetch(key, canon, params))
                    }) {
                        Some(entry) => {
                            remote_hit = true;
                            inserted = true;
                            Ok(entry)
                        }
                        None => {
                            let solved = live_stage("solve", || {
                                self.run_search(canon, params, key, deadline, solver_threads, sink)
                            });
                            inserted = solved.is_ok();
                            solved
                        }
                    },
                };
                guard.disarm_and_complete(result.clone());
                // Journal outside the flight: followers are already awake,
                // so they never wait on the append (or on the occasional
                // whole-cache compaction it triggers).
                if inserted {
                    if let Ok(entry) = &result {
                        self.persist_insert(key, entry);
                    }
                }
                let entry = result?;
                // A remote hit was served from the logical (cluster-wide)
                // cache: a hit for the client, counted under
                // `tessel_cluster_remote_hits_total` rather than the local
                // hit/miss pair.
                if !remote_hit {
                    self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Obtained {
                    entry,
                    cached: remote_hit,
                    coalesced: false,
                })
            }
            Joined::Done(result) => {
                self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                Ok(Obtained {
                    entry: result?,
                    cached: false,
                    coalesced: true,
                })
            }
            Joined::TimedOut => Err(ServiceError::Timeout(
                "timed out waiting for an identical in-flight search".into(),
            )),
        }
    }

    /// Handles a `POST /v1/search/batch` body: every member placement is
    /// canonicalized up front, members sharing a (fingerprint, parameters)
    /// cache key are grouped, each distinct group is resolved **once**
    /// through the ordinary cache / single-flight / solve pipeline, and the
    /// one entry fans out to every member translated into that member's own
    /// labeling. A batch of N identical (even relabeled) placements touches
    /// the solver once; the N-1 shared members count in
    /// `tessel_batch_deduped_total` instead of the hit/miss pair.
    #[must_use]
    pub fn search_batch(&self, batch: &BatchSearchRequest) -> BatchSearchResponse {
        let arrived = Instant::now();
        self.metrics
            .requests
            .fetch_add(batch.requests.len() as u64, Ordering::Relaxed);
        // Canonicalize everything first: dedup needs every member's key
        // before the first solve starts. Invalid members fail alone without
        // sinking the batch.
        let prepared: Vec<Result<Prepared, ServiceError>> = batch
            .requests
            .iter()
            .map(|request| self.prepare(request, arrived))
            .collect();
        // Group members by cache key; the first member of each group is the
        // representative that pays for the resolve.
        let mut groups: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        let mut group_order: Vec<u64> = Vec::new();
        for (index, prep) in prepared.iter().enumerate() {
            if let Ok(prep) = prep {
                let slot = groups.entry(prep.key.raw()).or_default();
                if slot.is_empty() {
                    group_order.push(prep.key.raw());
                }
                slot.push(index);
            }
        }
        let mut results: Vec<Option<BatchSearchItem>> = vec![None; batch.requests.len()];
        let mut deduped_total = 0usize;
        for raw_key in &group_order {
            let members = &groups[raw_key];
            let rep = &prepared[members[0]];
            let Ok(rep) = rep else { unreachable!() };
            match self.obtain_entry(rep, None) {
                Ok(obtained) => {
                    for (position, &index) in members.iter().enumerate() {
                        let Ok(prep) = &prepared[index] else {
                            unreachable!()
                        };
                        let deduped = position > 0;
                        let response = self.respond(
                            &obtained.entry,
                            &prep.canon,
                            &batch.requests[index].placement,
                            obtained.cached,
                            // Shared members are coalesced in spirit: they
                            // rode the representative's resolve.
                            obtained.coalesced || deduped,
                        );
                        results[index] = Some(BatchSearchItem {
                            ok: Some(response),
                            error: None,
                            deduped,
                        });
                    }
                    deduped_total += members.len() - 1;
                }
                Err(e) => {
                    // The whole group shares the representative's failure:
                    // they asked for the same solve.
                    self.count_failures(&e, members.len());
                    for &index in members {
                        results[index] = Some(failed_item(&e));
                    }
                }
            }
        }
        // Members that failed preparation (and never joined a group).
        for (index, prep) in prepared.iter().enumerate() {
            if let Err(e) = prep {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                results[index] = Some(failed_item(e));
            }
        }
        self.metrics
            .batch_deduped
            .fetch_add(deduped_total as u64, Ordering::Relaxed);
        self.metrics.record_latency(arrived.elapsed());
        BatchSearchResponse {
            results: results
                .into_iter()
                .map(|item| item.expect("every batch member resolved"))
                .collect(),
            unique_solves: group_order.len(),
            deduped: deduped_total,
        }
    }

    /// Canonicalizes a placement under the configured node budget. A search
    /// that hits the budget completes greedily (bounded latency; relabeled
    /// variants may land on different fingerprints and miss each other's
    /// cache entries) and counts in
    /// `tessel_fingerprint_canon_budget_exhausted_total`.
    fn canonicalize_budgeted(&self, placement: &PlacementSpec) -> CanonicalPlacement {
        let (canon, stats) = placement.canonicalize_budgeted(self.config.canon_node_budget);
        if stats.budget_exhausted {
            self.metrics
                .canon_budget_exhausted
                .fetch_add(1, Ordering::Relaxed);
            tessel_obs::warn(
                "fingerprint",
                "canonical-labeling node budget exhausted; labeling completed greedily",
                &[
                    ("fingerprint", &canon.fingerprint.to_string()),
                    ("budget", &self.config.canon_node_budget.to_string()),
                ],
            );
        }
        canon
    }

    /// Cache lookup trusting fingerprint equality: the exact canonical
    /// labeling guarantees equal fingerprints mean equal canonical forms, so
    /// only the stored parameters are re-checked. Under
    /// `--paranoid-fingerprints` the full canonical-placement comparison is
    /// reinstated; a mismatch counts in
    /// `tessel_fingerprint_paranoia_mismatches_total` and degrades to a miss.
    fn cache_lookup(
        &self,
        key: CacheKey,
        canon: &CanonicalPlacement,
        params: &CacheParams,
    ) -> Option<Arc<CachedSearch>> {
        let entry = self.cache.get(key)?;
        if entry.params != *params || entry.fingerprint != canon.fingerprint {
            return None;
        }
        if self.config.paranoid_fingerprints && entry.canonical_placement != canon.placement {
            self.metrics
                .fingerprint_paranoia_mismatches
                .fetch_add(1, Ordering::Relaxed);
            tessel_obs::warn(
                "cache",
                "fingerprint paranoia: canonical form mismatch on lookup",
                &[("fingerprint", &canon.fingerprint.to_string())],
            );
            return None;
        }
        Some(entry)
    }

    /// Consults the ring owner for a locally missed request. A validated
    /// remote hit is adopted into the local cache (so the next identical
    /// request is a local hit); every other outcome — this node is the
    /// owner, the owner also missed, the owner is unreachable — returns
    /// `None` and the caller solves locally.
    fn cluster_fetch(
        &self,
        key: CacheKey,
        canon: &CanonicalPlacement,
        params: &CacheParams,
    ) -> Option<Arc<CachedSearch>> {
        let cluster = self.cluster.as_ref()?;
        match cluster.fetch_from_owner(canon, params) {
            RemoteFetch::Hit(entry) => {
                // The caller journals the insert after completing the flight.
                self.cache.insert(key, entry.clone());
                Some(entry)
            }
            RemoteFetch::LocalOwner | RemoteFetch::Miss | RemoteFetch::Unavailable => None,
        }
    }

    fn resolve_params(&self, request: &SearchRequest) -> Result<CacheParams, ServiceError> {
        let num_micro_batches = request
            .num_micro_batches
            .unwrap_or(self.config.default_micro_batches);
        if num_micro_batches == 0 {
            return Err(ServiceError::BadRequest(
                "num_micro_batches must be at least 1".into(),
            ));
        }
        let max_repetend = request
            .max_repetend_micro_batches
            .unwrap_or(self.config.default_max_repetend);
        if max_repetend == 0 || max_repetend > self.config.max_repetend_ceiling {
            return Err(ServiceError::BadRequest(format!(
                "max_repetend_micro_batches must be in 1..={}",
                self.config.max_repetend_ceiling
            )));
        }
        Ok(CacheParams {
            num_micro_batches,
            max_repetend_micro_batches: max_repetend,
        })
    }

    /// The solver thread count a request runs with: the request's ask (or
    /// the daemon default), with `0` resolved to the machine's parallelism,
    /// clamped to the configured ceiling. Not part of cache identity —
    /// every thread count proves the same optimum.
    fn resolve_solver_threads(&self, request: &SearchRequest) -> usize {
        let asked = request.solver_threads.unwrap_or(self.config.solver_threads);
        tessel_solver::resolve_threads(asked).clamp(1, self.config.max_solver_threads.max(1))
    }

    /// Runs the actual search (leader path) and populates the cache on
    /// success.
    fn run_search(
        &self,
        canon: &CanonicalPlacement,
        params: &CacheParams,
        key: CacheKey,
        deadline: Option<Instant>,
        solver_threads: usize,
        sink: Option<&IncumbentSink>,
    ) -> Result<Arc<CachedSearch>, ServiceError> {
        self.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let _guard = InFlightGuard(&self.metrics);

        let started = Instant::now();
        let budget = match deadline {
            Some(deadline) => Some(
                deadline
                    .checked_duration_since(started)
                    .ok_or_else(|| ServiceError::Timeout("deadline already passed".into()))?,
            ),
            None => None,
        };
        let mut config = SearchConfig::default()
            .with_micro_batches(params.num_micro_batches)
            .with_max_repetend_micro_batches(params.max_repetend_micro_batches)
            .with_portfolio_threads(self.config.portfolio_threads)
            .with_solver_threads(solver_threads)
            .with_time_budget(budget);
        config.candidate_limit = self.config.candidate_limit;
        if let Some(sink) = sink {
            config = config.with_incumbent_sink(sink.clone());
        }
        // The live progress board of the leading request, when one is
        // registered, applies to both solver roles — core's per-run config
        // cloning preserves the handle, so every solve of this search
        // publishes into it at its existing node-batch flush boundaries
        // (relaxed atomics, no added locks).
        let board = inflight::with_current(|entry| entry.board().clone());
        for solver in [&mut config.repetend_solver, &mut config.phase_solver] {
            solver.progress = board.clone();
        }

        let outcome = TesselSearch::new(config)
            .run(&canon.placement)
            .map_err(|e| match e {
                CoreError::DeadlineExceeded => {
                    ServiceError::Timeout("search exceeded the request deadline".into())
                }
                other => ServiceError::Search(other.to_string()),
            })?;
        let search_millis = started.elapsed().as_millis() as u64;
        self.metrics.record_solver(&outcome.stats.solver);
        // Solver sub-phases, summed across the search's many solver
        // invocations, become spans of the surrounding request. Zero totals
        // (single-threaded solves have neither phase) are omitted.
        if outcome.stats.solver.warmstart_micros > 0 {
            tessel_obs::record_stage("solver_warmstart", outcome.stats.solver.warmstart_micros);
        }
        if outcome.stats.solver.parallel_micros > 0 {
            tessel_obs::record_stage("solver_parallel", outcome.stats.solver.parallel_micros);
        }

        // Simulate the schedule on the reference cluster for the
        // machine-readable utilization summary.
        let cluster = ClusterSpec::v100_cluster(canon.placement.num_devices());
        let utilization = instantiate(&canon.placement, &outcome.schedule, CommMode::NonBlocking)
            .and_then(|program| simulate(&program, &cluster, CommMode::NonBlocking))
            .map(|report| report.utilization_summary())
            .map_err(|e| ServiceError::Search(format!("simulation failed: {e}")))?;

        let entry = Arc::new(CachedSearch {
            fingerprint: canon.fingerprint,
            params: *params,
            canonical_placement: canon.placement.clone(),
            schedule: outcome.schedule,
            period: outcome.repetend.period,
            repetend_micro_batches: outcome.repetend.num_micro_batches(),
            bubble_rate: outcome.repetend.bubble_rate(&canon.placement),
            utilization,
            solver: outcome.stats.solver,
            search_millis,
        });
        self.cache.insert(key, entry.clone());
        // The caller journals the insert after completing the flight. A
        // solve for a fingerprint another daemon owns travels to the owner
        // asynchronously; the client never waits on replication.
        if let Some(cluster) = &self.cluster {
            cluster.replicate_if_remote(&entry);
        }
        Ok(entry)
    }

    /// Translates a cached (canonical-labeled) entry into the request's own
    /// device labeling and stage numbering.
    fn respond(
        &self,
        entry: &CachedSearch,
        canon: &CanonicalPlacement,
        original: &PlacementSpec,
        cached: bool,
        coalesced: bool,
    ) -> SearchResponse {
        live_stage("translate", || {
            self.respond_inner(entry, canon, original, cached, coalesced)
        })
    }

    fn respond_inner(
        &self,
        entry: &CachedSearch,
        canon: &CanonicalPlacement,
        original: &PlacementSpec,
        cached: bool,
        coalesced: bool,
    ) -> SearchResponse {
        let inv_block = canon.inverse_block_perm();
        let blocks = entry
            .schedule
            .blocks()
            .iter()
            .map(|b| scheduled_block(original, inv_block[b.stage], b.micro_batch, b.start))
            .collect();
        let mut schedule = Schedule::new(
            original.num_devices(),
            entry.schedule.num_micro_batches(),
            blocks,
        );
        if let Some(span) = entry.schedule.repetend() {
            schedule = schedule.with_repetend(span);
        }

        // Per-device utilization rows, re-indexed to the request's labels.
        let mut utilization = entry.utilization.clone();
        let mut devices = Vec::with_capacity(utilization.devices.len());
        for (original_device, &canonical_device) in canon.device_perm.iter().enumerate() {
            if let Some(row) = entry.utilization.devices.get(canonical_device) {
                let mut row = row.clone();
                row.device = original_device;
                devices.push(row);
            }
        }
        utilization.devices = devices;

        SearchResponse {
            fingerprint: entry.fingerprint,
            cached,
            coalesced,
            num_micro_batches: entry.schedule.num_micro_batches(),
            period: entry.period,
            repetend_micro_batches: entry.repetend_micro_batches,
            bubble_rate: entry.bubble_rate,
            schedule,
            utilization,
            search_millis: if cached { 0 } else { entry.search_millis },
        }
    }

    /// Appends one freshly inserted entry to the cache journal (best effort;
    /// an unwritable journal costs persistence, not the request). An append
    /// is O(entry) — the whole-cache rewrite happens only on the periodic
    /// compaction.
    fn persist_insert(&self, key: CacheKey, entry: &CachedSearch) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(&self.cache, key, entry) {
                tessel_obs::warn(
                    "cache",
                    "cannot append to cache journal",
                    &[
                        ("path", &journal.path().display().to_string()),
                        ("error", &e.to_string()),
                    ],
                );
            }
        }
    }

    /// Summary rows for every cached entry (`GET /v1/cache`).
    #[must_use]
    pub fn cache_entries(&self) -> Vec<CacheEntryInfo> {
        self.cache.list()
    }

    /// Every cached entry for `fingerprint`, in canonical labeling
    /// (`GET /v1/cache/{fingerprint}`), in the slim wire form: the canonical
    /// placement stays home — remote fetchers trust fingerprint equality and
    /// already hold their own canonicalization.
    #[must_use]
    pub fn inspect(&self, fingerprint: Fingerprint) -> InspectResponse {
        InspectResponse {
            fingerprint,
            entries: self
                .cache
                .entries_for(fingerprint)
                .iter()
                .map(|e| WireSearchEntry::slim(e))
                .collect(),
        }
    }

    /// A point-in-time metrics snapshot.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.cache.len() as u64, self.cache.evictions())
    }

    /// The live service metrics (the HTTP transport records per-endpoint and
    /// per-stage histograms through this).
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The `GET /v1/debug/requests` response body.
    #[must_use]
    pub fn debug_requests(&self) -> DebugRequestsResponse {
        self.recorder.snapshot()
    }

    /// The `GET /v1/debug/requests` response body restricted to records
    /// matching `query` (`?status=…&min_micros=…&endpoint=…&trace=…`).
    #[must_use]
    pub fn debug_requests_filtered(&self, query: &FlightQuery) -> DebugRequestsResponse {
        self.recorder.snapshot_filtered(query)
    }

    /// Registers one admitted request on the live in-flight registry under
    /// the calling thread's current trace ID. The HTTP transport calls this
    /// right after popping a job off the admission queue; in-process
    /// searches register themselves. Hold the guard until the request is
    /// answered.
    #[must_use]
    pub fn register_inflight(
        &self,
        method: &str,
        path: &str,
        peer: Option<String>,
    ) -> InflightGuard<'_> {
        let trace_id =
            tessel_obs::current_trace_id().map_or_else(String::new, |id| id.as_str().to_string());
        self.inflight
            .register(trace_id, method.to_string(), path.to_string(), peer)
    }

    /// The `GET /v1/debug/inflight` response body: every admitted request
    /// not yet answered, oldest first, with live solver progress.
    #[must_use]
    pub fn debug_inflight(&self) -> InflightResponse {
        self.inflight.snapshot()
    }

    /// Assembles the fleet-wide span timeline of one trace
    /// (`GET /v1/debug/trace/{trace_id}`): every record the local flight
    /// recorder retains for the trace, merged with the matching records of
    /// every healthy peer's recorder, as one start-sorted span list. Remote
    /// span starts are shifted into this daemon's clock by the peer clock
    /// offset the health prober estimates from probe RTT midpoints; stage
    /// spans are laid out back-to-back after their request's start, which
    /// is exact for the sequential pipeline stages and approximate for
    /// overlapping solver sub-phases.
    #[must_use]
    pub fn assemble_trace(&self, trace_id: &str) -> TraceAssemblyResponse {
        let local_node = self
            .cluster
            .as_ref()
            .map_or_else(|| "local".to_string(), |c| c.node_id().to_string());
        let mut nodes: Vec<String> = Vec::new();
        let mut unreachable: Vec<String> = Vec::new();
        let mut spans: Vec<TraceSpanInfo> = Vec::new();

        for record in self.recorder.find_by_trace(trace_id) {
            let info = FlightRecordInfo {
                trace_id: record.trace_id.clone(),
                method: record.method.clone(),
                path: record.path.clone(),
                status: record.status,
                start_unix_ms: record.start_unix_ms,
                total_micros: record.total_micros,
                stages: record
                    .stages
                    .iter()
                    .map(|s| crate::wire::StageTimingInfo {
                        name: s.name.clone(),
                        micros: s.micros,
                    })
                    .collect(),
            };
            push_record_spans(&mut spans, &local_node, &info, 0);
        }
        if !spans.is_empty() {
            nodes.push(local_node);
        }

        if let Some(cluster) = &self.cluster {
            let query = format!("/v1/debug/requests?trace={trace_id}");
            for peer in cluster.peers() {
                let status = peer.status();
                if !status.healthy {
                    unreachable.push(peer.node_id().to_string());
                    continue;
                }
                match peer.call("GET", &query, None) {
                    Ok((200, body)) => {
                        let Ok(remote) = serde_json::from_str::<DebugRequestsResponse>(&body)
                        else {
                            unreachable.push(peer.node_id().to_string());
                            continue;
                        };
                        let offset_ms = peer.clock_offset_ms().unwrap_or(0);
                        let mut contributed = false;
                        let mut seen: Vec<&FlightRecordInfo> = Vec::new();
                        for record in remote.recent.iter().chain(remote.slowest.iter()) {
                            if seen.contains(&record) {
                                continue;
                            }
                            seen.push(record);
                            push_record_spans(&mut spans, peer.node_id(), record, offset_ms);
                            contributed = true;
                        }
                        if contributed {
                            nodes.push(peer.node_id().to_string());
                        }
                    }
                    _ => unreachable.push(peer.node_id().to_string()),
                }
            }
        }

        spans.sort_by(|a, b| {
            a.start_unix_ms
                .cmp(&b.start_unix_ms)
                .then_with(|| a.node.cmp(&b.node))
        });
        TraceAssemblyResponse {
            trace_id: trace_id.to_string(),
            nodes,
            unreachable,
            spans,
        }
    }

    /// Deposits one completed request into the flight recorder and folds its
    /// per-stage timings into the stage-duration histograms. Called by the
    /// HTTP transport once per request (after the response write) and by
    /// [`ScheduleService::search`] for in-process callers.
    pub fn record_flight(&self, record: FlightRecord) {
        for stage in &record.stages {
            self.metrics.observe_stage_micros(&stage.name, stage.micros);
        }
        self.recorder.record(record);
    }

    /// The cluster tier, when the daemon runs with `--node-id`/`--peer`.
    #[must_use]
    pub fn cluster(&self) -> Option<&Cluster> {
        self.cluster.as_ref()
    }

    /// The `GET /v1/cluster` status document; `None` when the daemon runs
    /// standalone.
    #[must_use]
    pub fn cluster_status(
        &self,
        fingerprint: Option<Fingerprint>,
    ) -> Option<ClusterStatusResponse> {
        self.cluster.as_ref().map(|c| c.status(fingerprint))
    }

    /// A point-in-time snapshot of the cluster counters; `None` when the
    /// daemon runs standalone.
    #[must_use]
    pub fn cluster_snapshot(&self) -> Option<ClusterSnapshot> {
        self.cluster.as_ref().map(Cluster::snapshot)
    }

    /// Validates one full wire entry claimed to belong to `fingerprint`
    /// before adopting it into the local cache (replication and warm-up
    /// share this bar): this node must own the fingerprint per its own ring,
    /// the entry must carry a structurally valid canonical placement, the
    /// schedule must validate against that placement, the parameters must be
    /// sane, **and** the shipped placement must re-canonicalize to exactly
    /// `fingerprint`. The last check runs unconditionally — exact labeling
    /// only guarantees that correct nodes agree on a fingerprint they each
    /// compute; it cannot vouch for a peer's *claim*, and a consistent but
    /// mislabeled entry passes every structural check. Replication and
    /// warm-up are off the request hot path, so the re-canonicalization is
    /// cheap insurance; a mismatch is counted in
    /// `tessel_fingerprint_wire_mismatches_total` and the entry is rejected,
    /// as is an entry whose re-canonicalization blows the node budget (a
    /// fingerprint this node cannot reproduce exactly is a fingerprint it
    /// cannot trust).
    fn validate_wire_entry(
        &self,
        fingerprint: Fingerprint,
        entry: &WireSearchEntry,
    ) -> Option<CachedSearch> {
        let owns = self
            .cluster
            .as_ref()
            .is_some_and(|cluster| cluster.owns(fingerprint));
        let placement = entry.canonical_placement.as_ref()?;
        let structurally_valid = owns
            && entry.fingerprint == fingerprint
            && placement.validate().is_ok()
            && entry.schedule.validate(placement).is_ok()
            && entry.params.num_micro_batches > 0
            && entry.params.max_repetend_micro_batches > 0;
        if !structurally_valid {
            return None;
        }
        let (canon, stats) = placement.canonicalize_budgeted(self.config.canon_node_budget);
        if stats.budget_exhausted {
            self.metrics
                .canon_budget_exhausted
                .fetch_add(1, Ordering::Relaxed);
            tessel_obs::warn(
                "cluster",
                "rejecting wire entry: canonical-labeling budget exhausted while re-verifying the claimed fingerprint",
                &[("claimed", &fingerprint.to_string())],
            );
            return None;
        }
        if canon.fingerprint != fingerprint {
            self.metrics
                .fingerprint_wire_mismatches
                .fetch_add(1, Ordering::Relaxed);
            tessel_obs::warn(
                "cluster",
                "rejecting wire entry: shipped placement does not re-canonicalize to its claimed fingerprint",
                &[
                    ("claimed", &fingerprint.to_string()),
                    ("actual", &canon.fingerprint.to_string()),
                ],
            );
            return None;
        }
        Some(entry.clone().into_cached(placement.clone()))
    }

    /// Accepts entries replicated by a non-owner daemon
    /// (`PUT /v1/cache/{fp}`). Each entry is validated — the fingerprint must
    /// be one this node owns per its own ring, the shipped canonical
    /// placement must be structurally valid, the schedule must validate
    /// against it, and the placement must re-canonicalize to exactly the
    /// claimed fingerprint (always, not just in paranoid mode; see
    /// `ScheduleService::validate_wire_entry`) — so a confused peer (or a
    /// fleet misconfigured with divergent `--peer` lists) can never poison
    /// this cache or park entries where no warm-up will ever find them. Any
    /// mislabeling caught counts in
    /// `tessel_fingerprint_wire_mismatches_total`.
    #[must_use]
    pub fn accept_replication(
        &self,
        fingerprint: Fingerprint,
        exchange: &CacheExchange,
    ) -> ReplicationAck {
        let mut ack = ReplicationAck {
            accepted: 0,
            rejected: 0,
        };
        for entry in &exchange.entries {
            let cached = (exchange.fingerprint == fingerprint)
                .then(|| self.validate_wire_entry(fingerprint, entry))
                .flatten();
            let Some(cached) = cached else {
                ack.rejected += 1;
                continue;
            };
            let key = CacheKey::new(fingerprint, &cached.params);
            let cached = Arc::new(cached);
            self.cache.insert(key, cached.clone());
            self.persist_insert(key, &cached);
            ack.accepted += 1;
        }
        if let Some(cluster) = &self.cluster {
            use std::sync::atomic::Ordering as AtomicOrdering;
            cluster
                .metrics()
                .replications_received
                .fetch_add(ack.accepted as u64, AtomicOrdering::Relaxed);
            cluster
                .metrics()
                .replications_rejected
                .fetch_add(ack.rejected as u64, AtomicOrdering::Relaxed);
        }
        ack
    }

    /// This daemon's cache entries owned by ring member `node_id`, grouped by
    /// fingerprint (`GET /v1/cluster/export/{node}` — the warm-up stream).
    /// `None` when the daemon runs standalone or `node_id` is not a ring
    /// member.
    #[must_use]
    pub fn export_owned(&self, node_id: &str) -> Option<Vec<CacheExchange>> {
        let cluster = self.cluster.as_ref()?;
        if !cluster.ring().nodes().iter().any(|n| n == node_id) {
            return None;
        }
        let mut by_fingerprint: std::collections::BTreeMap<u64, Vec<WireSearchEntry>> =
            std::collections::BTreeMap::new();
        for (_key, entry) in self.cache.export() {
            if cluster.ring().owner_of(entry.fingerprint) == node_id {
                // Full form: the warm-up receiver re-canonicalizes the
                // placement before adopting it.
                by_fingerprint
                    .entry(entry.fingerprint.0)
                    .or_default()
                    .push(WireSearchEntry::full(&entry));
            }
        }
        Some(
            by_fingerprint
                .into_iter()
                .map(|(fp, entries)| CacheExchange {
                    fingerprint: Fingerprint(fp),
                    entries,
                })
                .collect(),
        )
    }

    /// Streams this node's ring-owned entries from every reachable peer into
    /// the local cache (startup warm-up). Returns how many entries were
    /// adopted; 0 standalone. `tessel-server` runs this in a background
    /// thread right after binding.
    pub fn warm_cache_from_peers(&self) -> usize {
        let Some(cluster) = &self.cluster else {
            return 0;
        };
        cluster.warm_from_peers(|fingerprint, entry| {
            let Some(cached) = self.validate_wire_entry(fingerprint, &entry) else {
                return false;
            };
            let key = CacheKey::new(cached.fingerprint, &cached.params);
            let cached = Arc::new(cached);
            self.cache.insert(key, cached.clone());
            self.persist_insert(key, &cached);
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_core::ir::BlockKind;

    fn v_shape(d: usize) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("v{d}"), d);
        b.set_memory_capacity(Some(d as i64 + 1));
        let mut prev: Option<usize> = None;
        for dev in 0..d {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("f{dev}"), BlockKind::Forward, [dev], 1, 1, deps)
                    .unwrap(),
            );
        }
        for dev in (0..d).rev() {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("b{dev}"), BlockKind::Backward, [dev], 2, -1, deps)
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    fn quick_service() -> ScheduleService {
        ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn identical_requests_hit_the_cache_byte_identically() {
        let service = quick_service();
        let request = SearchRequest::for_placement(v_shape(2));
        let first = service.search(&request).unwrap();
        let second = service.search(&request).unwrap();
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.schedule, second.schedule);
        // Byte-identical over the wire (modulo the cached/search_millis
        // bookkeeping fields, which describe the request, not the result).
        let render = |r: &SearchResponse| serde_json::to_string(&r.schedule).unwrap();
        assert_eq!(render(&first), render(&second));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn permuted_devices_hit_via_the_canonical_fingerprint() {
        let service = quick_service();
        let placement = v_shape(3);
        let first = service
            .search(&SearchRequest::for_placement(placement.clone()))
            .unwrap();
        let order: Vec<usize> = (0..placement.num_blocks()).collect();
        let permuted = placement.permuted(&[2, 0, 1], &order).unwrap();
        let second = service
            .search(&SearchRequest::for_placement(permuted.clone()))
            .unwrap();
        assert!(second.cached, "permuted placement should hit");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.period, second.period);
        // The returned schedule is valid *in the permuted labeling*.
        second.schedule.validate(&permuted).unwrap();
        first.schedule.validate(&placement).unwrap();
    }

    #[test]
    fn zero_deadline_times_out_without_poisoning_the_cache() {
        let service = quick_service();
        let mut request = SearchRequest::for_placement(v_shape(2));
        request.deadline_ms = Some(0);
        let err = service.search(&request).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout(_)), "{err:?}");
        assert_eq!(service.cache_entries().len(), 0);
        let snap = service.metrics_snapshot();
        assert_eq!(snap.timeouts, 1);
        // The same placement without a deadline succeeds afterwards: the
        // timeout left no poisoned entry behind.
        request.deadline_ms = None;
        let ok = service.search(&request).unwrap();
        assert!(!ok.cached);
        assert_eq!(service.cache_entries().len(), 1);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let service = quick_service();
        let mut request = SearchRequest::for_placement(v_shape(2));
        request.num_micro_batches = Some(0);
        assert!(matches!(
            service.search(&request).unwrap_err(),
            ServiceError::BadRequest(_)
        ));
        let mut request = SearchRequest::for_placement(v_shape(2));
        request.max_repetend_micro_batches = Some(99);
        assert!(matches!(
            service.search(&request).unwrap_err(),
            ServiceError::BadRequest(_)
        ));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.errors, 2);
    }

    #[test]
    fn raised_default_max_repetend_raises_the_ceiling() {
        let service = ScheduleService::new(ServiceConfig {
            default_max_repetend: 10,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(service.config().max_repetend_ceiling, 10);
        // A request relying on the default is accepted, not rejected as
        // exceeding the (now-raised) ceiling.
        let err = service.resolve_params(&SearchRequest::for_placement(v_shape(2)));
        assert!(err.is_ok());
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let service = Arc::new(quick_service());
        let placement = v_shape(4);
        let mut handles = Vec::new();
        for _ in 0..6 {
            let service = service.clone();
            let placement = placement.clone();
            handles.push(std::thread::spawn(move || {
                service
                    .search(&SearchRequest::for_placement(placement))
                    .unwrap()
            }));
        }
        let responses: Vec<SearchResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let periods: Vec<u64> = responses.iter().map(|r| r.period).collect();
        assert!(periods.windows(2).all(|w| w[0] == w[1]));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.requests, 6);
        // Every request either hit the cache, ran the one real search, or
        // was coalesced onto it — but the solver ran at most... once per
        // concurrent non-coalesced straggler; the common case is exactly one
        // miss. At minimum, coalescing plus caching must cover the rest.
        assert_eq!(
            snap.cache_hits + snap.cache_misses + snap.coalesced,
            6,
            "{snap:?}"
        );
        assert!(snap.cache_misses >= 1);
    }

    #[test]
    fn solver_effort_reaches_metrics_and_inspect() {
        use tessel_placement::shapes::{synthetic_placement, ShapeKind};
        // Every solve of a 2-device V's search is settled by its greedy
        // seeds; the 4-device M-shape's repetend solves branch.
        let m4 = || synthetic_placement(ShapeKind::M, 4).unwrap();
        let service = quick_service();
        let response = service.search(&SearchRequest::for_placement(m4())).unwrap();
        let snap = service.metrics_snapshot();
        assert!(snap.solver_solves > 0, "{snap:?}");
        assert!(snap.solver_nodes > 0, "{snap:?}");
        assert!(snap.solver_shared_memo_hits <= snap.solver_pruned_dominance);
        let rendered = snap.render_prometheus();
        assert!(rendered.contains("tessel_solver_nodes_total"));
        assert!(rendered.contains("tessel_solver_steals_total"));
        // The inspect payload carries the per-search totals.
        let inspect = service.inspect(response.fingerprint);
        assert_eq!(inspect.entries.len(), 1);
        assert_eq!(inspect.entries[0].solver.nodes, snap.solver_nodes);
        // Cache hits do not re-run the solver: the counters stay put.
        service.search(&SearchRequest::for_placement(m4())).unwrap();
        assert_eq!(service.metrics_snapshot().solver_nodes, snap.solver_nodes);
    }

    #[test]
    fn multithreaded_deadline_times_out_without_poisoning_the_cache() {
        // The cooperative-cancellation path under the work-stealing solver:
        // a 4-thread search with an (effectively) expired deadline must fail
        // with a timeout promptly, cache nothing, and leave the service able
        // to serve the same placement afterwards.
        let service = ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            solver_threads: 4,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut request = SearchRequest::for_placement(v_shape(3));
        request.solver_threads = Some(4);
        request.deadline_ms = Some(0);
        let started = Instant::now();
        let err = service.search(&request).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout(_)), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "timeout was not prompt: {:?}",
            started.elapsed()
        );
        assert_eq!(service.cache_entries().len(), 0);
        assert_eq!(service.metrics_snapshot().timeouts, 1);
        // Same placement without the deadline: clean search, cached result.
        request.deadline_ms = None;
        let ok = service.search(&request).unwrap();
        assert!(!ok.cached);
        assert_eq!(service.cache_entries().len(), 1);
    }

    #[test]
    fn solver_thread_requests_are_clamped_to_the_ceiling() {
        let service = ScheduleService::new(ServiceConfig {
            solver_threads: 2,
            max_solver_threads: 4,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut request = SearchRequest::for_placement(v_shape(2));
        assert_eq!(service.resolve_solver_threads(&request), 2);
        request.solver_threads = Some(64);
        assert_eq!(service.resolve_solver_threads(&request), 4);
        request.solver_threads = Some(3);
        assert_eq!(service.resolve_solver_threads(&request), 3);
        request.solver_threads = Some(0);
        let auto = service.resolve_solver_threads(&request);
        assert!((1..=4).contains(&auto));
    }

    #[test]
    fn inspect_returns_canonical_entries_with_utilization() {
        let service = quick_service();
        let placement = v_shape(2);
        let response = service
            .search(&SearchRequest::for_placement(placement))
            .unwrap();
        let inspect = service.inspect(response.fingerprint);
        assert_eq!(inspect.entries.len(), 1);
        let entry = &inspect.entries[0];
        assert_eq!(entry.period, response.period);
        assert_eq!(entry.utilization.devices.len(), 2);
        assert!(entry.utilization.makespan > 0);
        // Unknown fingerprints inspect to an empty list.
        assert!(service.inspect(Fingerprint(0)).entries.is_empty());
    }

    #[test]
    fn replication_is_rejected_for_fingerprints_this_node_does_not_own() {
        use crate::cluster::peers::PeerConfig;
        use crate::cluster::ClusterConfig;
        let mut cluster = ClusterConfig::new(
            "a",
            vec![PeerConfig {
                node_id: "b".into(),
                addr: "127.0.0.1:9".into(), // dead: every remote fetch degrades
            }],
        );
        cluster.probe_interval = Duration::ZERO;
        cluster.connect_timeout = Duration::from_millis(50);
        cluster.peer_timeout = Duration::from_millis(50);
        let service = ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            cluster: Some(cluster),
            ..ServiceConfig::default()
        })
        .unwrap();
        // Solve two placements and split them by ring ownership.
        for devices in [2usize, 3, 4, 5] {
            service
                .search(&SearchRequest::for_placement(v_shape(devices)))
                .unwrap();
        }
        let cluster = service.cluster().unwrap();
        let entries: Vec<_> = service
            .cache_entries()
            .iter()
            .flat_map(|row| service.cache.entries_for(row.fingerprint))
            .collect();
        for entry in entries {
            let fp = entry.fingerprint;
            // Replication PUTs carry the full entry, placement included.
            let exchange = CacheExchange {
                fingerprint: fp,
                entries: vec![WireSearchEntry::full(&entry)],
            };
            let ack = service.accept_replication(fp, &exchange);
            if cluster.owns(fp) {
                assert_eq!((ack.accepted, ack.rejected), (1, 0), "owned fp {fp}");
            } else {
                // A PUT for a fingerprint the ring assigns elsewhere would
                // park the entry where no warm-up ever finds it: reject.
                assert_eq!((ack.accepted, ack.rejected), (0, 1), "non-owned fp {fp}");
            }
        }
    }

    #[test]
    fn old_format_journal_cold_starts_and_persistence_recovers() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/service-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("old-format-{}.json", std::process::id()));
        // A pre-journal whole-file snapshot: unreadable by the replay, which
        // must cost a (warned) cold start — and the startup compaction must
        // replace the file so persistence WORKS again afterwards.
        std::fs::write(&path, "[\n  {\"key\": 1}\n]\n").unwrap();
        let config = ServiceConfig {
            cache_path: Some(path.clone()),
            default_micro_batches: 4,
            default_max_repetend: 3,
            ..ServiceConfig::default()
        };
        let request = SearchRequest::for_placement(v_shape(2));
        {
            let service = ScheduleService::new(config.clone()).unwrap();
            assert_eq!(service.cache_entries().len(), 0, "cold start");
            assert!(!service.search(&request).unwrap().cached);
        }
        // The restart replays the repaired journal, not the old array file.
        let service = ScheduleService::new(config).unwrap();
        assert!(service.search(&request).unwrap().cached);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_process_searches_populate_the_flight_recorder() {
        let service = quick_service();
        let request = SearchRequest::for_placement(v_shape(2));
        service.search(&request).unwrap(); // miss: solves
        service.search(&request).unwrap(); // hit: cache only
        let debug = service.debug_requests();
        assert_eq!(debug.recent.len(), 2, "{debug:?}");
        let hit = &debug.recent[0]; // newest first
        let miss = &debug.recent[1];
        for record in [hit, miss] {
            assert_eq!(record.method, "CALL");
            assert_eq!(record.path, "/v1/search");
            assert_eq!(record.status, 200);
            assert_eq!(record.trace_id.len(), 32);
            assert!(record.start_unix_ms > 0);
        }
        assert_ne!(hit.trace_id, miss.trace_id);
        let stage = |r: &crate::wire::FlightRecordInfo, name: &str| {
            r.stages.iter().find(|s| s.name == name).map(|s| s.micros)
        };
        assert!(
            stage(miss, "solve").is_some_and(|micros| micros > 0),
            "{miss:?}"
        );
        assert!(stage(miss, "translate").is_some(), "{miss:?}");
        assert!(stage(hit, "solve").is_none(), "hits never solve: {hit:?}");
        assert!(stage(hit, "cache_lookup").is_some(), "{hit:?}");
        // The slowest view holds both, slowest first; the miss dominates.
        assert_eq!(debug.slowest.len(), 2);
        assert_eq!(debug.slowest[0].trace_id, miss.trace_id);
        // Stage timings reached the per-stage histogram family.
        let histograms = service.metrics().render_histograms();
        assert!(
            histograms.contains("tessel_request_stage_duration_seconds_count{stage=\"solve\"} 1"),
            "{histograms}"
        );
    }

    #[test]
    fn cache_persists_across_service_restarts() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/service-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cache-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = ServiceConfig {
            cache_path: Some(path.clone()),
            default_micro_batches: 4,
            default_max_repetend: 3,
            ..ServiceConfig::default()
        };
        let request = SearchRequest::for_placement(v_shape(2));
        let first = {
            let service = ScheduleService::new(config.clone()).unwrap();
            service.search(&request).unwrap()
        };
        // A fresh service over the same snapshot starts warm.
        let service = ScheduleService::new(config).unwrap();
        let second = service.search(&request).unwrap();
        assert!(second.cached, "restarted daemon should hit its snapshot");
        assert_eq!(first.schedule, second.schedule);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_requests_dedup_to_one_solve() {
        let service = quick_service();
        let placement = v_shape(3);
        let order: Vec<usize> = (0..placement.num_blocks()).collect();
        let relabeled = placement.permuted(&[2, 0, 1], &order).unwrap();
        let mut invalid = SearchRequest::for_placement(v_shape(2));
        invalid.num_micro_batches = Some(0);
        let batch = BatchSearchRequest {
            requests: vec![
                SearchRequest::for_placement(placement.clone()),
                SearchRequest::for_placement(placement),
                SearchRequest::for_placement(relabeled.clone()),
                invalid,
            ],
        };
        let response = service.search_batch(&batch);
        assert_eq!(response.results.len(), 4);
        // Two byte-identical members plus a relabeled one share a single
        // solve; the invalid member fails alone.
        assert_eq!(response.unique_solves, 1);
        assert_eq!(response.deduped, 2);
        let first = response.results[0].ok.as_ref().unwrap();
        assert!(!response.results[0].deduped);
        for item in &response.results[1..3] {
            assert!(item.deduped);
            let ok = item.ok.as_ref().unwrap();
            assert_eq!(ok.period, first.period);
            assert_eq!(ok.fingerprint, first.fingerprint);
            assert!(ok.coalesced, "shared members ride the representative");
        }
        // The relabeled member's schedule is valid in its *own* labeling.
        response.results[2]
            .ok
            .as_ref()
            .unwrap()
            .schedule
            .validate(&relabeled)
            .unwrap();
        assert!(response.results[3].error.is_some());
        // The CI smoke asserts on exactly these deltas: one real miss, no
        // hits, the shared members counted only as deduped.
        let snap = service.metrics_snapshot();
        assert_eq!(snap.cache_misses, 1, "{snap:?}");
        assert_eq!(snap.cache_hits, 0, "{snap:?}");
        assert_eq!(snap.batch_deduped, 2, "{snap:?}");
        assert_eq!(snap.errors, 1, "{snap:?}");
    }

    #[test]
    fn stale_journal_entries_are_dropped_on_replay() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/service-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stale-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = ServiceConfig {
            cache_path: Some(path.clone()),
            default_micro_batches: 4,
            default_max_repetend: 3,
            ..ServiceConfig::default()
        };
        let request = SearchRequest::for_placement(v_shape(2));
        let fingerprint = {
            let service = ScheduleService::new(config.clone()).unwrap();
            service.search(&request).unwrap().fingerprint
        };
        // Tamper the journal: rewrite the stored fingerprint to a different
        // (well-formed) value, as if the entry had been keyed by an older
        // labeling scheme. Re-canonicalization at replay must disagree.
        let text = std::fs::read_to_string(&path).unwrap();
        let stale = Fingerprint(fingerprint.0 ^ 1);
        assert!(text.contains(&fingerprint.to_string()));
        let tampered = text.replace(&fingerprint.to_string(), &stale.to_string());
        std::fs::write(&path, tampered).unwrap();
        let service = ScheduleService::new(config).unwrap();
        assert_eq!(service.cache_entries().len(), 0, "stale entry must drop");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.journal_stale_dropped, 1, "{snap:?}");
        // The same placement solves cleanly afterwards (no poisoned state),
        // and the startup compaction already purged the dead record.
        assert!(!service.search(&request).unwrap().cached);
        let compacted = std::fs::read_to_string(&path).unwrap();
        assert!(!compacted.contains(&stale.to_string()));
        let _ = std::fs::remove_file(&path);
    }
}
