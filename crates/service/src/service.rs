//! The in-process schedule-search service.
//!
//! [`ScheduleService`] is the transport-independent heart of the daemon: the
//! HTTP layer, the CLI client's `--in-process` mode, the benches and the
//! tests all drive this same object. A search request flows through:
//!
//! 1. **Canonicalization** — the placement's canonical labeling is computed
//!    ([`PlacementSpec::canonical_labeling_budgeted`]); the fingerprint plus
//!    the resolved search parameters form the cache key. Device relabelings
//!    and block reorderings of a known placement therefore hit the cache. The
//!    canonical placement itself is built only for a search.
//! 2. **Cache lookup** — a hit returns immediately, as an [`Answer`]: the
//!    cached canonical schedule seen through the request's own labeling.
//! 3. **Single-flight** — concurrent identical misses elect one leader; the
//!    rest block (bounded by their own deadlines) and share the result.
//! 4. **Search** — the leader runs [`TesselSearch`] with the request's
//!    deadline as [`SearchConfig::deadline`], the one instant every solver
//!    of the search stops at, simulates the winning schedule for the
//!    utilization summary, and populates the cache. A request's deadline is
//!    `deadline_ms` (or the configured default) counted from its arrival:
//!    the instant the HTTP event loop finished parsing it, or the call, in
//!    process. Timeouts and failures are **not** cached.

use crate::answer::Answer;
use crate::cache::{CacheConfig, CacheJournal, CacheKey, CacheParams, CachedSearch, ShardedCache};
use crate::flight::{FlightQuery, FlightRecorder};
use crate::inflight::{self, HandedBooks, InflightRegistry, RequestBooks, Stage};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::singleflight::{Joined, SingleFlight};
use crate::wire::{
    CacheEntryInfo, DebugRequestsResponse, FlightRecordInfo, InflightResponse, InspectResponse,
    SearchRequest, SearchResponse, TraceAssemblyResponse, TraceSpanInfo, WireSearchEntry,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tessel_core::fingerprint::{CanonicalLabeling, Fingerprint};
use tessel_core::ir::PlacementSpec;
use tessel_core::search::{SearchConfig, TesselSearch};
use tessel_core::CoreError;
use tessel_runtime::{instantiate, simulate, ClusterSpec, CommMode};

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
    /// Kept for callers that still state the search's worker count: the
    /// candidate loop is serial, and [`ScheduleService::new`] accepts only 1.
    pub portfolio_threads: usize,
    /// Kept for callers that still state each solve's thread count: every
    /// daemon solve is serial, and [`ScheduleService::new`] accepts only 1.
    pub solver_threads: usize,
    /// Optional cap on candidates per `NR` level.
    pub candidate_limit: Option<usize>,
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Option<Duration>,
    /// Journal appends between compactions of the cache persistence file.
    pub journal_compact_every: usize,
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
            candidate_limit: None,
            default_deadline: Some(Duration::from_secs(60)),
            journal_compact_every: 64,
            canon_node_budget: tessel_core::fingerprint::DEFAULT_NODE_BUDGET,
        }
    }
}

/// The schedule-search service. Cheap to share behind an [`Arc`]; all methods
/// take `&self` and are thread-safe.
///
/// [`ScheduleService::search`] is a blocking call: the HTTP transport's
/// event loop never invokes it. The loop runs only the probe of a search
/// (up to the cache lookup) and its translation on a hit; everything that
/// can wait — a single-flight follower, a solve — runs on the bounded worker
/// pool, whose threads push the finished response back to the loop (see
/// [`crate::http`]). In-process callers (benches, tests,
/// `examples/service_quickstart.rs`) simply call it from their own threads.
#[derive(Debug)]
pub struct ScheduleService {
    config: ServiceConfig,
    cache: ShardedCache,
    journal: Option<CacheJournal>,
    metrics: ServiceMetrics,
    flights: SingleFlight<Result<Arc<CachedSearch>, ServiceError>>,
    recorder: FlightRecorder,
    inflight: InflightRegistry,
}

/// A validated request, resolved to what the cache / single-flight / solve
/// pipeline keys on. It borrows nothing, so a probed miss can travel to a
/// worker beside the request it was made from.
struct Prepared {
    labeling: CanonicalLabeling,
    params: CacheParams,
    key: CacheKey,
    deadline: Option<Instant>,
}

/// A search request taken as far as its cache lookup: the first half of
/// [`ScheduleService::answer`], made by [`ScheduleService::probe`] and
/// finished by [`ScheduleService::resume`]. The HTTP event loop probes a
/// search itself and resumes it on the spot when nothing that could block
/// is left — a hit, or a request the probe refused; a miss travels to a
/// worker with its probe, so no stage runs twice.
pub(crate) struct Probe {
    arrived: Instant,
    /// The prepared request and, on a hit, its cache entry.
    found: Result<(Prepared, Option<Arc<CachedSearch>>), ServiceError>,
}

impl Probe {
    /// The lookup missed: the rest of the answer may wait on a single-flight
    /// leader or a solve.
    pub(crate) fn is_miss(&self) -> bool {
        matches!(self.found, Ok((_, None)))
    }
}

/// How a cache entry was obtained, before translation into the requester's
/// labeling. `cached`/`coalesced` become the response's bookkeeping fields.
struct Obtained {
    entry: Arc<CachedSearch>,
    cached: bool,
    coalesced: bool,
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

/// The `node` of every assembled-trace span: the daemon that answers.
const LOCAL_NODE: &str = "local";

/// Expands one flight record into assembled-trace spans: a whole-request
/// envelope span named `request`, then one span per recorded stage laid out
/// back-to-back from the request's start.
fn push_record_spans(spans: &mut Vec<TraceSpanInfo>, record: &FlightRecordInfo) {
    let base = record.start_unix_ms;
    spans.push(TraceSpanInfo {
        node: LOCAL_NODE.to_string(),
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
            node: LOCAL_NODE.to_string(),
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
    /// Returns [`std::io::ErrorKind::InvalidInput`] for a zero
    /// `default_micro_batches` or `default_max_repetend` (every request
    /// relying on the default would be rejected as the client's fault) and
    /// for any `portfolio_threads` or `solver_threads` but 1. Propagates
    /// snapshot read failures.
    /// A missing snapshot is fine, and a snapshot that no longer parses
    /// (corrupt, or written by an older daemon with a different entry
    /// layout) is skipped with a warning — an incompatible cache file must
    /// cost a cold start, not a crash loop.
    pub fn new(mut config: ServiceConfig) -> std::io::Result<Self> {
        let invalid = |what: &str| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, what));
        if config.default_micro_batches == 0 {
            return invalid("default_micro_batches must be at least 1");
        }
        if config.default_max_repetend == 0 {
            return invalid("default_max_repetend must be at least 1");
        }
        if config.portfolio_threads != 1 {
            return invalid("portfolio_threads must be 1: the search is serial");
        }
        if config.solver_threads != 1 {
            return invalid("solver_threads must be 1: every daemon solve is serial");
        }
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
                let (labeling, stats) = entry
                    .canonical_placement
                    .canonical_labeling_budgeted(canon_budget);
                !stats.budget_exhausted && labeling.fingerprint == entry.fingerprint
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
        Ok(ScheduleService {
            config,
            cache,
            journal,
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
    /// pipeline) under books of its own, which close to a flight record: its
    /// deadline counts from this call.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for malformed requests, deadline timeouts and
    /// infeasible searches.
    pub fn search(&self, request: &SearchRequest) -> Result<SearchResponse, ServiceError> {
        self.answer(request).map(|answer| answer.to_response())
    }

    /// As [`ScheduleService::search`], stopping at the translated answer:
    /// the HTTP transport writes it straight into the response body instead
    /// of building a [`SearchResponse`] to serialize.
    ///
    /// # Errors
    ///
    /// As [`ScheduleService::search`].
    pub fn answer<'r>(&self, request: &'r SearchRequest) -> Result<Answer<'r>, ServiceError> {
        // An in-process caller has no transport, so this open keeps the
        // books and its close yields the flight record. (The HTTP transport
        // opens the books itself, with the client's or a freshly minted
        // trace ID and the peer, and calls `probe` and `resume` directly.)
        let arrived = Instant::now();
        let books = self.open_request(None, "CALL", "/v1/search", None, arrived);
        let probe = self.probe(request, arrived);
        let result = self.resume(request, probe);
        let status = result
            .as_ref()
            .map_or_else(ServiceError::http_status, |_| 200);
        self.record_flight(books.close(status));
        result
    }

    /// Counts one failed request under the timeout or the error counter, by
    /// what failed it.
    fn count_failure(&self, error: &ServiceError) {
        let counter = match error {
            ServiceError::Timeout(_) => &self.metrics.timeouts,
            _ => &self.metrics.errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Validates and canonicalizes `request`, which arrived at `arrived`,
    /// and looks it up in the cache, counting it as a request (and, when
    /// found, as a hit). The request's deadline and latency count from
    /// `arrived`.
    pub(crate) fn probe(&self, request: &SearchRequest, arrived: Instant) -> Probe {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let found = self.prepare(request, arrived).map(|prepared| {
            inflight::with_current(|entry| entry.set_deadline(prepared.deadline));
            let hit = inflight::stage(Stage::CacheLookup, || self.cache_lookup(&prepared));
            if hit.is_some() {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            (prepared, hit)
        });
        Probe { arrived, found }
    }

    /// Finishes the answer `probe` began for `request`: on a miss the
    /// single-flight election and, for the leader, the solve; then the
    /// translation into the request's labeling. Counts a failure and the
    /// request's latency.
    pub(crate) fn resume<'r>(
        &self,
        request: &'r SearchRequest,
        probe: Probe,
    ) -> Result<Answer<'r>, ServiceError> {
        let result = probe.found.and_then(|(prepared, hit)| {
            let Obtained {
                entry,
                cached,
                coalesced,
            } = match hit {
                Some(entry) => Obtained {
                    entry,
                    cached: true,
                    coalesced: false,
                },
                None => self.obtain_missed(&prepared, &request.placement)?,
            };
            // The entry seen through the request's own labeling.
            Ok(inflight::stage(Stage::Translate, || {
                Answer::new(
                    entry,
                    prepared.labeling,
                    &request.placement,
                    cached,
                    coalesced,
                )
            }))
        });
        if let Err(e) = &result {
            self.count_failure(e);
        }
        self.metrics.record_latency(probe.arrived.elapsed());
        result
    }

    /// Closes the account `probe` opened for a request the transport shed
    /// before it could resume: counts it as a failure and records its
    /// latency, so every counted request still ends as exactly one of a
    /// hit, a miss, a coalesce or a failure.
    pub(crate) fn abandon(&self, probe: Probe) {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_latency(probe.arrived.elapsed());
    }

    /// Validates a request and resolves everything the pipeline needs to
    /// know about it: parameters, canonical labeling, cache key and absolute
    /// deadline.
    fn prepare(&self, request: &SearchRequest, arrived: Instant) -> Result<Prepared, ServiceError> {
        inflight::stage(Stage::Validate, || request.placement.validate())
            .map_err(|e| ServiceError::BadRequest(format!("invalid placement: {e}")))?;
        let params = self.resolve_params(request)?;
        let labeling = inflight::stage(Stage::Canonicalize, || {
            self.canonical_labeling(&request.placement)
        });
        Ok(Prepared {
            key: CacheKey::new(labeling.fingerprint, &params),
            labeling,
            params,
            deadline: request
                .deadline_ms
                .map(|ms| arrived + Duration::from_millis(ms))
                .or_else(|| self.config.default_deadline.map(|d| arrived + d)),
        })
    }

    /// Resolves a request whose cache lookup missed to its entry: the
    /// single-flight election and — for the leader — the solve. Counts the
    /// request as exactly one of a miss or a coalesce.
    fn obtain_missed(
        &self,
        prepared: &Prepared,
        placement: &PlacementSpec,
    ) -> Result<Obtained, ServiceError> {
        let Prepared { key, deadline, .. } = *prepared;
        match inflight::stage(Stage::SingleflightWait, || {
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
                // between our lookup and the flight election.
                let (result, solved) = match inflight::stage(Stage::CacheLookup, || {
                    self.cache_lookup(prepared)
                }) {
                    Some(entry) => (Ok(entry), false),
                    None => {
                        let result =
                            inflight::stage(Stage::Solve, || self.run_search(prepared, placement));
                        (result, true)
                    }
                };
                guard.disarm_and_complete(result.clone());
                // Journal outside the flight: followers are already awake,
                // so they never wait on the append (or on the occasional
                // whole-cache compaction it triggers).
                if let (true, Ok(entry)) = (solved, &result) {
                    self.persist_insert(key, entry);
                }
                let entry = result?;
                self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                Ok(Obtained {
                    entry,
                    cached: false,
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

    /// The canonical labeling of a placement under the configured node
    /// budget. A search that hits the budget completes greedily (bounded
    /// latency; relabeled variants may land on different fingerprints and
    /// miss each other's cache entries) and counts in
    /// `tessel_fingerprint_canon_budget_exhausted_total`.
    fn canonical_labeling(&self, placement: &PlacementSpec) -> CanonicalLabeling {
        let (labeling, stats) =
            placement.canonical_labeling_budgeted(self.config.canon_node_budget);
        if stats.budget_exhausted {
            self.metrics
                .canon_budget_exhausted
                .fetch_add(1, Ordering::Relaxed);
            tessel_obs::warn(
                "fingerprint",
                "canonical-labeling node budget exhausted; labeling completed greedily",
                &[
                    ("fingerprint", &labeling.fingerprint.to_string()),
                    ("budget", &self.config.canon_node_budget.to_string()),
                ],
            );
        }
        labeling
    }

    /// Cache lookup trusting fingerprint equality: the exact canonical
    /// labeling guarantees equal fingerprints mean equal canonical forms, so
    /// only the stored parameters are re-checked (the answer oracle in
    /// `tests/json_codec.rs` holds the labeling to that guarantee).
    fn cache_lookup(&self, prepared: &Prepared) -> Option<Arc<CachedSearch>> {
        let entry = self.cache.get(prepared.key)?;
        (entry.params == prepared.params && entry.fingerprint == prepared.labeling.fingerprint)
            .then_some(entry)
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

    /// Runs the actual search (leader path) and populates the cache on
    /// success.
    fn run_search(
        &self,
        prepared: &Prepared,
        placement: &PlacementSpec,
    ) -> Result<Arc<CachedSearch>, ServiceError> {
        let Prepared {
            ref params,
            key,
            deadline,
            ..
        } = *prepared;
        let canonical = prepared.labeling.canonical_placement(placement);
        self.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let _guard = InFlightGuard(&self.metrics);

        let started = Instant::now();
        let mut config = SearchConfig::default()
            .with_micro_batches(params.num_micro_batches)
            .with_max_repetend_micro_batches(params.max_repetend_micro_batches)
            // Pinned, not left to the default: `SolverConfig::default()`
            // reads `TESSEL_TEST_THREADS`.
            .with_solver_threads(1)
            .with_deadline(deadline);
        config.candidate_limit = self.config.candidate_limit;
        // The leading request's board, when one is registered, watches the
        // whole search: every solve's nodes and totals, and each improving
        // period (the anytime answer `/v1/debug/inflight` shows and an SSE
        // reply streams).
        config.progress = inflight::with_current(|entry| entry.board().clone());

        let outcome = TesselSearch::new(config)
            .run(&canonical)
            .map_err(|e| match e {
                CoreError::DeadlineExceeded => {
                    ServiceError::Timeout("search exceeded the request deadline".into())
                }
                other => ServiceError::Search(other.to_string()),
            })?;
        let search_millis = started.elapsed().as_millis() as u64;
        self.metrics.record_solver(&outcome.stats.solver);

        // Simulate the schedule on the reference cluster for the
        // machine-readable utilization summary.
        let cluster = ClusterSpec::v100_cluster(canonical.num_devices());
        let utilization = instantiate(&canonical, &outcome.schedule, CommMode::NonBlocking)
            .and_then(|program| simulate(&program, &cluster, CommMode::NonBlocking))
            .map(|report| report.utilization_summary())
            .map_err(|e| ServiceError::Search(format!("simulation failed: {e}")))?;

        let entry = Arc::new(CachedSearch {
            fingerprint: prepared.labeling.fingerprint,
            params: *params,
            bubble_rate: outcome.repetend.bubble_rate(&canonical),
            canonical_placement: canonical,
            schedule: outcome.schedule,
            period: outcome.repetend.period,
            repetend_micro_batches: outcome.repetend.num_micro_batches(),
            utilization,
            solver: outcome.stats.solver,
            search_millis,
        });
        // The caller journals the insert after completing the flight.
        self.cache.insert(key, entry.clone());
        Ok(entry)
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
    /// (`GET /v1/cache/{fingerprint}`), without the canonical placement.
    #[must_use]
    pub fn inspect(&self, fingerprint: Fingerprint) -> InspectResponse {
        InspectResponse {
            fingerprint,
            entries: self
                .cache
                .entries_for(fingerprint)
                .iter()
                .map(|e| WireSearchEntry::from(&**e))
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

    /// Opens one request's books on the calling thread (see
    /// [`crate::inflight`]): registers it on the live in-flight registry
    /// under `trace_id` (a fresh ID when `None`), its clock counting from
    /// `arrived`, and opens its trace context. The HTTP transport opens
    /// every request on the event loop, from the instant the loop read it
    /// (a worker takes the books over when the loop hands the request on),
    /// and [`ScheduleService::answer`] opens each in-process call from the
    /// instant of the call. A thread keeps one request's books at a time.
    pub fn open_request(
        &self,
        trace_id: Option<tessel_obs::TraceId>,
        method: &str,
        path: &str,
        peer: Option<String>,
        arrived: Instant,
    ) -> RequestBooks<'_> {
        self.inflight
            .open(&self.metrics, trace_id, method, path, peer, arrived)
    }

    /// Puts a request's books, handed over by the thread that opened them,
    /// on the calling thread (see [`crate::inflight::HandedBooks`]): the
    /// HTTP worker that answers a request the event loop handed on, or the
    /// loop itself when it sheds one.
    pub(crate) fn take_over_request(&self, handed: HandedBooks) -> RequestBooks<'_> {
        self.inflight.take_over(&self.metrics, handed)
    }

    /// The `GET /v1/debug/inflight` response body: every request a thread is
    /// working on, oldest first, with live solver progress; queued requests
    /// show in `tessel_admission_queue_depth`.
    #[must_use]
    pub fn debug_inflight(&self) -> InflightResponse {
        self.inflight.snapshot()
    }

    /// Assembles the span timeline of one trace
    /// (`GET /v1/debug/trace/{trace_id}`): every record the flight recorder
    /// retains for the trace, as one start-sorted span list. Stage spans are
    /// laid out back-to-back after their request's start, which is exact for
    /// the sequential pipeline stages and approximate for overlapping solver
    /// sub-phases.
    #[must_use]
    pub fn assemble_trace(&self, trace_id: &str) -> TraceAssemblyResponse {
        let mut spans: Vec<TraceSpanInfo> = Vec::new();
        for record in self.recorder.find_by_trace(trace_id) {
            push_record_spans(&mut spans, &record);
        }
        spans.sort_by_key(|span| span.start_unix_ms);
        TraceAssemblyResponse {
            trace_id: trace_id.to_string(),
            nodes: (!spans.is_empty())
                .then(|| LOCAL_NODE.to_string())
                .into_iter()
                .collect(),
            spans,
        }
    }

    /// Deposits one closed request's record into the flight recorder (its
    /// stages were counted when its books closed). Called by the HTTP
    /// transport once per request, after the response write, and by
    /// [`ScheduleService::search`] for in-process callers.
    pub fn record_flight(&self, record: FlightRecordInfo) {
        self.recorder.record(record);
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

    /// `ScheduleService::new`'s answer to `config`, which must be a refusal.
    fn refused(config: ServiceConfig) -> std::io::Error {
        let err = ScheduleService::new(config).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        err
    }

    #[test]
    fn a_zero_default_micro_batch_count_is_refused_at_startup() {
        let err = refused(ServiceConfig {
            default_micro_batches: 0,
            ..ServiceConfig::default()
        });
        assert!(err.to_string().contains("default_micro_batches"), "{err}");
    }

    #[test]
    fn a_zero_default_repetend_cap_is_refused_at_startup() {
        let err = refused(ServiceConfig {
            default_max_repetend: 0,
            ..ServiceConfig::default()
        });
        assert!(err.to_string().contains("default_max_repetend"), "{err}");
    }

    #[test]
    fn a_second_portfolio_worker_is_refused_at_startup() {
        let err = refused(ServiceConfig {
            portfolio_threads: 2,
            ..ServiceConfig::default()
        });
        assert!(err.to_string().contains("portfolio_threads"), "{err}");
    }

    #[test]
    fn a_second_solver_thread_is_refused_at_startup() {
        for threads in [0, 2] {
            let err = refused(ServiceConfig {
                solver_threads: threads,
                ..ServiceConfig::default()
            });
            assert!(err.to_string().contains("solver_threads"), "{err}");
        }
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
        let rendered = snap.render_prometheus();
        assert!(rendered.contains("tessel_solver_nodes_total"));
        assert!(rendered.contains("tessel_solver_memo_drops_total"));
        // The inspect payload carries the per-search totals.
        let inspect = service.inspect(response.fingerprint);
        assert_eq!(inspect.entries.len(), 1);
        assert_eq!(inspect.entries[0].solver.nodes, snap.solver_nodes);
        // Cache hits do not re-run the solver: the counters stay put.
        service.search(&SearchRequest::for_placement(m4())).unwrap();
        assert_eq!(service.metrics_snapshot().solver_nodes, snap.solver_nodes);
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

    /// Forges a 64-bit fingerprint collision in `service`'s cache: the
    /// 2-device V's entry, with its fingerprint and parameters rewritten to
    /// the 3-device V request's, filed under that request's key. Returns the
    /// request.
    fn forge_collision(service: &ScheduleService) -> SearchRequest {
        let donor = service
            .search(&SearchRequest::for_placement(v_shape(2)))
            .unwrap();
        let donor = service.cache.entries_for(donor.fingerprint)[0].clone();
        let request = SearchRequest::for_placement(v_shape(3));
        let params = service.resolve_params(&request).unwrap();
        let fingerprint = service.canonical_labeling(&request.placement).fingerprint;
        let key = CacheKey::new(fingerprint, &params);
        let forged = CachedSearch {
            fingerprint,
            params,
            ..(*donor).clone()
        };
        service.cache.insert(key, Arc::new(forged));
        request
    }

    #[test]
    fn trusted_lookups_serve_a_forged_collision_as_cached() {
        // The lookup believes the fingerprint and serves the donor's
        // schedule, which does not fit the request's placement: a 64-bit
        // collision is the one thing the exact labeling cannot rule out.
        let service = quick_service();
        let request = forge_collision(&service);
        let served = service.search(&request).unwrap();
        assert!(served.cached);
        assert!(served.schedule.validate(&request.placement).is_err());
        assert_eq!(served.utilization.devices.len(), 2);
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
