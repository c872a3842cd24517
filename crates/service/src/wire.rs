//! JSON wire types of the daemon's HTTP API.
//!
//! Requests deserialize leniently (optional fields may be omitted entirely);
//! responses serialize every field, deterministically, so identical cached
//! results render to byte-identical JSON.

use crate::cache::{CacheParams, CachedSearch};
use serde::{Deserialize, Error as SerdeError, Reader, Serialize, Writer};
use tessel_core::fingerprint::Fingerprint;
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::Schedule;
use tessel_runtime::metrics::UtilizationSummary;
use tessel_solver::SolverTotals;

/// A `POST /v1/search` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchRequest {
    /// The placement to schedule. Device labels and block order are
    /// irrelevant for cache identity: requests canonicalize to the same
    /// fingerprint whenever they describe isomorphic placements.
    pub placement: PlacementSpec,
    /// Micro-batches the composed schedule should cover; the service default
    /// applies when omitted.
    #[serde(default)]
    pub num_micro_batches: Option<usize>,
    /// `NR` cap for the repetend search; the service default applies when
    /// omitted.
    #[serde(default)]
    pub max_repetend_micro_batches: Option<usize>,
    /// Per-request deadline in milliseconds. A search (or a coalesced wait)
    /// running past it fails with a timeout error and nothing is cached.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Admission priority. Higher values are admitted first; among equal
    /// priorities the earliest deadline wins. Under overload, the lowest
    /// priority / latest deadline waiting request is shed first. Defaults to
    /// `0`; does not participate in cache identity.
    #[serde(default)]
    pub priority: Option<i64>,
}

impl SearchRequest {
    /// A request for `placement` with every tuning knob left at the service
    /// default.
    #[must_use]
    pub fn for_placement(placement: PlacementSpec) -> Self {
        SearchRequest {
            placement,
            num_micro_batches: None,
            max_repetend_micro_batches: None,
            deadline_ms: None,
            priority: None,
        }
    }
}

/// A successful `POST /v1/search` response body.
///
/// The schedule and per-device utilization are expressed in the **request's**
/// device labeling and stage numbering — cache hits against a permuted
/// equivalent are translated back before they are returned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResponse {
    /// Canonical fingerprint of the requested placement (the cache identity).
    pub fingerprint: Fingerprint,
    /// `true` if the result came from the cache.
    pub cached: bool,
    /// `true` if this request was coalesced onto another request's in-flight
    /// search instead of running its own.
    pub coalesced: bool,
    /// Micro-batches the composed schedule covers.
    pub num_micro_batches: usize,
    /// The winning repetend period `t_R`.
    pub period: u64,
    /// `NR` of the winning repetend.
    pub repetend_micro_batches: usize,
    /// Steady-state bubble rate of the repetend.
    pub bubble_rate: f64,
    /// The composed schedule, in the request's labeling.
    pub schedule: Schedule,
    /// Simulated per-device utilization of the schedule, in the request's
    /// labeling.
    pub utilization: UtilizationSummary,
    /// Wall-clock milliseconds the underlying search took (0 for pure cache
    /// hits).
    pub search_millis: u64,
}

/// One server-sent event of a streaming `POST /v1/search?stream=1` response.
///
/// Incumbent events arrive while the search runs; exactly one terminal event
/// ([`StreamEvent::Result`] or [`StreamEvent::Error`]) ends the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// The search found a repetend that improves its answer and passed its
    /// phase check: one event per improving repetend, values strictly
    /// decreasing, the last equal to the result's `period`.
    Incumbent {
        /// The improving repetend's period: what the search would return if
        /// it stopped now.
        value: u64,
        /// Microseconds since the request arrived: since the daemon's event
        /// loop read the bytes that completed it.
        elapsed_us: u64,
    },
    /// Terminal: the completed search response.
    Result(SearchResponse),
    /// Terminal: the search failed with the given HTTP status and error.
    Error {
        /// The HTTP status the non-streaming endpoint would have returned.
        status: u16,
        /// The error body.
        body: ErrorBody,
    },
}

// Hand-written, unlike every other type here: the vendored derive only knows
// externally tagged enums (`{"Incumbent": {...}}`), and these frames are
// internally tagged — a lowercase `event` key next to the variant's fields.
impl Serialize for StreamEvent {
    fn write_json(&self, writer: &mut Writer<'_>) {
        let mut map = writer.map();
        match self {
            StreamEvent::Incumbent { value, elapsed_us } => {
                map.key("\"event\":").str("incumbent");
                map.key("\"value\":").u64(*value);
                map.key("\"elapsed_us\":").u64(*elapsed_us);
            }
            StreamEvent::Result(response) => {
                map.key("\"event\":").str("result");
                response.write_json(map.key("\"response\":"));
            }
            StreamEvent::Error { status, body } => {
                map.key("\"event\":").str("error");
                map.key("\"status\":").u64(u64::from(*status));
                body.write_json(map.key("\"body\":"));
            }
        }
        map.end();
    }
}

impl Deserialize for StreamEvent {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, SerdeError> {
        // The `event` tag says how to read the other keys, and it may come
        // last: every key's value is parsed (and its first occurrence kept
        // as text) now, and read as its type once the tag is known. Keys the
        // tag does not ask for are never read as anything.
        let mut raw: [Option<&str>; 6] = [None; 6];
        const KEYS: [&str; 6] = ["event", "value", "elapsed_us", "response", "status", "body"];
        let mut entries = reader.map()?;
        while let Some(key) = entries.key()? {
            let text = entries.value().skip()?;
            if let Some(slot) = KEYS.iter().position(|k| *k == key) {
                raw[slot].get_or_insert(text);
            }
        }
        fn read<T: Deserialize>(raw: Option<&str>, name: &str) -> Result<T, SerdeError> {
            let text = raw.ok_or_else(|| SerdeError::custom(format!("missing field `{name}`")))?;
            T::deserialize(&mut Reader::new(text))
        }
        let [event, value, elapsed_us, response, status, body] = raw;
        match read::<String>(event, "event")?.as_str() {
            "incumbent" => Ok(StreamEvent::Incumbent {
                value: read(value, "value")?,
                elapsed_us: read(elapsed_us, "elapsed_us")?,
            }),
            "result" => Ok(StreamEvent::Result(read(response, "response")?)),
            "error" => Ok(StreamEvent::Error {
                status: read(status, "status")?,
                body: read(body, "body")?,
            }),
            other => Err(SerdeError::custom(format!(
                "unknown stream event `{other}`"
            ))),
        }
    }
}

/// One row of the `GET /v1/cache` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntryInfo {
    /// Canonical fingerprint of the cached placement.
    pub fingerprint: Fingerprint,
    /// Micro-batches the cached schedule covers.
    pub num_micro_batches: usize,
    /// `NR` cap the search ran with.
    pub max_repetend_micro_batches: usize,
    /// Winning repetend period.
    pub period: u64,
    /// Steady-state bubble rate.
    pub bubble_rate: f64,
    /// Devices of the placement.
    pub num_devices: usize,
    /// Blocks per micro-batch.
    pub num_blocks: usize,
    /// Times this entry was served from the cache.
    pub hits: u64,
    /// Wall-clock milliseconds the original search took.
    pub search_millis: u64,
}

/// One cache entry as the inspect endpoint serves it: a [`CachedSearch`]
/// without its canonical placement, in canonical labeling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSearchEntry {
    /// Canonical fingerprint of the placement.
    pub fingerprint: Fingerprint,
    /// Parameters the search ran with.
    pub params: CacheParams,
    /// The composed schedule, in canonical labeling.
    pub schedule: Schedule,
    /// Winning repetend period `t_R`.
    pub period: u64,
    /// `NR` of the winning repetend.
    pub repetend_micro_batches: usize,
    /// Steady-state bubble rate of the repetend.
    pub bubble_rate: f64,
    /// Simulated per-device utilization, in canonical labeling.
    pub utilization: UtilizationSummary,
    /// Aggregate solver effort of the original search.
    pub solver: SolverTotals,
    /// Wall-clock milliseconds the search took.
    pub search_millis: u64,
}

impl From<&CachedSearch> for WireSearchEntry {
    fn from(entry: &CachedSearch) -> Self {
        WireSearchEntry {
            fingerprint: entry.fingerprint,
            params: entry.params,
            schedule: entry.schedule.clone(),
            period: entry.period,
            repetend_micro_batches: entry.repetend_micro_batches,
            bubble_rate: entry.bubble_rate,
            utilization: entry.utilization.clone(),
            solver: entry.solver,
            search_millis: entry.search_millis,
        }
    }
}

/// A `GET /v1/cache/{fingerprint}` response body: every cached entry for the
/// fingerprint (one per parameter combination), in canonical labeling,
/// without the canonical placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InspectResponse {
    /// The fingerprint that was looked up.
    pub fingerprint: Fingerprint,
    /// Cached entries, most recently used first.
    pub entries: Vec<WireSearchEntry>,
}

/// One per-stage timing row of a flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimingInfo {
    /// Stage name (see the span taxonomy in `docs/ARCHITECTURE.md`).
    pub name: String,
    /// Wall-clock microseconds spent in the stage.
    pub micros: u64,
}

/// One completed request in the `GET /v1/debug/requests` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightRecordInfo {
    /// The request's trace ID (32 lowercase hex characters).
    pub trace_id: String,
    /// HTTP method, or `"CALL"` for in-process searches.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Unix milliseconds when the request started.
    pub start_unix_ms: u64,
    /// Total wall-clock microseconds.
    pub total_micros: u64,
    /// Per-stage breakdown, in execution order.
    pub stages: Vec<StageTimingInfo>,
}

/// The `GET /v1/debug/requests` response body: the flight recorder's two
/// bounded views.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DebugRequestsResponse {
    /// Ring-buffer capacity of the recent view.
    pub capacity: u64,
    /// The last requests, newest first.
    pub recent: Vec<FlightRecordInfo>,
    /// The slowest requests since startup, slowest first.
    pub slowest: Vec<FlightRecordInfo>,
}

/// One in-flight request in the `GET /v1/debug/inflight` response.
///
/// Solver progress fields (`nodes`, `incumbent`, …) are relaxed-atomic
/// snapshots of the request's live progress board; they read as zero while a
/// request is still queued or waiting on the cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InflightInfo {
    /// The request's trace ID.
    pub trace_id: String,
    /// HTTP method, or `"CALL"` for in-process searches.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Peer address of the client connection, when known.
    #[serde(default)]
    pub peer: Option<String>,
    /// The stage the request is currently in: `queued` until its first
    /// timed stage, then the last one started (`decode`, `validate`,
    /// `canonicalize`, `cache_lookup`, `singleflight_wait`, `solve`,
    /// `translate`, `serialize`).
    pub stage: String,
    /// Milliseconds since the request arrived (the read that completed it).
    pub elapsed_ms: u64,
    /// Milliseconds until the request's deadline, when it has one. Zero when
    /// the deadline has already passed.
    #[serde(default)]
    pub deadline_remaining_ms: Option<u64>,
    /// Search nodes explored so far by this request's solves: repetend
    /// solves, phase probes and phase optimisations alike.
    pub nodes: u64,
    /// Best period so far: that of the last repetend that improved the
    /// search's answer and passed its phase check — the period the search
    /// would return if it stopped now.
    #[serde(default)]
    pub incumbent: Option<u64>,
    /// Improving repetends so far: how often `incumbent` has moved.
    pub incumbents: u64,
    /// Finish vectors a full dominance memo declined to record so far (a
    /// rising count explains an exploding node count: the solve re-explores
    /// states it can no longer remember).
    #[serde(default)]
    pub memo_drops: u64,
    /// Search depth of the running solve at its most recent node-count
    /// flush, once any of this request's solves has flushed.
    #[serde(default)]
    pub depth: Option<u64>,
}

/// The `GET /v1/debug/inflight` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InflightResponse {
    /// Every request a thread is working on, oldest first; queued requests
    /// show in `tessel_admission_queue_depth`.
    pub inflight: Vec<InflightInfo>,
}

/// The `GET /v1/debug/timeseries` response body is the sampler ring's own
/// window over the daemon's sampled counters and gauges, one
/// [`SeriesWindow`] per series.
pub use tessel_obs::{SeriesWindow, TimeSeriesWindow};

/// One span of an assembled trace timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpanInfo {
    /// The daemon that recorded the span: always `"local"`.
    pub node: String,
    /// Stage name, or `"request"` for a whole-request envelope span.
    pub name: String,
    /// Span start, Unix milliseconds.
    pub start_unix_ms: u64,
    /// Wall-clock microseconds the span lasted.
    pub micros: u64,
    /// HTTP method of the request the span belongs to.
    pub method: String,
    /// Path of the request the span belongs to.
    pub path: String,
    /// Status of the request the span belongs to.
    pub status: u16,
}

/// The `GET /v1/debug/trace/{trace_id}` response body: one trace's span
/// timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceAssemblyResponse {
    /// The trace that was assembled.
    pub trace_id: String,
    /// The daemons that contributed spans: `["local"]`, or empty when the
    /// flight recorder holds no record of the trace.
    pub nodes: Vec<String>,
    /// All spans, sorted by start time.
    pub spans: Vec<TraceSpanInfo>,
}

/// The `GET`/`PUT /v1/debug/loglevel` body: the daemon's live log level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogLevelBody {
    /// Level name: `error`, `warn`, `info`, `debug` or `trace`.
    pub level: String,
}

/// An error response body (any non-2xx status).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Machine-readable error kind (`bad_request`, `timeout`, `search`,
    /// `unavailable`, `not_found`).
    pub kind: String,
    /// Human-readable description.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_core::ir::BlockKind;

    fn v2() -> PlacementSpec {
        let mut b = PlacementSpec::builder("v2", 2);
        let f0 = b
            .add_block("f0", BlockKind::Forward, [0], 1, 1, [])
            .unwrap();
        b.add_block("f1", BlockKind::Forward, [1], 1, 1, [f0])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn request_round_trips_and_tolerates_missing_fields() {
        let full = SearchRequest {
            placement: v2(),
            num_micro_batches: Some(6),
            max_repetend_micro_batches: Some(3),
            deadline_ms: Some(250),
            priority: Some(-2),
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: SearchRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, full);

        // Only the placement is mandatory.
        let minimal = format!(
            "{{\"placement\": {}}}",
            serde_json::to_string(&v2()).unwrap()
        );
        let parsed: SearchRequest = serde_json::from_str(&minimal).unwrap();
        assert_eq!(parsed.placement, v2());
        assert_eq!(parsed.num_micro_batches, None);
        assert_eq!(parsed.deadline_ms, None);
        assert_eq!(parsed.priority, None);

        let missing: Result<SearchRequest, _> = serde_json::from_str("{}");
        assert!(missing.is_err());
    }

    #[test]
    fn stream_events_round_trip() {
        let incumbent = StreamEvent::Incumbent {
            value: 17,
            elapsed_us: 4_321,
        };
        let json = serde_json::to_string(&incumbent).unwrap();
        assert!(
            json.contains("\"event\": \"incumbent\"") || json.contains("\"event\":\"incumbent\"")
        );
        let back: StreamEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, incumbent);

        let error = StreamEvent::Error {
            status: 408,
            body: ErrorBody {
                kind: "timeout".into(),
                error: "deadline exceeded".into(),
            },
        };
        let back: StreamEvent =
            serde_json::from_str(&serde_json::to_string(&error).unwrap()).unwrap();
        assert_eq!(back, error);

        let unknown: Result<StreamEvent, _> = serde_json::from_str("{\"event\":\"nope\"}");
        assert!(unknown.is_err());
    }

    #[test]
    fn observability_bodies_round_trip() {
        let inflight = InflightResponse {
            inflight: vec![
                InflightInfo {
                    trace_id: "f".repeat(32),
                    method: "POST".into(),
                    path: "/v1/search".into(),
                    peer: Some("127.0.0.1:50000".into()),
                    stage: "solve".into(),
                    elapsed_ms: 42,
                    deadline_remaining_ms: Some(958),
                    nodes: 12_345,
                    incumbent: Some(17),
                    incumbents: 3,
                    memo_drops: 7,
                    depth: Some(9),
                },
                InflightInfo {
                    trace_id: "0".repeat(32),
                    method: "CALL".into(),
                    path: "/v1/search".into(),
                    peer: None,
                    stage: "queued".into(),
                    elapsed_ms: 1,
                    deadline_remaining_ms: None,
                    nodes: 0,
                    incumbent: None,
                    incumbents: 0,
                    memo_drops: 0,
                    depth: None,
                },
            ],
        };
        let json = serde_json::to_string(&inflight).unwrap();
        let back: InflightResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inflight);

        let timeseries = TimeSeriesWindow {
            interval_ms: 1000,
            ticks: 2,
            latest_unix_ms: 1_700_000_002_000,
            series: vec![SeriesWindow {
                name: "requests_per_s".into(),
                samples: vec![1.0, 3.0],
                last: 3.0,
                min: 1.0,
                max: 3.0,
                avg: 2.0,
                p50: 1.0,
                p95: 3.0,
            }],
        };
        let back: TimeSeriesWindow =
            serde_json::from_str(&serde_json::to_string(&timeseries).unwrap()).unwrap();
        assert_eq!(back, timeseries);

        let trace = TraceAssemblyResponse {
            trace_id: "a".repeat(32),
            nodes: vec!["local".into()],
            spans: vec![TraceSpanInfo {
                node: "local".into(),
                name: "cache_lookup".into(),
                start_unix_ms: 1_700_000_000_000,
                micros: 55,
                method: "POST".into(),
                path: "/v1/search".into(),
                status: 200,
            }],
        };
        let back: TraceAssemblyResponse =
            serde_json::from_str(&serde_json::to_string(&trace).unwrap()).unwrap();
        assert_eq!(back, trace);

        let level = LogLevelBody {
            level: "debug".into(),
        };
        let back: LogLevelBody =
            serde_json::from_str(&serde_json::to_string(&level).unwrap()).unwrap();
        assert_eq!(back, level);
    }
}
