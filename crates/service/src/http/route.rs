//! URL → handler → [`Response`].
//!
//! This module owns one decision: *what a request line means* — which
//! handler a method and path select, how the query string is read, and what
//! status and body the handler's outcome becomes. It knows nothing about
//! sockets or connections, and of the request's books only the `decode` and
//! `serialize` stages it times; a worker hands it a parsed request and gets
//! back an un-encoded response. (The route table itself is documented once,
//! in the parent module.)

use super::parse::ParsedRequest;
use super::TIMESERIES_CAPACITY;
use crate::flight::now_unix_ms;
use crate::inflight::{self, Stage};
use crate::metrics::TransportMetrics;
use crate::service::ScheduleService;
use crate::wire::ErrorBody;
use serde::Serialize;
use tessel_core::fingerprint::Fingerprint;

/// Room reserved for a `/v1/search` answer (7-13 KB for the built-in
/// shapes), so the body is not copied from buffer to larger buffer while it
/// is written.
const ANSWER_CAPACITY: usize = 16 * 1024;

/// An un-encoded response produced by the router.
pub(super) struct Response {
    pub(super) status: u16,
    pub(super) content_type: &'static str,
    pub(super) body: String,
}

/// Splits a request target into its path and query string (`""` without a
/// `?`).
pub(crate) fn split_target(target: &str) -> (&str, &str) {
    target.split_once('?').unwrap_or((target, ""))
}

/// The one reader of a query string: its non-empty `&`-separated pairs as
/// `(key, value)`, a bare key carrying no value.
fn query_pairs(query: &str) -> impl Iterator<Item = (&str, Option<&str>)> {
    let pairs = query.split('&').filter(|pair| !pair.is_empty());
    pairs.map(|pair| match pair.split_once('=') {
        Some((key, value)) => (key, Some(value)),
        None => (pair, None),
    })
}

/// The value of the first `key=value` pair in `query`.
fn query_value<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query_pairs(query).find_map(|(k, value)| value.filter(|_| k == key))
}

/// `true` when the request asks for anytime incumbent streaming:
/// `POST /v1/search?stream=1`.
pub(super) fn stream_requested(request: &ParsedRequest) -> bool {
    let (path, query) = split_target(&request.path);
    request.method == "POST"
        && path == "/v1/search"
        && query_pairs(query).any(|pair| pair == ("stream", Some("1")))
}

pub(super) fn route(
    service: &ScheduleService,
    transport: &TransportMetrics,
    timeseries: Option<&tessel_obs::TimeSeries>,
    request: &ParsedRequest,
) -> Response {
    handle(service, transport, timeseries, request).unwrap_or_else(|refusal| refusal)
}

/// The route table. `Err` is a response too — the early exit of a handler
/// whose input does not hold up.
fn handle(
    service: &ScheduleService,
    transport: &TransportMetrics,
    timeseries: Option<&tessel_obs::TimeSeries>,
    request: &ParsedRequest,
) -> Result<Response, Response> {
    let (path, query) = split_target(&request.path);
    let body = request.body.as_str();
    let cluster_only = || not_found("cluster mode is not enabled");
    Ok(match (request.method.as_str(), path) {
        ("POST", "/v1/search") => {
            let search_request: crate::wire::SearchRequest = decode(body, "invalid request body")?;
            match service.answer(&search_request) {
                // Written from the cache entry itself: no `SearchResponse`
                // is built on the way to the body.
                Ok(answer) => inflight::stage(Stage::Serialize, || {
                    let mut body = String::with_capacity(ANSWER_CAPACITY);
                    answer.write_json(&mut body);
                    Response {
                        status: 200,
                        content_type: "application/json",
                        body,
                    }
                }),
                Err(e) => error_response(e.http_status(), e.kind(), &e.to_string()),
            }
        }
        ("GET", "/v1/cache") => json_response(200, &service.cache_entries()),
        ("GET", path) if path.starts_with("/v1/cache/") => {
            let fingerprint = fingerprint_after(path, "/v1/cache/")?;
            let inspect = service.inspect(fingerprint);
            if inspect.entries.is_empty() {
                return Err(not_found(&format!("no entry for {fingerprint}")));
            }
            json_response(200, &inspect)
        }
        // Internal cluster entry exchange: a non-owner daemon replicates a
        // locally solved entry to its ring owner. Every entry is re-validated
        // before insertion (see `ScheduleService::accept_replication`).
        ("PUT", path) if path.starts_with("/v1/cache/") => {
            service.cluster().ok_or_else(cluster_only)?;
            let fingerprint = fingerprint_after(path, "/v1/cache/")?;
            let exchange: crate::wire::CacheExchange = decode(body, "invalid exchange body")?;
            let ack = service.accept_replication(fingerprint, &exchange);
            let ok = ack.accepted > 0 || ack.rejected == 0;
            json_response(if ok { 200 } else { 400 }, &ack)
        }
        ("GET", "/v1/cluster") => {
            let fingerprint = query_value(query, "fp").and_then(Fingerprint::parse);
            let status = service
                .cluster_status(fingerprint)
                .ok_or_else(cluster_only)?;
            json_response(200, &status)
        }
        // Internal warm-up stream: every cached entry owned (per this
        // daemon's ring) by the requesting node, grouped by fingerprint.
        ("GET", path) if path.starts_with("/v1/cluster/export/") => {
            let node = &path["/v1/cluster/export/".len()..];
            let exchanges = service
                .export_owned(node)
                .ok_or_else(|| not_found(&format!("`{node}` is not a member of this cluster")))?;
            json_response(200, &exchanges)
        }
        // The flight recorder: the last N completed requests with per-stage
        // timing breakdowns, plus the slowest requests seen since startup.
        // Filterable: `?status=408&min_micros=50000&endpoint=/v1/search&trace=…`.
        ("GET", "/v1/debug/requests") => {
            let flight_query = parse_flight_query(query)?;
            json_response(200, &service.debug_requests_filtered(&flight_query))
        }
        // Live in-flight requests with their solver progress boards.
        ("GET", "/v1/debug/inflight") => json_response(200, &service.debug_inflight()),
        // Windowed live-plane rates and gauges (`?window=N` ticks, default
        // the whole retained ring).
        ("GET", "/v1/debug/timeseries") => {
            let timeseries = timeseries.ok_or_else(|| {
                not_found("the live-plane sampler is disabled (sample_interval_ms = 0)")
            })?;
            let ticks = match query_value(query, "window") {
                Some(raw) => match raw.parse() {
                    Ok(ticks) if ticks > 0 => ticks,
                    _ => return Err(bad_request(&format!("invalid window `{raw}`"))),
                },
                None => TIMESERIES_CAPACITY,
            };
            let window = timeseries.window(ticks);
            let response = crate::wire::TimeseriesResponse {
                interval_ms: window.interval_ms,
                ticks: window.ticks as u64,
                latest_unix_ms: window.latest_unix_ms,
                series: window
                    .series
                    .into_iter()
                    .map(|series| crate::wire::SeriesWindowInfo {
                        name: series.name,
                        samples: series.samples,
                        last: series.last,
                        min: series.min,
                        max: series.max,
                        avg: series.avg,
                        p50: series.p50,
                        p95: series.p95,
                    })
                    .collect(),
            };
            json_response(200, &response)
        }
        // Fleet-wide trace assembly: local flight records plus every healthy
        // peer's, merged into one clock-adjusted span timeline.
        ("GET", path) if path.starts_with("/v1/debug/trace/") => {
            let raw = &path["/v1/debug/trace/".len()..];
            let trace_id = tessel_obs::TraceId::parse(raw)
                .ok_or_else(|| bad_request(&format!("invalid trace id `{raw}`")))?;
            json_response(200, &service.assemble_trace(trace_id.as_str()))
        }
        ("GET", "/v1/debug/loglevel") => {
            let level = tessel_obs::level().as_str().to_string();
            json_response(200, &crate::wire::LogLevelBody { level })
        }
        // Runtime log-level control. The change is announced at the *old*
        // level so turning logging down leaves one last trace of who did it.
        ("PUT", "/v1/debug/loglevel") => {
            let wanted: crate::wire::LogLevelBody = decode(body, "invalid body")?;
            let level: tessel_obs::Level = wanted
                .level
                .parse()
                .map_err(|_| bad_request(&format!("unknown log level `{}`", wanted.level)))?;
            let previous = tessel_obs::set_level(level);
            tessel_obs::log(
                previous,
                "http",
                "log level changed",
                &[("from", previous.as_str()), ("to", level.as_str())],
            );
            let (level, previous) = (level.as_str(), previous.as_str());
            Response {
                status: 200,
                content_type: "application/json",
                body: format!("{{\"level\":\"{level}\",\"previous\":\"{previous}\"}}"),
            }
        }
        ("GET", "/metrics") => {
            let mut body = service.metrics_snapshot().render_prometheus()
                + &service.metrics().render_histograms()
                + &transport.snapshot().render_prometheus()
                + &transport.render_admission_wait();
            if let Some(cluster) = service.cluster_snapshot() {
                body += &cluster.render_prometheus();
            }
            if let Some(timeseries) = timeseries {
                timeseries.render_prometheus(&mut body);
            }
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body,
            }
        }
        // The `unix_ms` clock stamp feeds peer clock-offset estimation: the
        // health prober reads it against its own send time and probe RTT.
        ("GET", "/healthz") => Response {
            status: 200,
            content_type: "application/json",
            body: format!("{{\"status\":\"ok\",\"unix_ms\":{}}}", now_unix_ms()),
        },
        (_, path) => not_found(&format!("no route for {path}")),
    })
}

/// Parses the `GET /v1/debug/requests` filter query
/// (`status=…&min_micros=…&endpoint=…&trace=…`); unknown keys are ignored,
/// unparseable numbers are an error.
fn parse_flight_query(query: &str) -> Result<crate::flight::FlightQuery, Response> {
    let mut flight_query = crate::flight::FlightQuery::default();
    for (key, value) in query_pairs(query) {
        let value = value.unwrap_or("");
        match key {
            "status" => flight_query.status = Some(parse_number(value, key)?),
            "min_micros" => flight_query.min_micros = Some(parse_number(value, key)?),
            "endpoint" => flight_query.endpoint = Some(value.to_string()),
            "trace" => flight_query.trace = Some(value.to_string()),
            _ => {}
        }
    }
    Ok(flight_query)
}

/// A numeric query value, or `400` "invalid `key` `raw`".
fn parse_number<T: std::str::FromStr>(raw: &str, key: &str) -> Result<T, Response> {
    raw.parse()
        .map_err(|_| bad_request(&format!("invalid {key} `{raw}`")))
}

/// The fingerprint that follows `prefix` in `path`, or `400`.
fn fingerprint_after(path: &str, prefix: &str) -> Result<Fingerprint, Response> {
    let raw = &path[prefix.len()..];
    Fingerprint::parse(raw).ok_or_else(|| bad_request(&format!("invalid fingerprint `{raw}`")))
}

/// Decodes a JSON request body as the `decode` stage of the request's trace,
/// or answers `400` "`what`: the decoder's complaint".
fn decode<T: serde::Deserialize>(body: &str, what: &str) -> Result<T, Response> {
    decode_json(body).map_err(|e| bad_request(&format!("{what}: {e}")))
}

fn bad_request(message: &str) -> Response {
    error_response(400, "bad_request", message)
}

fn not_found(message: &str) -> Response {
    error_response(404, "not_found", message)
}

pub(super) fn error_response(status: u16, kind: &str, message: &str) -> Response {
    let body = ErrorBody {
        kind: kind.into(),
        error: message.into(),
    };
    json_response(status, &body)
}

/// A JSON response with `value` as its body.
fn json_response<T: Serialize>(status: u16, value: &T) -> Response {
    Response {
        status,
        content_type: "application/json",
        body: render_json(value),
    }
}

/// Decodes a JSON request body as the `decode` stage of the request's trace.
pub(super) fn decode_json<T: serde::Deserialize>(body: &str) -> serde_json::Result<T> {
    inflight::stage(Stage::Decode, || serde_json::from_str(body))
}

pub(super) fn render_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e}\"}}"))
}
