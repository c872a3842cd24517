//! Behaviour pins for the daemon's observable surface: the `/metrics`
//! exposition, the metric snapshots' JSON, the wire types' JSON and the three
//! HTTP client entry points. The goldens were taken from the commit *before*
//! the service crate's metric tables, derived wire impls and shared response
//! reader landed, so this suite passes unmodified on both sides of that
//! change — a renamed series, a reordered field or a changed byte on the wire
//! fails here.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use tessel::core::ir::{BlockKind, PlacementSpec};
use tessel::service::http::{http_call, http_call_streaming};
use tessel::service::wire::{
    BatchSearchItem, BatchSearchRequest, ErrorBody, InflightInfo, SearchRequest, SearchResponse,
    StreamEvent, WireSearchEntry,
};
use tessel::service::{
    ClusterConfig, ClusterMetrics, HttpClient, HttpServer, MetricsSnapshot, ScheduleService,
    ServerConfig, ServiceConfig, ServiceMetrics, TransportMetrics, TransportSnapshot,
};

fn v2() -> PlacementSpec {
    let mut b = PlacementSpec::builder("v2", 2);
    let f0 = b
        .add_block("f0", BlockKind::Forward, [0], 1, 1, [])
        .unwrap();
    b.add_block("f1", BlockKind::Forward, [1], 1, 1, [f0])
        .unwrap();
    b.build().unwrap()
}

fn start_server() -> (HttpServer, String) {
    start_server_with(ServiceConfig::default())
}

fn start_server_with(config: ServiceConfig) -> (HttpServer, String) {
    let service = ScheduleService::new(ServiceConfig {
        default_micro_batches: 2,
        default_max_repetend: 2,
        ..config
    })
    .unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        sample_interval_ms: 0,
        ..ServerConfig::default()
    };
    let server = HttpServer::serve(Arc::new(service), &config).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Serializes `$value`, checks the text against `$pinned`, and checks that the
/// text decodes back to an equal `$ty`. (A macro, not a generic function: the
/// root package does not depend on `serde` for the trait bounds.)
macro_rules! assert_pinned {
    ($ty:ty, $value:expr, $pinned:expr) => {{
        let value: &$ty = &$value;
        let pinned: &str = &$pinned;
        assert_eq!(serde_json::to_string(value).unwrap(), pinned);
        assert_eq!(&serde_json::from_str::<$ty>(pinned).unwrap(), value);
    }};
}

// ---------------------------------------------------------------------------
// (a) Metrics: exposition text and snapshot JSON
// ---------------------------------------------------------------------------

/// Replaces the value token of every sample line with `_`, leaving `# HELP`,
/// `# TYPE`, series names and labels (in order) as the comparable shape.
fn blank_values(exposition: &str) -> String {
    exposition
        .lines()
        .map(|line| {
            if line.starts_with('#') {
                line.to_string()
            } else {
                let (series, _value) = line.rsplit_once(' ').expect("sample line has a value");
                format!("{series} _")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn metrics_page_matches_the_golden_exposition() {
    let (server, addr) = start_server();
    let (status, page) = http_call(&addr, "GET", "/metrics", None).unwrap();
    server.shutdown();
    assert_eq!(status, 200);
    let golden = include_str!("golden/metrics_exposition.txt");
    let shape = blank_values(&page);
    if shape != golden {
        for (number, (got, want)) in shape.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "first difference at line {}", number + 1);
        }
        assert_eq!(
            shape.lines().count(),
            golden.lines().count(),
            "exposition length changed"
        );
    }
}

const CLUSTER_EXPOSITION: &str = "\
# HELP tessel_cluster_remote_hits_total Local misses served by the ring owner's cache.
# TYPE tessel_cluster_remote_hits_total counter
tessel_cluster_remote_hits_total 4
# HELP tessel_cluster_remote_misses_total Local misses the ring owner also missed.
# TYPE tessel_cluster_remote_misses_total counter
tessel_cluster_remote_misses_total 0
# HELP tessel_cluster_remote_errors_total Owner fetches that degraded to a local solve.
# TYPE tessel_cluster_remote_errors_total counter
tessel_cluster_remote_errors_total 0
# HELP tessel_cluster_replications_sent_total Entries successfully replicated to their owner.
# TYPE tessel_cluster_replications_sent_total counter
tessel_cluster_replications_sent_total 0
# HELP tessel_cluster_replications_received_total Entries accepted from a non-owner daemon.
# TYPE tessel_cluster_replications_received_total counter
tessel_cluster_replications_received_total 0
# HELP tessel_cluster_replications_rejected_total Replication payloads rejected by validation.
# TYPE tessel_cluster_replications_rejected_total counter
tessel_cluster_replications_rejected_total 0
# HELP tessel_cluster_replication_errors_total Replication deliveries that failed.
# TYPE tessel_cluster_replication_errors_total counter
tessel_cluster_replication_errors_total 0
# HELP tessel_cluster_replication_dropped_total Replication jobs dropped by the bounded queue.
# TYPE tessel_cluster_replication_dropped_total counter
tessel_cluster_replication_dropped_total 0
# HELP tessel_cluster_warmup_entries_total Entries streamed from peers during startup warm-up.
# TYPE tessel_cluster_warmup_entries_total counter
tessel_cluster_warmup_entries_total 7
# HELP tessel_cluster_peers Configured peers.
# TYPE tessel_cluster_peers gauge
tessel_cluster_peers 2
# HELP tessel_cluster_peers_healthy Peers whose last contact succeeded.
# TYPE tessel_cluster_peers_healthy gauge
tessel_cluster_peers_healthy 1
# HELP tessel_cluster_circuits_open Peers with an open circuit right now.
# TYPE tessel_cluster_circuits_open gauge
tessel_cluster_circuits_open 1
";

#[test]
fn cluster_exposition_and_snapshot_json_are_pinned() {
    let cluster = ClusterMetrics::new();
    cluster.remote_hits.fetch_add(4, Ordering::Relaxed);
    cluster.warmup_entries.fetch_add(7, Ordering::Relaxed);
    let snapshot = cluster.snapshot(2, 1, 1);
    assert_eq!(snapshot.render_prometheus(), CLUSTER_EXPOSITION);
    assert_eq!(
        serde_json::to_string(&snapshot).unwrap(),
        "{\"remote_hits\":4,\"remote_misses\":0,\"remote_errors\":0,\"replications_sent\":0,\
         \"replications_received\":0,\"replications_rejected\":0,\"replication_errors\":0,\
         \"replication_dropped\":0,\"warmup_entries\":7,\"peers_total\":2,\"peers_healthy\":1,\
         \"circuits_open\":1}"
    );
}

#[test]
fn service_and_transport_snapshot_json_are_pinned() {
    let service = ServiceMetrics::new();
    let counters = [
        &service.requests,
        &service.cache_hits,
        &service.cache_misses,
        &service.coalesced,
        &service.timeouts,
        &service.errors,
        &service.in_flight,
        &service.solver_solves,
        &service.solver_nodes,
        &service.solver_pruned_bound,
        &service.solver_pruned_dominance,
        &service.solver_steals,
        &service.solver_shared_memo_hits,
        &service.solver_cas_retries,
        &service.solver_steal_failures,
        &service.solver_memo_drops,
        &service.fingerprint_paranoia_mismatches,
        &service.fingerprint_wire_mismatches,
        &service.canon_budget_exhausted,
        &service.batch_deduped,
        &service.journal_stale_dropped,
    ];
    for (index, counter) in counters.iter().enumerate() {
        counter.fetch_add(index as u64 + 1, Ordering::Relaxed);
    }
    service.record_latency(std::time::Duration::from_micros(100));
    let snapshot: MetricsSnapshot = service.snapshot(30, 31);
    let json = serde_json::to_string(&snapshot).unwrap();
    assert_eq!(
        json,
        "{\"requests\":1,\"cache_hits\":2,\"cache_misses\":3,\"coalesced\":4,\"timeouts\":5,\
         \"errors\":6,\"in_flight\":7,\"solver_solves\":8,\"solver_nodes\":9,\
         \"solver_pruned_bound\":10,\"solver_pruned_dominance\":11,\"solver_steals\":12,\
         \"solver_shared_memo_hits\":13,\"solver_cas_retries\":14,\"solver_steal_failures\":15,\
         \"solver_memo_drops\":16,\"fingerprint_paranoia_mismatches\":17,\
         \"fingerprint_wire_mismatches\":18,\"canon_budget_exhausted\":19,\"batch_deduped\":20,\
         \"journal_stale_dropped\":21,\"hit_rate\":0.4,\"cache_entries\":30,\
         \"cache_evictions\":31,\"latency_p50_ms\":0.128,\"latency_p99_ms\":0.128}"
    );
    assert_eq!(
        serde_json::from_str::<MetricsSnapshot>(&json).unwrap(),
        snapshot
    );
    // The fields that joined after the first journaled snapshots still
    // default when absent.
    let old: MetricsSnapshot = serde_json::from_str(
        "{\"requests\":1,\"cache_hits\":2,\"cache_misses\":3,\"coalesced\":4,\"timeouts\":5,\
         \"errors\":6,\"in_flight\":7,\"solver_solves\":8,\"solver_nodes\":9,\
         \"solver_pruned_bound\":10,\"solver_pruned_dominance\":11,\"solver_steals\":12,\
         \"solver_shared_memo_hits\":13,\"hit_rate\":0.4,\"cache_entries\":30,\
         \"cache_evictions\":31,\"latency_p50_ms\":0.128,\"latency_p99_ms\":0.128}",
    )
    .unwrap();
    assert_eq!(old.solver_cas_retries, 0);
    assert_eq!(old.journal_stale_dropped, 0);
    assert_eq!(old.solver_shared_memo_hits, 13);

    let transport = TransportMetrics::new();
    let counters = [
        &transport.connections_open,
        &transport.connections_idle,
        &transport.connections_accepted,
        &transport.keepalive_reuses,
        &transport.pipelined_requests,
        &transport.idle_closed,
        &transport.rejected_per_ip,
        &transport.admission_queue_depth,
        &transport.admission_shed,
    ];
    for (index, counter) in counters.iter().enumerate() {
        counter.fetch_add(index as u64 + 1, Ordering::Relaxed);
    }
    let snapshot: TransportSnapshot = transport.snapshot();
    let json = serde_json::to_string(&snapshot).unwrap();
    assert_eq!(
        json,
        "{\"connections_open\":1,\"connections_idle\":2,\"connections_accepted\":3,\
         \"keepalive_reuses\":4,\"pipelined_requests\":5,\"idle_closed\":6,\
         \"rejected_per_ip\":7,\"admission_queue_depth\":8,\"admission_shed\":9}"
    );
    assert_eq!(
        serde_json::from_str::<TransportSnapshot>(&json).unwrap(),
        snapshot
    );
    let old: TransportSnapshot = serde_json::from_str(
        "{\"connections_open\":1,\"connections_idle\":2,\"connections_accepted\":3,\
         \"keepalive_reuses\":4,\"pipelined_requests\":5,\"idle_closed\":6,\
         \"rejected_per_ip\":7}",
    )
    .unwrap();
    assert_eq!(old.admission_shed, 0);
}

// ---------------------------------------------------------------------------
// (b) Wire types: exact JSON, round trips, lenient request decoding
// ---------------------------------------------------------------------------

const PLACEMENT: &str = "{\"name\":\"v2\",\"num_devices\":2,\"memory_capacity\":null,\"blocks\":[\
    {\"name\":\"f0\",\"kind\":\"Forward\",\"devices\":[0],\"time\":1,\"memory\":1,\"deps\":[],\
    \"flops\":0.0,\"output_bytes\":0},\
    {\"name\":\"f1\",\"kind\":\"Forward\",\"devices\":[1],\"time\":1,\"memory\":1,\"deps\":[0],\
    \"flops\":0.0,\"output_bytes\":0}]}";

const SCHEDULE: &str = "{\"num_devices\":2,\"num_micro_batches\":2,\"blocks\":[\
    {\"stage\":0,\"micro_batch\":0,\"start\":0,\"duration\":1,\"devices\":[0],\"kind\":\"Forward\",\
    \"memory\":1},\
    {\"stage\":0,\"micro_batch\":1,\"start\":1,\"duration\":1,\"devices\":[0],\"kind\":\"Forward\",\
    \"memory\":1},\
    {\"stage\":1,\"micro_batch\":0,\"start\":1,\"duration\":1,\"devices\":[1],\"kind\":\"Forward\",\
    \"memory\":1},\
    {\"stage\":1,\"micro_batch\":1,\"start\":2,\"duration\":1,\"devices\":[1],\"kind\":\"Forward\",\
    \"memory\":1}],\"repetend\":{\"start\":0,\"period\":1,\"copies\":2}}";

const UTILIZATION: &str = "{\"makespan\":3,\"num_micro_batches\":2,\
    \"mean_busy_fraction\":0.6666666666666666,\"max_wait_fraction\":0.33333333333333337,\
    \"devices\":[\
    {\"device\":0,\"busy\":2,\"comm\":0,\"wait\":1,\"busy_fraction\":0.6666666666666666,\
    \"comm_fraction\":0.0,\"wait_fraction\":0.33333333333333337,\"peak_memory\":2},\
    {\"device\":1,\"busy\":2,\"comm\":0,\"wait\":1,\"busy_fraction\":0.6666666666666666,\
    \"comm_fraction\":0.0,\"wait_fraction\":0.33333333333333337,\"peak_memory\":2}]}";

const SOLVER: &str = "{\"solves\":1,\"nodes\":0,\"pruned_bound\":0,\"pruned_dominance\":0,\
    \"steals\":0,\"shared_memo_hits\":0,\"cas_retries\":0,\"steal_failures\":0,\"memo_drops\":0,\
    \"warmstart_micros\":0,\"parallel_micros\":0}";

/// The `SearchResponse` a fresh daemon gives for [`v2`] at two micro-batches.
fn response_json() -> String {
    format!(
        "{{\"fingerprint\":\"a848f80aa8627b05\",\"cached\":false,\"coalesced\":false,\
         \"num_micro_batches\":2,\"period\":1,\"repetend_micro_batches\":1,\"bubble_rate\":0.0,\
         \"schedule\":{SCHEDULE},\"utilization\":{UTILIZATION},\"search_millis\":0}}"
    )
}

/// A cache entry in wire form, with or without its canonical placement.
fn entry_json(with_placement: bool) -> String {
    let placement = if with_placement {
        format!("\"canonical_placement\":{PLACEMENT},")
    } else {
        String::new()
    };
    format!(
        "{{\"fingerprint\":\"a848f80aa8627b05\",\
         \"params\":{{\"num_micro_batches\":2,\"max_repetend_micro_batches\":2}},{placement}\
         \"schedule\":{SCHEDULE},\"period\":1,\"repetend_micro_batches\":1,\"bubble_rate\":0.0,\
         \"utilization\":{UTILIZATION},\"solver\":{SOLVER},\"search_millis\":0}}"
    )
}

#[test]
fn search_requests_serialize_every_field_and_decode_leniently() {
    let bare = SearchRequest::for_placement(v2());
    assert_pinned!(
        SearchRequest,
        bare,
        format!(
            "{{\"placement\":{PLACEMENT},\"num_micro_batches\":null,\
             \"max_repetend_micro_batches\":null,\"deadline_ms\":null,\"solver_threads\":null,\
             \"priority\":null}}"
        )
    );
    let tuned = SearchRequest {
        placement: v2(),
        num_micro_batches: Some(6),
        max_repetend_micro_batches: Some(3),
        deadline_ms: Some(250),
        solver_threads: Some(4),
        priority: Some(-2),
    };
    let tuned_json = format!(
        "{{\"placement\":{PLACEMENT},\"num_micro_batches\":6,\"max_repetend_micro_batches\":3,\
         \"deadline_ms\":250,\"solver_threads\":4,\"priority\":-2}}"
    );
    assert_pinned!(SearchRequest, tuned, tuned_json);

    // Only the placement is mandatory; every option reads `None` when absent.
    let minimal: SearchRequest =
        serde_json::from_str(&format!("{{\"placement\": {PLACEMENT}}}")).unwrap();
    assert_eq!(minimal, bare);
    assert!(serde_json::from_str::<SearchRequest>("{}").is_err());
    assert!(serde_json::from_str::<SearchRequest>(&format!(
        "{{\"placement\":{PLACEMENT},\"priority\":\"high\"}}"
    ))
    .is_err());

    let batch = BatchSearchRequest {
        requests: vec![bare, tuned],
    };
    assert_pinned!(
        BatchSearchRequest,
        batch,
        format!(
            "{{\"requests\":[{{\"placement\":{PLACEMENT},\"num_micro_batches\":null,\
             \"max_repetend_micro_batches\":null,\"deadline_ms\":null,\"solver_threads\":null,\
             \"priority\":null}},{tuned_json}]}}"
        )
    );
    assert!(serde_json::from_str::<BatchSearchRequest>("{}").is_err());
}

#[test]
fn batch_items_omit_the_absent_side() {
    let response: SearchResponse = serde_json::from_str(&response_json()).unwrap();
    let ok_only = BatchSearchItem {
        ok: Some(response),
        error: None,
        deduped: true,
    };
    assert_pinned!(
        BatchSearchItem,
        ok_only,
        format!("{{\"ok\":{},\"deduped\":true}}", response_json())
    );
    let error_only = BatchSearchItem {
        ok: None,
        error: Some(ErrorBody {
            kind: "bad_request".into(),
            error: "nope".into(),
        }),
        deduped: false,
    };
    assert_pinned!(
        BatchSearchItem,
        error_only,
        "{\"error\":{\"kind\":\"bad_request\",\"error\":\"nope\"},\"deduped\":false}"
    );
    // `deduped` joined the item later: absent reads `false`.
    let old: BatchSearchItem =
        serde_json::from_str("{\"error\":{\"kind\":\"search\",\"error\":\"x\"}}").unwrap();
    assert!(!old.deduped && old.ok.is_none());
}

#[test]
fn wire_entries_ship_the_placement_only_when_present() {
    let full: WireSearchEntry = serde_json::from_str(&entry_json(true)).unwrap();
    assert_eq!(full.canonical_placement, Some(v2()));
    assert_pinned!(WireSearchEntry, full, entry_json(true));

    let mut slim = full;
    slim.canonical_placement = None;
    assert!(!entry_json(false).contains("canonical_placement"));
    assert_pinned!(WireSearchEntry, slim, entry_json(false));
    // An explicit null decodes like an absent key.
    let nulled = entry_json(true).replace(PLACEMENT, "null");
    assert_eq!(
        serde_json::from_str::<WireSearchEntry>(&nulled).unwrap(),
        slim
    );
}

#[test]
fn inflight_rows_serialize_absent_options_as_null() {
    let queued = InflightInfo {
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
        steals: 0,
        memo_drops: 0,
        worker_depths: vec![],
    };
    assert_pinned!(
        InflightInfo,
        queued,
        "{\"trace_id\":\"00000000000000000000000000000000\",\"method\":\"CALL\",\
         \"path\":\"/v1/search\",\"peer\":null,\"stage\":\"queued\",\"elapsed_ms\":1,\
         \"deadline_remaining_ms\":null,\"nodes\":0,\"incumbent\":null,\"incumbents\":0,\
         \"steals\":0,\"memo_drops\":0,\"worker_depths\":[]}"
    );
    let solving = InflightInfo {
        peer: Some("127.0.0.1:50000".into()),
        stage: "solve".into(),
        deadline_remaining_ms: Some(958),
        nodes: 12_345,
        incumbent: Some(17),
        incumbents: 3,
        steals: 2,
        memo_drops: 7,
        worker_depths: vec![4, 9],
        ..queued.clone()
    };
    assert_pinned!(
        InflightInfo,
        solving,
        "{\"trace_id\":\"00000000000000000000000000000000\",\"method\":\"CALL\",\
         \"path\":\"/v1/search\",\"peer\":\"127.0.0.1:50000\",\"stage\":\"solve\",\
         \"elapsed_ms\":1,\"deadline_remaining_ms\":958,\"nodes\":12345,\"incumbent\":17,\
         \"incumbents\":3,\"steals\":2,\"memo_drops\":7,\"worker_depths\":[4,9]}"
    );
    // The three options may be left out entirely.
    let sparse: InflightInfo = serde_json::from_str(
        "{\"trace_id\":\"00000000000000000000000000000000\",\"method\":\"CALL\",\
         \"path\":\"/v1/search\",\"stage\":\"queued\",\"elapsed_ms\":1,\"nodes\":0,\
         \"incumbents\":0,\"steals\":0,\"worker_depths\":[]}",
    )
    .unwrap();
    assert_eq!(sparse, queued);
}

// ---------------------------------------------------------------------------
// (c) The three client entry points against a live server
// ---------------------------------------------------------------------------

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(key, _)| key.eq_ignore_ascii_case(name))
        .map(|(_, value)| value.as_str())
}

/// `response_json()` with the two fields that legitimately vary per call
/// overwritten, for comparing bodies across cold and cached answers.
fn normalized(mut response: SearchResponse) -> SearchResponse {
    response.cached = false;
    response.search_millis = 0;
    response
}

#[test]
fn client_entry_points_return_what_they_always_did() {
    let (server, addr) = start_server();
    let body = serde_json::to_string(&SearchRequest::for_placement(v2())).unwrap();
    let expected: SearchResponse = serde_json::from_str(&response_json()).unwrap();

    // One-shot call: the server closes the connection after answering.
    let (status, health) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(health.starts_with("{\"status\":\"ok\",\"unix_ms\":"));
    let (status, payload) = http_call(&addr, "POST", "/v1/search", Some(&body)).unwrap();
    assert_eq!(status, 200);
    let cold: SearchResponse = serde_json::from_str(&payload).unwrap();
    assert!(!cold.cached);
    assert_eq!(normalized(cold), expected);
    let (status, payload) = http_call(&addr, "GET", "/nowhere", None).unwrap();
    assert_eq!(status, 404);
    assert_eq!(
        payload,
        "{\"kind\":\"not_found\",\"error\":\"no route for /nowhere\"}"
    );
    let after_one_shots = server.transport_snapshot();
    assert_eq!(after_one_shots.connections_accepted, 3);
    assert_eq!(after_one_shots.keepalive_reuses, 0);

    // Keep-alive client: two calls, one connection, headers returned.
    let mut client = HttpClient::new(&addr).unwrap();
    let trace = "00112233445566778899aabbccddeeff";
    for call in 0..2 {
        let (status, headers, payload) = client
            .call_with_headers(
                "POST",
                "/v1/search",
                Some(&body),
                &[("X-Tessel-Trace-Id", trace)],
            )
            .unwrap();
        assert_eq!(status, 200, "call {call}");
        let names: Vec<&str> = headers.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Content-Type",
                "Content-Length",
                "Connection",
                "X-Tessel-Trace-Id",
                "Server-Timing"
            ],
            "call {call}"
        );
        assert_eq!(header(&headers, "content-type"), Some("application/json"));
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        assert_eq!(header(&headers, "x-tessel-trace-id"), Some(trace));
        assert_eq!(
            header(&headers, "content-length"),
            Some(payload.len().to_string().as_str())
        );
        let hit: SearchResponse = serde_json::from_str(&payload).unwrap();
        assert!(hit.cached, "call {call}");
        assert_eq!(normalized(hit), expected);
        assert!(client.is_connected());
    }
    let after_keep_alive = server.transport_snapshot();
    assert_eq!(after_keep_alive.connections_accepted, 4);
    assert_eq!(after_keep_alive.keepalive_reuses, 1);
    drop(client);

    // Streaming call: every frame reaches the callback, the terminal frame is
    // also the returned payload.
    let fresh = {
        let mut b = PlacementSpec::builder("v3", 3);
        let mut prev = None;
        for d in 0..3 {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("f{d}"), BlockKind::Forward, [d], 1, 1, deps)
                    .unwrap(),
            );
        }
        serde_json::to_string(&SearchRequest::for_placement(b.build().unwrap())).unwrap()
    };
    let mut events: Vec<String> = Vec::new();
    let (status, last) = http_call_streaming(&addr, "/v1/search?stream=1", &fresh, |event| {
        events.push(event.to_string())
    })
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(events.last(), Some(&last));
    let decoded: Vec<StreamEvent> = events
        .iter()
        .map(|event| serde_json::from_str(event).unwrap())
        .collect();
    let (terminal, incumbents) = decoded.split_last().unwrap();
    assert!(incumbents
        .iter()
        .all(|event| matches!(event, StreamEvent::Incumbent { .. })));
    match terminal {
        StreamEvent::Result(response) => {
            assert!(!response.cached);
            assert_eq!(response.schedule.num_devices(), 3);
        }
        other => panic!("stream ended with {other:?}"),
    }

    // A body that does not parse is answered non-chunked: no events, the
    // whole error body is the payload.
    let mut events = 0usize;
    let (status, payload) =
        http_call_streaming(&addr, "/v1/search?stream=1", "not json", |_| events += 1).unwrap();
    assert_eq!(status, 400);
    assert_eq!(events, 0);
    let error: ErrorBody = serde_json::from_str(&payload).unwrap();
    assert_eq!(error.kind, "bad_request");

    server.shutdown();
}

/// A body of 200,000 `[` — 200 KB, far under the 16 MiB body cap — used to
/// overflow the JSON parser's stack and abort the daemon. Every endpoint that
/// decodes a body answers it with a plain 400, and the daemon keeps serving.
#[test]
fn deeply_nested_bodies_are_a_400_not_a_crash() {
    // Cluster mode (a fleet of one) so that `PUT /v1/cache/{fp}` decodes its
    // body instead of answering 404.
    let (server, addr) = start_server_with(ServiceConfig {
        cluster: Some(ClusterConfig::new("solo", vec![])),
        ..ServiceConfig::default()
    });
    let bomb = "[".repeat(200_000);
    for (method, path) in [
        ("POST", "/v1/search"),
        ("POST", "/v1/search/batch"),
        ("POST", "/v1/search?stream=1"),
        ("PUT", "/v1/cache/0123456789abcdef"),
    ] {
        let (status, payload) = http_call(&addr, method, path, Some(&bomb)).unwrap();
        assert_eq!(status, 400, "{method} {path}: {payload}");
        let error: ErrorBody = serde_json::from_str(&payload).unwrap();
        assert_eq!(error.kind, "bad_request", "{method} {path}");
        assert!(
            error.error.contains("nesting deeper than 128"),
            "{method} {path}: {}",
            error.error
        );
    }
    // Objects nest through the same counter.
    let objects = "{\"requests\":".repeat(200_000);
    let (status, _) = http_call(&addr, "POST", "/v1/search/batch", Some(&objects)).unwrap();
    assert_eq!(status, 400);

    // A well-formed request on a fresh connection is still answered.
    let body = serde_json::to_string(&SearchRequest::for_placement(v2())).unwrap();
    let (status, payload) = http_call(&addr, "POST", "/v1/search", Some(&body)).unwrap();
    assert_eq!(status, 200, "{payload}");
    let answer: SearchResponse = serde_json::from_str(&payload).unwrap();
    assert_eq!(answer.schedule.num_devices(), 2);
    server.shutdown();
}
