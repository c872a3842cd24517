//! End-to-end tests of the tracing tentpole, over real sockets:
//!
//! * a search POSTed to daemon B that remote-hits its owner A produces
//!   flight-recorder entries on BOTH daemons sharing one trace ID, with B's
//!   entry showing a non-zero `remote_fetch` stage and B's `/metrics`
//!   exporting per-stage histogram buckets;
//! * malformed or oversized inbound `X-Tessel-Trace-Id` headers are
//!   rejected: a fresh ID is minted and the raw header value is never
//!   reflected anywhere in the response;
//! * the live plane: `/v1/debug/inflight` shows a solving request's
//!   monotonically increasing node count and live incumbent mid-flight,
//!   `/v1/debug/timeseries` serves the sampler's windowed rates,
//!   `/v1/debug/loglevel` changes the daemon's log level at runtime, and
//!   `/v1/debug/trace/{id}` assembles one merged span timeline from both
//!   members of a two-daemon fleet;
//! * one request's books agree on every surface: `Server-Timing`, the
//!   flight record, the stage histograms and the assembled trace, for an
//!   HTTP miss, an HTTP hit, a streamed search and an in-process call; an
//!   answered request has left `/v1/debug/inflight`, and
//!   `?endpoint=/v1/search` lists streamed searches too.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use tessel_core::ir::{BlockKind, PlacementSpec};
use tessel_placement::shapes::{synthetic_placement, ShapeKind};
use tessel_service::wire::{
    DebugRequestsResponse, FlightRecordInfo, InflightResponse, SearchRequest, TimeseriesResponse,
    TraceAssemblyResponse,
};
use tessel_service::{
    ClusterConfig, HashRing, HttpClient, HttpServer, PeerConfig, ScheduleService, ServerConfig,
    ServiceConfig,
};

const VNODES: usize = 32;

fn v_shape(devices: usize) -> PlacementSpec {
    let mut b = PlacementSpec::builder(format!("v{devices}"), devices);
    b.set_memory_capacity(Some(devices as i64 + 1));
    let mut prev: Option<usize> = None;
    for d in 0..devices {
        let deps: Vec<usize> = prev.into_iter().collect();
        prev = Some(
            b.add_block(format!("f{d}"), BlockKind::Forward, [d], 1, 1, deps)
                .unwrap(),
        );
    }
    for d in (0..devices).rev() {
        let deps: Vec<usize> = prev.into_iter().collect();
        prev = Some(
            b.add_block(format!("b{d}"), BlockKind::Backward, [d], 2, -1, deps)
                .unwrap(),
        );
    }
    b.build().unwrap()
}

fn start_node(
    node_id: &str,
    listener: TcpListener,
    peers: Vec<PeerConfig>,
) -> (HttpServer, Arc<ScheduleService>) {
    let mut cluster = ClusterConfig::new(node_id, peers);
    cluster.vnodes = VNODES;
    cluster.probe_interval = std::time::Duration::from_millis(200);
    let service = Arc::new(
        ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            cluster: Some(cluster),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let server = HttpServer::serve_listener(
        service.clone(),
        listener,
        &ServerConfig {
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, service)
}

fn debug_requests(client: &mut HttpClient) -> DebugRequestsResponse {
    let (status, body) = client.call("GET", "/v1/debug/requests", None).unwrap();
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}

fn header<'a>(headers: &'a [(String, String)], wanted: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(wanted))
        .map(|(_, value)| value.as_str())
}

#[test]
fn remote_fetch_joins_the_requesters_trace_across_daemons() {
    // Bind both listeners first so each node can name the other's real
    // address in its peer config, and pick ids so A owns the placement.
    let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
    let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = listener_a.local_addr().unwrap().to_string();
    let addr_b = listener_b.local_addr().unwrap().to_string();
    let placement = v_shape(3);
    let fingerprint = placement.canonicalize().fingerprint;
    let ring = HashRing::new(["alpha", "beta"], VNODES);
    let (id_a, id_b) = if ring.owner_of(fingerprint) == "alpha" {
        ("alpha", "beta")
    } else {
        ("beta", "alpha")
    };
    let (server_a, service_a) = start_node(
        id_a,
        listener_a,
        vec![PeerConfig {
            node_id: id_b.into(),
            addr: addr_b.clone(),
        }],
    );
    let (server_b, service_b) = start_node(
        id_b,
        listener_b,
        vec![PeerConfig {
            node_id: id_a.into(),
            addr: addr_a.clone(),
        }],
    );
    assert!(service_a.cluster().unwrap().owns(fingerprint));
    assert!(!service_b.cluster().unwrap().owns(fingerprint));

    // Seed the owner, then ask B with a caller-chosen trace ID. B misses
    // locally and fetches from A; both daemons' records must join the trace.
    let mut client_a = HttpClient::new(&addr_a).unwrap();
    let mut client_b = HttpClient::new(&addr_b).unwrap();
    let body = serde_json::to_string(&SearchRequest::for_placement(placement.clone())).unwrap();
    let (status, _, _) = client_a
        .call_with_headers("POST", "/v1/search", Some(&body), &[])
        .unwrap();
    assert_eq!(status, 200);

    let trace = "0123456789abcdef0123456789abcdef";
    let order: Vec<usize> = (0..placement.num_blocks()).collect();
    let permuted = placement.permuted(&[2, 0, 1], &order).unwrap();
    let permuted_body =
        serde_json::to_string(&SearchRequest::for_placement(permuted.clone())).unwrap();
    let (status, headers, response) = client_b
        .call_with_headers(
            "POST",
            "/v1/search",
            Some(&permuted_body),
            &[("X-Tessel-Trace-Id", trace)],
        )
        .unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"cached\":true"), "{response}");

    // The response carries the caller's trace ID and a Server-Timing
    // breakdown that includes the remote_fetch stage.
    assert_eq!(header(&headers, "x-tessel-trace-id"), Some(trace));
    let timing = header(&headers, "server-timing").expect("Server-Timing header");
    assert!(timing.contains("remote_fetch;dur="), "{timing}");

    // B's flight recorder: the search entry, under the caller's trace ID,
    // with a non-zero remote_fetch stage.
    let debug_b = debug_requests(&mut client_b);
    let entry_b = debug_b
        .recent
        .iter()
        .find(|entry| entry.trace_id == trace && entry.path == "/v1/search")
        .expect("B's flight recorder holds the traced search");
    let remote_fetch = entry_b
        .stages
        .iter()
        .find(|stage| stage.name == "remote_fetch")
        .expect("the traced search crossed the cluster");
    assert!(remote_fetch.micros > 0, "remote fetch took real time");
    assert_eq!(entry_b.status, 200);

    // A's flight recorder: the owner-side cache GET, SAME trace ID.
    let debug_a = debug_requests(&mut client_a);
    let entry_a = debug_a
        .recent
        .iter()
        .find(|entry| entry.trace_id == trace)
        .expect("A's flight recorder joined the requester's trace");
    assert_eq!(entry_a.method, "GET");
    assert!(entry_a.path.starts_with("/v1/cache/"), "{}", entry_a.path);

    // B exports per-stage and per-endpoint histogram buckets.
    let (status, metrics) = client_b.call("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tessel_request_stage_duration_seconds_bucket{stage=\"remote_fetch\""),
        "per-stage buckets missing"
    );
    assert!(
        metrics.contains("tessel_http_request_duration_seconds_bucket{endpoint=\"/v1/search\""),
        "per-endpoint buckets missing"
    );

    server_a.shutdown();
    server_b.shutdown();
}

/// Reads everything the server sends on `stream` (the request asked for
/// `Connection: close`) and returns it as text.
fn raw_exchange(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    String::from_utf8_lossy(&response).into_owned()
}

/// The `X-Tessel-Trace-Id` response-header value in a raw response text.
fn response_trace_id(response: &str) -> &str {
    response
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("x-tessel-trace-id")
                .then(|| value.trim())
        })
        .expect("every response carries X-Tessel-Trace-Id")
}

#[test]
fn bad_inbound_trace_headers_mint_fresh_ids_and_are_never_reflected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(ScheduleService::new(ServiceConfig::default()).unwrap());
    let server = HttpServer::serve_listener(service, listener, &ServerConfig::default()).unwrap();

    // A valid inbound ID is adopted verbatim.
    let valid = "deadbeefdeadbeefdeadbeefdeadbeef";
    let response = raw_exchange(
        &addr,
        &format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Tessel-Trace-Id: {valid}\r\nConnection: close\r\n\r\n"
        ),
    );
    assert_eq!(response_trace_id(&response), valid);

    // Malformed (wrong charset / length): fresh ID, no reflection.
    for bad in [
        "not-hex!",
        "UPPERCASEHEXISREJECTED0123456789",
        "deadbeef",
        "<script>alert(1)</script>",
    ] {
        let response = raw_exchange(
            &addr,
            &format!(
                "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Tessel-Trace-Id: {bad}\r\nConnection: close\r\n\r\n"
            ),
        );
        let minted = response_trace_id(&response);
        assert_ne!(minted, bad);
        assert_eq!(minted.len(), 32, "minted ID is a real trace ID");
        assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(
            !response.contains(bad),
            "raw header value must never be reflected: {response}"
        );
    }

    // Oversized: dropped before validation, fresh ID, no reflection.
    let oversized = "f".repeat(300);
    let response = raw_exchange(
        &addr,
        &format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Tessel-Trace-Id: {oversized}\r\nConnection: close\r\n\r\n"
        ),
    );
    let minted = response_trace_id(&response);
    assert_eq!(minted.len(), 32);
    assert!(!response.contains(&oversized));

    // Distinct requests mint distinct IDs.
    let again = raw_exchange(
        &addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Tessel-Trace-Id: nope\r\nConnection: close\r\n\r\n",
    );
    assert_ne!(response_trace_id(&again), minted);

    server.shutdown();
}

/// A search the solver chews on for a predictable ~1.5 s window: the
/// 16-device X-shape up to six micro-batches takes ~6 s single-threaded in a
/// release build (the 8-device one finishes in milliseconds since the
/// enumeration prunes), so the request deadline is what ends it.
fn slow_search_body(deadline_ms: u64) -> String {
    let placement = synthetic_placement(ShapeKind::X, 16).expect("placement");
    let mut request = SearchRequest::for_placement(placement);
    request.num_micro_batches = Some(8);
    request.max_repetend_micro_batches = Some(6);
    request.solver_threads = Some(1);
    request.deadline_ms = Some(deadline_ms);
    serde_json::to_string(&request).unwrap()
}

#[test]
fn inflight_shows_monotone_solver_progress_and_a_live_incumbent() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(
        ScheduleService::new(ServiceConfig {
            solver_threads: 1,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let server = HttpServer::serve_listener(
        service,
        listener,
        &ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // One thread runs the slow search; the main thread polls the in-flight
    // board through a second connection the whole time.
    let solve_addr = addr.clone();
    let solver = std::thread::spawn(move || {
        let (status, body) = tessel_service::http::http_call(
            &solve_addr,
            "POST",
            "/v1/search",
            Some(&slow_search_body(1500)),
        )
        .unwrap();
        (status, body)
    });

    let mut client = HttpClient::new(&addr).unwrap();
    let mut node_samples: Vec<u64> = Vec::new();
    let mut saw_solve_stage = false;
    let mut saw_incumbent = false;
    let mut saw_deadline = false;
    let begun = std::time::Instant::now();
    while begun.elapsed() < std::time::Duration::from_secs(10) && !solver.is_finished() {
        let (status, body) = client.call("GET", "/v1/debug/inflight", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let inflight: InflightResponse = serde_json::from_str(&body).unwrap();
        if let Some(entry) = inflight
            .inflight
            .iter()
            .find(|entry| entry.path == "/v1/search")
        {
            node_samples.push(entry.nodes);
            saw_solve_stage |= entry.stage == "solve";
            saw_incumbent |= entry.incumbent.is_some();
            saw_deadline |= entry.deadline_remaining_ms.is_some();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (status, response) = solver.join().unwrap();
    assert!(status == 200 || status == 408, "{status}: {response}");

    assert!(
        node_samples.iter().any(|&nodes| nodes > 0),
        "the board never showed expanded nodes: {node_samples:?}"
    );
    assert!(
        node_samples.windows(2).all(|pair| pair[0] <= pair[1]),
        "node counts regressed mid-solve: {node_samples:?}"
    );
    assert!(saw_solve_stage, "never observed the solve stage in flight");
    assert!(saw_incumbent, "never observed a live incumbent in flight");
    assert!(saw_deadline, "deadline_remaining_ms never populated");

    // Once answered, the request leaves the board.
    let drained = std::time::Instant::now();
    loop {
        let (_, body) = client.call("GET", "/v1/debug/inflight", None).unwrap();
        let inflight: InflightResponse = serde_json::from_str(&body).unwrap();
        if !inflight
            .inflight
            .iter()
            .any(|entry| entry.path == "/v1/search")
        {
            break;
        }
        assert!(
            drained.elapsed() < std::time::Duration::from_secs(5),
            "completed request still on the in-flight board"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn timeseries_loglevel_and_healthz_serve_the_live_plane() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(ScheduleService::new(ServiceConfig::default()).unwrap());
    let server = HttpServer::serve_listener(
        service,
        listener,
        &ServerConfig {
            sample_interval_ms: 25,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = HttpClient::new(&addr).unwrap();

    // Generate some traffic, then let the sampler tick over it.
    let body = serde_json::to_string(&SearchRequest::for_placement(v_shape(2))).unwrap();
    for _ in 0..3 {
        let (status, response) = client.call("POST", "/v1/search", Some(&body)).unwrap();
        assert_eq!(status, 200, "{response}");
    }
    std::thread::sleep(std::time::Duration::from_millis(150));

    let (status, body) = client
        .call("GET", "/v1/debug/timeseries?window=60", None)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let series: TimeseriesResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(series.interval_ms, 25);
    assert!(series.ticks >= 1, "sampler never ticked");
    assert!(series.latest_unix_ms > 0);
    let names: Vec<&str> = series.series.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "requests_per_s",
        "shed_per_s",
        "cache_hit_ratio",
        "solver_nodes_per_s",
        "queue_depth",
        "connections_open",
    ] {
        assert!(names.contains(&expected), "missing series {expected}");
    }
    let requests = series
        .series
        .iter()
        .find(|s| s.name == "requests_per_s")
        .unwrap();
    assert!(
        requests.max > 0.0,
        "three searches never showed up in the request rate"
    );
    // A bad window is a 400, not a panic or a silent default.
    let (status, _) = client
        .call("GET", "/v1/debug/timeseries?window=abc", None)
        .unwrap();
    assert_eq!(status, 400);

    // The sampler's gauges also ride the Prometheus page.
    let (status, metrics) = client.call("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tessel_timeseries_last{series=\"requests_per_s\"}"),
        "timeseries gauges missing from /metrics"
    );

    // The liveness probe carries the clock stamp peer offset estimation
    // reads.
    let (status, health) = client.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(health.contains("\"unix_ms\":"), "{health}");

    // Runtime log-level control: PUT flips it, GET reflects it, and the
    // response names the previous level so the caller can restore it.
    let (status, current) = client.call("GET", "/v1/debug/loglevel", None).unwrap();
    assert_eq!(status, 200, "{current}");
    let previous: tessel_service::wire::LogLevelBody = serde_json::from_str(&current).unwrap();
    let (status, changed) = client
        .call("PUT", "/v1/debug/loglevel", Some("{\"level\":\"trace\"}"))
        .unwrap();
    assert_eq!(status, 200, "{changed}");
    assert!(changed.contains("\"level\":\"trace\""), "{changed}");
    assert!(
        changed.contains(&format!("\"previous\":\"{}\"", previous.level)),
        "{changed}"
    );
    let (_, now_level) = client.call("GET", "/v1/debug/loglevel", None).unwrap();
    assert!(now_level.contains("\"level\":\"trace\""), "{now_level}");
    // Unknown levels are rejected without changing anything.
    let (status, _) = client
        .call("PUT", "/v1/debug/loglevel", Some("{\"level\":\"shouty\"}"))
        .unwrap();
    assert_eq!(status, 400);
    let restore = format!("{{\"level\":\"{}\"}}", previous.level);
    let (status, _) = client
        .call("PUT", "/v1/debug/loglevel", Some(&restore))
        .unwrap();
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn sampler_disabled_answers_404_without_a_sampler_thread() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(ScheduleService::new(ServiceConfig::default()).unwrap());
    let server = HttpServer::serve_listener(
        service,
        listener,
        &ServerConfig {
            sample_interval_ms: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert!(server.timeseries().is_none());
    let mut client = HttpClient::new(&addr).unwrap();
    let (status, body) = client.call("GET", "/v1/debug/timeseries", None).unwrap();
    assert_eq!(status, 404, "{body}");
    // /metrics stays valid without the gauge family.
    let (status, metrics) = client.call("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(!metrics.contains("tessel_timeseries_last"));
    server.shutdown();
}

#[test]
fn assembled_trace_merges_spans_from_both_daemons() {
    let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
    let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = listener_a.local_addr().unwrap().to_string();
    let addr_b = listener_b.local_addr().unwrap().to_string();
    let placement = v_shape(3);
    let fingerprint = placement.canonicalize().fingerprint;
    let ring = HashRing::new(["alpha", "beta"], VNODES);
    let (id_a, id_b) = if ring.owner_of(fingerprint) == "alpha" {
        ("alpha", "beta")
    } else {
        ("beta", "alpha")
    };
    let (server_a, service_a) = start_node(
        id_a,
        listener_a,
        vec![PeerConfig {
            node_id: id_b.into(),
            addr: addr_b.clone(),
        }],
    );
    let (server_b, _service_b) = start_node(
        id_b,
        listener_b,
        vec![PeerConfig {
            node_id: id_a.into(),
            addr: addr_a.clone(),
        }],
    );
    assert!(service_a.cluster().unwrap().owns(fingerprint));

    // Seed the owner under the SAME trace the requester will use, so the
    // owner's solve span belongs to the assembled trace, then hit the
    // non-owner: it cache-misses locally and remote-fetches from A.
    let trace = "feedfacefeedfacefeedfacefeedface";
    let mut client_a = HttpClient::new(&addr_a).unwrap();
    let mut client_b = HttpClient::new(&addr_b).unwrap();
    let body = serde_json::to_string(&SearchRequest::for_placement(placement.clone())).unwrap();
    let (status, _, response) = client_a
        .call_with_headers(
            "POST",
            "/v1/search",
            Some(&body),
            &[("X-Tessel-Trace-Id", trace)],
        )
        .unwrap();
    assert_eq!(status, 200, "{response}");
    let (status, _, response) = client_b
        .call_with_headers(
            "POST",
            "/v1/search",
            Some(&body),
            &[("X-Tessel-Trace-Id", trace)],
        )
        .unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"cached\":true"), "{response}");

    // Asking the requester assembles spans from BOTH daemons: B's own
    // cache_lookup + remote_fetch, and A's solve (plus A's owner-side cache
    // GET), all under one trace, sorted by adjusted start time.
    let (status, body) = client_b
        .call("GET", &format!("/v1/debug/trace/{trace}"), None)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let assembly: TraceAssemblyResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(assembly.trace_id, trace);
    assert!(
        assembly.nodes.iter().any(|node| node == id_a)
            && assembly.nodes.iter().any(|node| node == id_b),
        "both daemons must contribute: {:?}",
        assembly.nodes
    );
    assert!(
        assembly.unreachable.is_empty(),
        "healthy peers must all answer: {:?}",
        assembly.unreachable
    );
    let has = |node: &str, name: &str| {
        assembly
            .spans
            .iter()
            .any(|span| span.node == node && span.name == name)
    };
    assert!(has(id_b, "cache_lookup"), "requester cache_lookup span");
    assert!(has(id_b, "remote_fetch"), "requester remote_fetch span");
    assert!(has(id_a, "solve"), "owner solve span");
    assert!(
        assembly
            .spans
            .windows(2)
            .all(|pair| pair[0].start_unix_ms <= pair[1].start_unix_ms),
        "spans must be start-sorted"
    );

    // An invalid trace id is a 400, and an unknown-but-valid one is an
    // empty assembly, not an error.
    let (status, _) = client_b
        .call("GET", "/v1/debug/trace/not-a-trace", None)
        .unwrap();
    assert_eq!(status, 400);
    let (status, body) = client_b
        .call(
            "GET",
            "/v1/debug/trace/00000000000000000000000000000000",
            None,
        )
        .unwrap();
    assert_eq!(status, 200);
    let empty: TraceAssemblyResponse = serde_json::from_str(&body).unwrap();
    assert!(empty.spans.is_empty());

    server_a.shutdown();
    server_b.shutdown();
}

/// A standalone daemon with small search defaults, and its address.
fn standalone() -> (HttpServer, Arc<ScheduleService>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(
        ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let server =
        HttpServer::serve_listener(service.clone(), listener, &ServerConfig::default()).unwrap();
    (server, service, addr)
}

/// Runs `POST /v1/search?stream=1` over a fresh connection and returns the
/// trace ID of its SSE response head.
fn streamed_search(addr: &str, body: &str) -> String {
    let response = raw_exchange(
        addr,
        &format!(
            "POST /v1/search?stream=1 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(response.contains("\"event\":\"result\""), "{response}");
    response_trace_id(&response).to_string()
}

/// The flight record the daemon keeps for the first request `wanted`
/// accepts, waiting for the event loop to deposit it after the write.
fn wait_for_record(
    service: &ScheduleService,
    wanted: impl Fn(&FlightRecordInfo) -> bool,
) -> FlightRecordInfo {
    for _ in 0..500 {
        if let Some(record) = service.debug_requests().recent.into_iter().find(&wanted) {
            return record;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("no flight record appeared: {:?}", service.debug_requests());
}

#[test]
fn the_endpoint_filter_lists_streamed_and_plain_searches() {
    let (server, service, addr) = standalone();
    let mut client = HttpClient::new(&addr).unwrap();
    let body = serde_json::to_string(&SearchRequest::for_placement(v_shape(3))).unwrap();
    let (status, headers, response) = client
        .call_with_headers("POST", "/v1/search", Some(&body), &[])
        .unwrap();
    assert_eq!(status, 200, "{response}");
    let plain = header(&headers, "x-tessel-trace-id").unwrap().to_string();
    let streamed = streamed_search(&addr, &body);
    for trace in [&plain, &streamed] {
        wait_for_record(&service, |r| &r.trace_id == trace);
    }

    let (status, body) = client
        .call("GET", "/v1/debug/requests?endpoint=/v1/search", None)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let listed: DebugRequestsResponse = serde_json::from_str(&body).unwrap();
    let listed: Vec<(&str, &str)> = (listed.recent.iter())
        .map(|r| (r.trace_id.as_str(), r.path.as_str()))
        .collect();
    assert!(
        listed.contains(&(plain.as_str(), "/v1/search")),
        "{listed:?}"
    );
    // The record keeps its full target; the filter reads only the path.
    assert!(
        listed.contains(&(streamed.as_str(), "/v1/search?stream=1")),
        "{listed:?}"
    );
    server.shutdown();
}

#[test]
fn an_answered_request_has_left_the_inflight_view() {
    let (server, service, addr) = standalone();
    let mut client = HttpClient::new(&addr).unwrap();
    for round in 0..1_000 {
        let (status, headers, _) = client
            .call_with_headers("GET", "/healthz", None, &[])
            .unwrap();
        assert_eq!(status, 200);
        let trace = header(&headers, "x-tessel-trace-id").unwrap();
        let inflight = service.debug_inflight().inflight;
        assert!(
            inflight.iter().all(|entry| entry.trace_id != trace),
            "round {round}: answered request {trace} still in flight: {inflight:?}"
        );
    }
    server.shutdown();
}

/// Every stage histogram's `_count`, by stage name.
fn stage_counts(service: &ScheduleService) -> BTreeMap<String, u64> {
    let text = service.metrics().render_histograms();
    let counts = text.lines().filter_map(|line| {
        let rest = line.strip_prefix("tessel_request_stage_duration_seconds_count{stage=\"")?;
        let (name, count) = rest.split_once("\"} ")?;
        Some((name.to_string(), count.parse().unwrap()))
    });
    counts.collect()
}

/// The `Server-Timing` header as `(stage, milliseconds)` rows, in order.
fn server_timing(headers: &[(String, String)]) -> Vec<(String, f64)> {
    let value = header(headers, "server-timing").expect("a Server-Timing header");
    (value.split(", "))
        .map(|part| {
            let (name, millis) = part.split_once(";dur=").unwrap();
            (name.to_string(), millis.parse().unwrap())
        })
        .collect()
}

#[test]
fn one_request_agrees_on_every_surface() {
    let (server, service, addr) = standalone();
    let mut client = HttpClient::new(&addr).unwrap();
    let search =
        |devices| serde_json::to_string(&SearchRequest::for_placement(v_shape(devices))).unwrap();
    let http_search = |client: &mut HttpClient, body: &str| {
        let (status, headers, response) = client
            .call_with_headers("POST", "/v1/search", Some(body), &[])
            .unwrap();
        assert_eq!(status, 200, "{response}");
        let trace = header(&headers, "x-tessel-trace-id").unwrap().to_string();
        (trace, Some(server_timing(&headers)))
    };

    let mut records = Vec::new();
    for request in ["miss", "hit", "streamed", "call"] {
        let before = stage_counts(&service);
        let (trace, timing) = match request {
            "miss" | "hit" => http_search(&mut client, &search(3)),
            // The SSE head leaves before any stage has run: no header.
            "streamed" => (streamed_search(&addr, &search(4)), None),
            _ => {
                service
                    .search(&SearchRequest::for_placement(v_shape(2)))
                    .unwrap();
                let call = wait_for_record(&service, |r| r.method == "CALL");
                (call.trace_id, None)
            }
        };
        let record = wait_for_record(&service, |r| r.trace_id == trace);
        let names: Vec<&str> = record.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names.last() == Some(&"write"),
            request != "call",
            "{request}: the event loop appends `write` to HTTP records: {names:?}"
        );

        // Server-Timing = the record minus `write`, to the header's 1 µs.
        if let Some(timing) = timing {
            let header_names: Vec<&str> = timing.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(header_names, names[..names.len() - 1], "{request}");
            for ((_, millis), stage) in timing.iter().zip(&record.stages) {
                let micros = stage.micros as f64;
                assert!(
                    (millis * 1e3 - micros).abs() <= 1.0,
                    "{request}: {} is {millis} ms in the header, {micros} µs recorded",
                    stage.name
                );
            }
        }

        // Each listed stage counted once in its histogram, and nothing else.
        let after = stage_counts(&service);
        for (stage, count) in &after {
            let listed = names.iter().filter(|name| *name == stage).count() as u64;
            assert_eq!(
                count - before[stage],
                listed,
                "{request}: stage {stage} of {names:?}"
            );
        }
        records.push(record);
    }
    assert!(records[0].stages.iter().any(|s| s.name == "solve"));
    assert!(records[1].stages.iter().all(|s| s.name != "solve"));

    // A standalone trace assembly is the request span plus one per stage.
    for record in &records {
        let (status, body) = client
            .call("GET", &format!("/v1/debug/trace/{}", record.trace_id), None)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let assembly: TraceAssemblyResponse = serde_json::from_str(&body).unwrap();
        let spans: Vec<(&str, u64)> = (assembly.spans.iter())
            .map(|span| (span.name.as_str(), span.micros))
            .collect();
        let expected: Vec<(&str, u64)> = std::iter::once(("request", record.total_micros))
            .chain(record.stages.iter().map(|s| (s.name.as_str(), s.micros)))
            .collect();
        assert_eq!(spans, expected, "{}", record.path);
    }
    server.shutdown();
}
