//! Socket-level tests of the readiness-based transport: keep-alive reuse
//! (two sequential search requests over one persisted TCP connection),
//! pipelined requests, idle-timeout closes, slow-loris isolation,
//! deadline-aware admission control (shedding, per-client fairness),
//! anytime incumbent streaming, and cache hits answered by the event loop
//! itself while the worker pool is busy.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tessel_core::ir::{BlockKind, PlacementSpec};
use tessel_placement::shapes::{synthetic_placement, ShapeKind};
use tessel_service::http::{http_call, http_call_streaming};
use tessel_service::wire::{SearchRequest, StreamEvent};
use tessel_service::{HttpClient, HttpServer, ScheduleService, ServerConfig, ServiceConfig};

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

fn start_server(server_config: ServerConfig) -> (HttpServer, String) {
    let (server, _, addr) = start_with_service(server_config);
    (server, addr)
}

/// [`start_server`], also returning the service behind the daemon, whose
/// in-flight view and flight records a test can read in process.
fn start_with_service(server_config: ServerConfig) -> (HttpServer, Arc<ScheduleService>, String) {
    let service = Arc::new(
        ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let server = HttpServer::serve(service.clone(), &server_config).unwrap();
    let addr = server.local_addr().to_string();
    (server, service, addr)
}

fn ephemeral_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    }
}

/// Reads exactly one HTTP response (head + `Content-Length` body) without
/// touching bytes of any later response on the same connection.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let (status, _head, body) = read_one_response_with_head(stream);
    (status, body)
}

/// [`read_one_response`], also returning the raw response head for tests
/// that assert on headers.
fn read_one_response_with_head(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buffer: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    while !buffer.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed mid-head: {buffer:?}");
        buffer.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buffer).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("Content-Length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read response body");
    (status, head, String::from_utf8(body).expect("UTF-8 body"))
}

fn search_body() -> String {
    serde_json::to_string(&SearchRequest::for_placement(v_shape(2))).unwrap()
}

fn post_search_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/search HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Acceptance scenario: two sequential search requests are served over a
/// single persisted TCP connection, with the second hitting the cache and
/// the keep-alive reuse counter incrementing.
#[test]
fn keep_alive_serves_two_searches_on_one_connection() {
    let (server, addr) = start_server(ephemeral_config());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = search_body();

    stream.write_all(&post_search_bytes(&body)).unwrap();
    let (status, first) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");

    // Same socket, second request: the server must still be listening on it.
    stream.write_all(&post_search_bytes(&body)).unwrap();
    let (status, second) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{second}");
    assert!(second.contains("\"cached\":true"), "{second}");

    let transport = server.transport_snapshot();
    assert_eq!(transport.connections_accepted, 1, "{transport:?}");
    assert!(transport.keepalive_reuses >= 1, "{transport:?}");

    // The reuse is also visible on the Prometheus endpoint.
    let (status, metrics) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tessel_http_keepalive_reuses_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("tessel_http_connections_open"),
        "{metrics}"
    );

    drop(stream);
    server.shutdown();
}

/// Two requests written back-to-back before any response is read must both
/// be answered, in request order.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, addr) = start_server(ephemeral_config());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let pipelined = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n\
                      GET /v1/cache HTTP/1.1\r\nHost: test\r\n\r\n";
    stream.write_all(pipelined).unwrap();

    let (status, first) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(first.contains("ok"), "healthz must answer first: {first}");
    let (status, second) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(second, "[]", "empty cache listing must answer second");

    drop(stream);
    server.shutdown();
}

/// A connection with no request in flight is closed once the idle timeout
/// passes.
#[test]
fn idle_connections_are_closed_by_the_timeout_sweep() {
    let (server, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ephemeral_config()
    });

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing. The sweep must close the connection: read observes EOF.
    let started = Instant::now();
    let mut sink = [0u8; 16];
    let n = stream.read(&mut sink).expect("read until server closes");
    assert_eq!(n, 0, "expected EOF from the idle-timeout close");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "idle close took {:?}",
        started.elapsed()
    );
    assert!(server.transport_snapshot().idle_closed >= 1);

    server.shutdown();
}

/// A slow-loris peer that trickles a partial request forever must not block
/// other clients: the event loop keeps serving while the partial connection
/// just sits in its read buffer.
#[test]
fn slow_loris_does_not_block_other_clients() {
    let (server, addr) = start_server(ServerConfig {
        workers: 1, // even a single worker must stay reachable
        ..ephemeral_config()
    });

    let mut loris = TcpStream::connect(&addr).unwrap();
    loris.write_all(b"POST /v1/search HTT").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    loris.write_all(b"P/1.1\r\nContent-").unwrap(); // still no full head

    // A well-behaved client gets served while the loris holds its socket.
    let mut client = HttpClient::new(&addr).unwrap();
    let started = Instant::now();
    let (status, body) = client
        .call("POST", "/v1/search", Some(&search_body()))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "search blocked behind the loris for {:?}",
        started.elapsed()
    );

    // The loris never completed a request, so nothing was dispatched for it.
    let transport = server.transport_snapshot();
    assert!(transport.connections_accepted >= 2, "{transport:?}");

    drop(loris);
    server.shutdown();
}

/// A peer that half-closes (FIN) right after sending its request must still
/// receive the response, after which the server closes the connection —
/// without the event loop busy-spinning on the persistent half-close
/// readiness while the search runs.
#[test]
fn half_closed_peer_still_receives_its_response() {
    let (server, addr) = start_server(ephemeral_config());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&post_search_bytes(&search_body()))
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let (status, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"period\""), "{body}");

    // With the peer half closed there is nothing more to serve: EOF.
    let mut sink = [0u8; 8];
    let n = stream.read(&mut sink).expect("read after response");
    assert_eq!(n, 0, "server should close after responding to a FIN'd peer");

    server.shutdown();
}

/// A burst pipelined past `max_pipelined` must still be served completely:
/// once completions free capacity, the requests already buffered in user
/// space are parsed even though no new socket data arrives.
#[test]
fn bursts_beyond_the_pipelining_cap_are_fully_served() {
    let (server, addr) = start_server(ServerConfig {
        max_pipelined: 2,
        ..ephemeral_config()
    });

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    for _ in 0..5 {
        burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    }
    stream.write_all(&burst).unwrap();
    // Then silence: every response beyond the cap must still arrive.
    for i in 0..5 {
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "response {i}: {body}");
        assert!(body.contains("ok"), "response {i}: {body}");
    }

    drop(stream);
    server.shutdown();
}

/// The value of the unlabeled series `name` on a `/metrics` page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` on the metrics page:\n{page}"))
}

/// Duplicate searches pipelined on one connection, past the pipelining cap,
/// cost one solve: six device rotations of the 4-device M-shape are one miss
/// and five hits or coalesces, an invalid request among them fails alone,
/// and every response comes back in request order.
#[test]
fn pipelined_duplicates_cost_one_solve() {
    let (server, addr) = start_server(ServerConfig {
        max_pipelined: 2,
        ..ephemeral_config()
    });
    let placement = synthetic_placement(ShapeKind::M, 4).unwrap();
    let order: Vec<usize> = (0..placement.num_blocks()).collect();
    let mut requests: Vec<SearchRequest> = (0..6)
        .map(|rotation| {
            let perm: Vec<usize> = (0..4).map(|device| (device + rotation) % 4).collect();
            SearchRequest::for_placement(placement.permuted(&perm, &order).unwrap())
        })
        .collect();
    let invalid = 3;
    requests.insert(
        invalid,
        SearchRequest {
            num_micro_batches: Some(0),
            ..SearchRequest::for_placement(placement.clone())
        },
    );

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut burst = Vec::new();
    for request in &requests {
        burst.extend(post_search_bytes(&serde_json::to_string(request).unwrap()));
    }
    stream.write_all(&burst).unwrap();
    let mut fingerprints = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let (status, body) = read_one_response(&mut stream);
        if i == invalid {
            assert_eq!(status, 400, "response {i}: {body}");
            assert!(body.contains("num_micro_batches"), "response {i}: {body}");
            continue;
        }
        assert_eq!(status, 200, "response {i}: {body}");
        let response: tessel_service::wire::SearchResponse = serde_json::from_str(&body).unwrap();
        response.schedule.validate(&request.placement).unwrap();
        fingerprints.push(response.fingerprint);
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "{fingerprints:?}"
    );
    drop(stream);

    let (status, page) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(metric(&page, "tessel_cache_misses_total"), 1, "{page}");
    let shared = metric(&page, "tessel_cache_hits_total") + metric(&page, "tessel_coalesced_total");
    assert_eq!(shared, 5, "{page}");
    assert_eq!(metric(&page, "tessel_errors_total"), 1, "{page}");
    server.shutdown();
}

/// A slow-loris peer that keeps *trickling* bytes of an incomplete request
/// is still reaped: only completed requests and response writes count as
/// activity for the idle sweep.
#[test]
fn trickling_slow_loris_is_reaped_by_the_idle_sweep() {
    let (server, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ephemeral_config()
    });

    let mut writer = TcpStream::connect(&addr).unwrap();
    let mut reader = writer.try_clone().unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let trickler = std::thread::spawn(move || {
        // One header byte every 100 ms, forever under the old accounting —
        // writes start failing once the server closes the connection.
        for chunk in b"GET /healthz HTT".iter().cycle().take(60) {
            if writer.write_all(std::slice::from_ref(chunk)).is_err() {
                return true; // server hung up on us: expected
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        false
    });

    let started = Instant::now();
    let mut sink = [0u8; 16];
    let n = reader.read(&mut sink).expect("read until server closes");
    assert_eq!(n, 0, "expected EOF from the idle sweep");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "trickling loris survived {:?}",
        started.elapsed()
    );
    assert!(
        trickler.join().unwrap(),
        "the trickler should observe the close"
    );
    assert!(server.transport_snapshot().idle_closed >= 1);

    server.shutdown();
}

/// A `Transfer-Encoding: chunked` search request — split across several
/// writes, with a chunk extension and a trailer — is decoded by the
/// connection state machine and served exactly like a `Content-Length`
/// request, on a connection that stays keep-alive.
#[test]
fn chunked_request_bodies_are_decoded() {
    let (server, addr) = start_server(ephemeral_config());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = search_body();
    let (head, tail) = body.split_at(body.len() / 2);
    stream
        .write_all(b"POST /v1/search HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    // First chunk (with an extension the server must ignore), trickled.
    stream
        .write_all(format!("{:x};note=head\r\n{head}\r\n", head.len()).as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stream
        .write_all(format!("{:x}\r\n{tail}\r\n", tail.len()).as_bytes())
        .unwrap();
    // Last chunk plus a trailer field.
    stream
        .write_all(b"0\r\nX-Checksum: ignored\r\n\r\n")
        .unwrap();

    let (status, response) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"period\""), "{response}");

    // The connection survived (chunked framing consumed exactly its bytes):
    // a second, Content-Length request on the same socket still works.
    stream.write_all(&post_search_bytes(&body)).unwrap();
    let (status, second) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{second}");
    assert!(second.contains("\"cached\":true"), "{second}");

    drop(stream);
    server.shutdown();
}

/// Connections over the per-IP cap are rejected at accept and counted in
/// `tessel_http_rejected_per_ip_total`; closing one readmits the IP.
#[test]
fn per_ip_accept_cap_rejects_and_readmits() {
    let (server, addr) = start_server(ServerConfig {
        max_conns_per_ip: 2,
        ..ephemeral_config()
    });

    // Two connections from 127.0.0.1 are fine and stay usable.
    let mut first = TcpStream::connect(&addr).unwrap();
    let mut second = TcpStream::connect(&addr).unwrap();
    for stream in [&mut first, &mut second] {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let (status, _) = read_one_response(stream);
        assert_eq!(status, 200);
    }

    // The third is over the cap: accepted by the kernel, then immediately
    // closed by the event loop — the client observes EOF (or a reset), never
    // a response.
    let mut third = TcpStream::connect(&addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    third
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut sink = [0u8; 16];
    // An Err here (ECONNRESET) is an equally valid rejection.
    if let Ok(n) = third.read(&mut sink) {
        assert_eq!(n, 0, "over-cap connection must not be served");
    }
    assert!(
        wait_until_rejected(&server, 1),
        "rejection counter never moved: {:?}",
        server.transport_snapshot()
    );

    // Closing one admitted connection frees a slot for the same IP.
    drop(first);
    let fourth_ok = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        let Ok(mut fourth) = TcpStream::connect(&addr) else {
            return false;
        };
        fourth
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        if fourth
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .is_err()
        {
            return false;
        }
        let mut probe = [0u8; 1];
        matches!(fourth.read(&mut probe), Ok(1))
    });
    assert!(fourth_ok, "the IP was never readmitted after a close");

    // The counter renders on /metrics (over one of the admitted slots).
    drop(second);
    std::thread::sleep(Duration::from_millis(50));
    let (status, metrics) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tessel_http_rejected_per_ip_total"),
        "{metrics}"
    );

    server.shutdown();
}

fn wait_until_rejected(server: &HttpServer, at_least: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if server.transport_snapshot().rejected_per_ip >= at_least {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// An admission-test daemon: one worker and a small queue, so one hard
/// request occupies the worker for a predictable window while followers
/// pile up in the admission queue.
fn start_admission_server(queue_depth: usize) -> (HttpServer, String) {
    let service = ScheduleService::new(ServiceConfig {
        default_micro_batches: 4,
        default_max_repetend: 3,
        ..ServiceConfig::default()
    })
    .unwrap();
    let server = HttpServer::serve(
        Arc::new(service),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// A search the single worker chews on for ~2.5 s: the 16-device X-shape up
/// to six micro-batches takes ~6 s single-threaded in a release build (the
/// 8-device one stopped being slow when the enumeration learned to prune:
/// 38 s became 46 ms), so the request deadline is what ends it — a worker
/// that is busy for a predictable window, then frees up.
fn occupier_body() -> String {
    occupier_body_for(2500)
}

/// The occupier, ended by its deadline after `deadline_ms`.
fn occupier_body_for(deadline_ms: u64) -> String {
    let placement = synthetic_placement(ShapeKind::X, 16).expect("placement");
    let mut request = SearchRequest::for_placement(placement);
    request.num_micro_batches = Some(8);
    request.max_repetend_micro_batches = Some(6);
    request.deadline_ms = Some(deadline_ms);
    serde_json::to_string(&request).unwrap()
}

/// A fast 2-device search carrying the given admission hints.
fn hinted_search_body(deadline_ms: Option<u64>, priority: Option<i64>) -> String {
    let mut request = SearchRequest::for_placement(v_shape(2));
    request.deadline_ms = deadline_ms;
    request.priority = priority;
    serde_json::to_string(&request).unwrap()
}

/// Connects to the server with the client socket bound to a chosen loopback
/// source address (any 127.0.0.0/8 address is local on Linux), so the
/// per-client admission fairness — keyed on the peer IP — sees two distinct
/// clients from one test process. `std::net` cannot bind before connecting,
/// so this declares the C-library calls it needs, mirroring the transport's
/// own `sys` shim.
mod src_bind {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::FromRawFd;
    use std::os::raw::c_int;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const AF_INET: u16 = 2;
    const SOCK_STREAM: c_int = 1;

    fn sockaddr(ip: [u8; 4], port: u16) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET,
            sin_port: port.to_be(),
            sin_addr: u32::from_be_bytes(ip).to_be(),
            sin_zero: [0; 8],
        }
    }

    pub fn connect_from(src: [u8; 4], dst: [u8; 4], port: u16) -> io::Result<TcpStream> {
        let len = u32::try_from(std::mem::size_of::<SockaddrIn>()).unwrap();
        // SAFETY: plain C socket calls on a fd this function owns until the
        // TcpStream takes it over; the sockaddr pointers outlive each call.
        unsafe {
            let fd = socket(c_int::from(AF_INET), SOCK_STREAM, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let src = sockaddr(src, 0);
            if bind(fd, &src, len) < 0 {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            let dst = sockaddr(dst, port);
            if connect(fd, &dst, len) < 0 {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            Ok(TcpStream::from_raw_fd(fd))
        }
    }
}

/// Under overload the admission queue sheds the least valuable *waiting*
/// request — here the latest-deadline one — with `429` + `Retry-After`,
/// while the earlier-deadline requests already queued complete normally.
#[test]
fn saturated_queue_sheds_the_latest_deadline_request() {
    let (server, addr) = start_admission_server(2);

    // Occupy the single worker for ~2.5 s.
    let mut occupier = TcpStream::connect(&addr).unwrap();
    occupier
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    occupier
        .write_all(&post_search_bytes(&occupier_body()))
        .unwrap();
    // Let the worker pop it, leaving the queue empty.
    std::thread::sleep(Duration::from_millis(300));

    // Two earlier-deadline requests fill the queue.
    let mut earlier = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(&post_search_bytes(&hinted_search_body(Some(15_000), None)))
            .unwrap();
        earlier.push(stream);
    }
    std::thread::sleep(Duration::from_millis(100));

    // The queue is full: a latest-deadline newcomer is the least valuable
    // waiting request, so it is the one shed — immediately, with a hint to
    // come back.
    let mut victim = TcpStream::connect(&addr).unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    victim
        .write_all(&post_search_bytes(&hinted_search_body(Some(60_000), None)))
        .unwrap();
    let (status, head, body) = read_one_response_with_head(&mut victim);
    assert_eq!(status, 429, "{body}");
    assert!(head.to_ascii_lowercase().contains("retry-after"), "{head}");
    assert!(body.contains("shed"), "{body}");

    // The earlier-deadline requests were untouched and complete.
    for stream in &mut earlier {
        let (status, body) = read_one_response(stream);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"period\""), "{body}");
    }
    // The occupier comes back too (a deadline timeout, not a shed).
    let (status, body) = read_one_response(&mut occupier);
    assert_ne!(status, 429, "{body}");

    let (status, metrics) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tessel_admission_shed_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("tessel_admission_wait_seconds"),
        "{metrics}"
    );

    server.shutdown();
}

/// A greedy client cannot squeeze a polite one out of a saturated queue: the
/// shed victim comes from the client holding the most queue slots, even
/// though the polite client's no-deadline request would be the least
/// valuable by deadline alone.
#[test]
fn greedy_client_is_shed_before_a_polite_one() {
    let (server, addr) = start_admission_server(4);
    let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();

    let mut occupier = TcpStream::connect(&addr).unwrap();
    occupier
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    occupier
        .write_all(&post_search_bytes(&occupier_body()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Three greedy requests (from 127.0.0.1) wait with tight deadlines …
    let mut greedy = Vec::new();
    for _ in 0..3 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(&post_search_bytes(&hinted_search_body(Some(30_000), None)))
            .unwrap();
        greedy.push(stream);
    }
    // … and one polite request (from 127.0.0.2) waits with no deadline.
    let mut polite = src_bind::connect_from([127, 0, 0, 2], [127, 0, 0, 1], port).unwrap();
    polite
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    polite
        .write_all(&post_search_bytes(&hinted_search_body(None, None)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // A fourth greedy request overflows the queue. The victim must come out
    // of the greedy client's allocation, not the polite client's.
    let mut newcomer = TcpStream::connect(&addr).unwrap();
    newcomer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    newcomer
        .write_all(&post_search_bytes(&hinted_search_body(Some(30_000), None)))
        .unwrap();
    greedy.push(newcomer);

    let (status, body) = read_one_response(&mut polite);
    assert_eq!(
        status, 200,
        "the polite client's request must survive: {body}"
    );

    let mut outcomes = Vec::new();
    for stream in &mut greedy {
        let (status, _body) = read_one_response(stream);
        outcomes.push(status);
    }
    assert_eq!(
        outcomes.iter().filter(|&&s| s == 429).count(),
        1,
        "exactly one greedy request is shed: {outcomes:?}"
    );
    assert_eq!(
        outcomes.iter().filter(|&&s| s == 200).count(),
        3,
        "{outcomes:?}"
    );
    let (_status, body) = read_one_response(&mut occupier);
    assert!(!body.is_empty());

    let (status, metrics) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tessel_admission_shed_total 1"),
        "{metrics}"
    );

    server.shutdown();
}

/// `POST /v1/search?stream=1` delivers at least one incumbent event before
/// the terminal result event, over chunked SSE framing: one per improving
/// repetend, strictly decreasing, the last one the result's period.
#[test]
fn streamed_search_delivers_incumbents_then_the_result() {
    let (server, addr) = start_server(ephemeral_config());

    let mut events: Vec<String> = Vec::new();
    let (status, last) =
        http_call_streaming(&addr, "/v1/search?stream=1", &search_body(), |event| {
            events.push(event.to_string());
        })
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(events.last().unwrap(), &last);

    let values: Vec<u64> = events[..events.len() - 1]
        .iter()
        .map(|event| match serde_json::from_str(event).unwrap() {
            StreamEvent::Incumbent { value, .. } => value,
            other => panic!("non-terminal events must be incumbents: {other:?}"),
        })
        .collect();
    assert!(
        !values.is_empty(),
        "expected at least one incumbent before the terminal event: {events:?}"
    );
    assert!(
        values.windows(2).all(|pair| pair[0] > pair[1]),
        "incumbents must strictly decrease: {values:?}"
    );
    match serde_json::from_str(&last).unwrap() {
        StreamEvent::Result(response) => {
            assert!(!response.cached);
            assert_eq!(values.last(), Some(&response.period), "{values:?}");
        }
        other => panic!("expected a terminal result event, got {other:?}"),
    }

    server.shutdown();
}

/// The keep-alive client reuses its connection across calls and survives the
/// server idling it out in between.
#[test]
fn http_client_reuses_and_recovers_connections() {
    let (server, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ephemeral_config()
    });

    let mut client = HttpClient::new(&addr).unwrap();
    let (status, _) = client.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(client.is_connected());
    let (status, _) = client.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(server.transport_snapshot().keepalive_reuses >= 1);

    // Let the server idle the connection out, then call again: the client
    // must transparently reconnect rather than surface an error.
    std::thread::sleep(Duration::from_millis(600));
    let (status, _) = client.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    server.shutdown();
}

/// The header cap holds however the head arrives: 100 KB written in one
/// `write_all` — terminator included, several reads' worth in one readiness
/// event — is refused with `400` and the connection closes.
#[test]
fn oversized_head_in_one_write_is_refused() {
    let (server, addr) = start_server(ephemeral_config());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let pad = "x".repeat(100 * 1024);
    let request = format!("GET /healthz HTTP/1.1\r\nHost: test\r\nX-Pad: {pad}\r\n\r\n");
    // The refusal can land (and the socket close) while the tail is still
    // being written.
    let _ = stream.write_all(request.as_bytes());

    let (status, head, body) = read_one_response_with_head(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("headers too large"), "{body}");
    assert!(head.contains("Connection: close\r\n"), "{head}");
    // The close may surface as EOF or — unread request bytes were still
    // queued — as a reset; either way nothing more is served.
    let mut sink = [0u8; 8];
    assert!(matches!(stream.read(&mut sink), Ok(0) | Err(_)));

    server.shutdown();
}

/// A response whose head exceeds the 64 KiB cap fails the client with
/// `InvalidData` even when it overshoots by less than one read, so that the
/// read that crosses the cap also delivers the terminator.
#[test]
fn http_client_refuses_an_oversized_response_head() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = [0u8; 1024];
        let _ = stream.read(&mut request).unwrap();
        let pad = "x".repeat(64 * 1024 + 1000);
        let response = format!("HTTP/1.1 200 OK\r\nX-Pad: {pad}\r\nContent-Length: 2\r\n\r\nok");
        // The client may hang up before the tail is written.
        let _ = stream.write_all(response.as_bytes());
    });

    let error = http_call(&addr, "GET", "/healthz", None).unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
    assert!(error.to_string().contains("too large"), "{error}");
    peer.join().unwrap();
}

/// A `?stream=1` request that ends up not streaming — its body does not
/// decode, so the worker answers an ordinary `400` — is still on a connection
/// the event loop closes after the response. The response must say so:
/// `Connection: close`, not a `keep-alive` the client would trust.
#[test]
fn unstreamed_stream_request_announces_the_close() {
    let (server, addr) = start_server(ephemeral_config());

    let mut client = HttpClient::new(&addr).unwrap();
    let (status, headers, body) = client
        .call_with_headers("POST", "/v1/search?stream=1", Some("not json"), &[])
        .unwrap();
    assert_eq!(status, 400, "{body}");
    let connection = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("connection"))
        .map(|(_, value)| value.as_str());
    assert_eq!(connection, Some("close"), "{headers:?}");
    assert!(
        !client.is_connected(),
        "the client must not keep the socket"
    );

    // The next call opens a fresh connection up front instead of tripping
    // over a dead one: no keep-alive reuse is recorded for it.
    let (status, _) = client.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(server.transport_snapshot().keepalive_reuses, 0);
    assert!(server.transport_snapshot().connections_accepted >= 2);

    server.shutdown();
}

/// Lengths are digits only and duplicates must agree: a signed
/// `Content-Length`, a signed chunk size and two `Content-Length`s that
/// differ are each a `400` + close; a repeated identical one is served.
#[test]
fn signed_and_conflicting_lengths_are_refused() {
    let (server, addr) = start_server(ephemeral_config());
    let answer = |framing: &str, body: &str| {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let request =
            format!("PUT /v1/debug/loglevel HTTP/1.1\r\nHost: test\r\n{framing}\r\n{body}");
        stream.write_all(request.as_bytes()).unwrap();
        let (status, head, body) = read_one_response_with_head(&mut stream);
        (status, head.contains("Connection: close\r\n"), body)
    };
    let level = r#"{"level":"info"}"#;
    let chunked = "Transfer-Encoding: chunked\r\n";

    for (framing, body) in [
        ("Content-Length: +16\r\n", level.to_string()),
        (
            "Content-Length: 16\r\nContent-Length: 17\r\n",
            level.to_string(),
        ),
        (chunked, format!("+10\r\n{level}\r\n0\r\n\r\n")),
    ] {
        let (status, closes, body) = answer(framing, &body);
        assert_eq!((status, closes), (400, true), "{framing:?}: {body}");
    }
    for (framing, body) in [
        (
            "Content-Length: 16\r\ncontent-length: 16\r\n",
            level.to_string(),
        ),
        (chunked, format!("10\r\n{level}\r\n0\r\n\r\n")),
    ] {
        let (status, closes, body) = answer(framing, &body);
        assert_eq!((status, closes), (200, false), "{framing:?}: {body}");
    }

    server.shutdown();
}

/// A daemon with `workers` workers, the service behind it and its address.
fn with_workers(workers: usize) -> (HttpServer, Arc<ScheduleService>, String) {
    start_with_service(ServerConfig {
        workers,
        ..ephemeral_config()
    })
}

/// Whether some request of `service` is in stage `stage` right now.
fn in_stage(service: &ScheduleService, stage: &str) -> bool {
    (service.debug_inflight().inflight.iter()).any(|entry| entry.stage == stage)
}

/// Blocks until some request of `service` is in stage `stage`.
fn wait_until_stage(service: &ScheduleService, stage: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !in_stage(service, stage) {
        assert!(Instant::now() < deadline, "no request reached `{stage}`");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Blocks until some request of `service` is in its `solve` stage: a worker
/// holds it.
fn wait_until_solving(service: &ScheduleService) {
    wait_until_stage(service, "solve");
}

/// Posts `search_body()` once over `addr`, so later posts of it are hits.
fn warm(addr: &str) {
    let (status, body) = http_call(addr, "POST", "/v1/search", Some(&search_body())).unwrap();
    assert_eq!(status, 200, "{body}");
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// With the only worker solving a slow search, a warm hit on another
/// connection is answered before that search's reply: the event loop
/// answers it without waiting for a worker.
#[test]
fn a_warm_hit_is_answered_while_the_only_worker_solves() {
    let (server, service, addr) = with_workers(1);
    warm(&addr);
    let mut slow = connect(&addr);
    slow.write_all(&post_search_bytes(&occupier_body_for(1500)))
        .unwrap();
    wait_until_solving(&service);

    let mut quick = connect(&addr);
    quick.write_all(&post_search_bytes(&search_body())).unwrap();
    let (status, body) = read_one_response(&mut quick);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    // The slow search is still running: nothing has reached its socket.
    slow.set_nonblocking(true).unwrap();
    let pending = slow.read(&mut [0u8; 1]);
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the slow search answered before the hit: {pending:?}"
    );
    slow.set_nonblocking(false).unwrap();
    let (status, body) = read_one_response(&mut slow);
    assert_eq!(status, 408, "{body}");
    assert_eq!(server.transport_snapshot().answered_on_loop, 1);
    server.shutdown();
}

/// With one of two workers solving and the other idle, a warm hit goes to
/// the idle worker: the event loop stays free to read other connections.
#[test]
fn a_hit_goes_to_an_idle_worker_while_another_solves() {
    let (server, service, addr) = with_workers(2);
    warm(&addr);
    assert_eq!(server.transport_snapshot().answered_on_loop, 0);
    let mut slow = connect(&addr);
    slow.write_all(&post_search_bytes(&occupier_body_for(800)))
        .unwrap();
    wait_until_solving(&service);

    let mut quick = connect(&addr);
    quick.write_all(&post_search_bytes(&search_body())).unwrap();
    let (status, body) = read_one_response(&mut quick);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    assert_eq!(server.transport_snapshot().answered_on_loop, 0);
    let (status, body) = read_one_response(&mut slow);
    assert_eq!(status, 408, "{body}");
    server.shutdown();
}

/// A search too large for the event loop to probe goes to a worker: while
/// that worker canonicalizes it, a health check on another connection is
/// answered at once, though the pool was idle when the search came in.
#[test]
fn a_large_search_is_probed_off_the_event_loop() {
    let (server, service, addr) = with_workers(2);
    let placement = synthetic_placement(ShapeKind::X, 192).expect("placement");
    let mut request = SearchRequest::for_placement(placement);
    request.deadline_ms = Some(1);
    let body = serde_json::to_string(&request).unwrap();
    let mut large = connect(&addr);
    large.write_all(&post_search_bytes(&body)).unwrap();
    wait_until_stage(&service, "canonicalize");

    let (status, health) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{health}");
    assert!(
        in_stage(&service, "canonicalize"),
        "the health check waited for the large search's canonicalization"
    );
    let (status, body) = read_one_response(&mut large);
    assert_eq!(status, 408, "{body}");
    assert_eq!(server.transport_snapshot().answered_on_loop, 0);
    server.shutdown();
}

/// A hit pipelined behind a miss on one connection is answered on the
/// event loop at once, and still reaches the wire after the miss's reply.
#[test]
fn a_hit_pipelined_behind_a_miss_is_answered_in_request_order() {
    let (server, service, addr) = with_workers(1);
    warm(&addr);
    let mut stream = connect(&addr);
    stream
        .write_all(&post_search_bytes(&occupier_body_for(800)))
        .unwrap();
    wait_until_solving(&service);
    stream
        .write_all(&post_search_bytes(&search_body()))
        .unwrap();

    let (status, first) = read_one_response(&mut stream);
    assert_eq!(status, 408, "the miss answers first: {first}");
    let (status, second) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{second}");
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(server.transport_snapshot().answered_on_loop, 1);
    server.shutdown();
}

/// The stage names of the flight record of the request traced `trace`,
/// once the event loop has deposited it.
fn recorded_stages(service: &ScheduleService, trace: &str) -> Vec<String> {
    for _ in 0..500 {
        let recent = service.debug_requests().recent;
        if let Some(record) = recent.into_iter().find(|r| r.trace_id == trace) {
            return record.stages.into_iter().map(|s| s.name).collect();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no flight record for {trace}");
}

/// Posts `search_body()` over `client`; returns the reply's trace ID.
fn traced_search(client: &mut HttpClient, cached: bool) -> String {
    let (status, headers, body) = client
        .call_with_headers("POST", "/v1/search", Some(&search_body()), &[])
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("\"cached\":{cached}")), "{body}");
    let trace = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-tessel-trace-id"));
    trace.expect("a trace ID").1.clone()
}

/// A hit the event loop answers never waits in the admission queue: its
/// record holds no `queue_wait`, and every other stage it ran once.
#[test]
fn a_loop_answered_hit_records_no_queue_wait() {
    let (server, service, addr) = with_workers(2);
    let mut client = HttpClient::new(&addr).unwrap();
    traced_search(&mut client, false);
    let hit = traced_search(&mut client, true);
    assert_eq!(
        recorded_stages(&service, &hit),
        [
            "parse",
            "decode",
            "validate",
            "canonicalize",
            "cache_lookup",
            "translate",
            "serialize",
            "write"
        ]
    );
    assert_eq!(server.transport_snapshot().answered_on_loop, 1);
    server.shutdown();
}

/// A miss the event loop probed reaches a worker with its probe: the
/// record lists the probe's stages once, before the queue wait, and the
/// worker does not probe again (one request counted, one lookup missed).
#[test]
fn a_handed_over_miss_records_its_probe_stages_once() {
    let (server, service, addr) = with_workers(2);
    let mut client = HttpClient::new(&addr).unwrap();
    let miss = traced_search(&mut client, false);
    assert_eq!(
        recorded_stages(&service, &miss),
        [
            "parse",
            "decode",
            "validate",
            "canonicalize",
            "cache_lookup",
            "queue_wait",
            "singleflight_wait",
            "solve",
            "translate",
            "serialize",
            "write"
        ]
    );
    let metrics = service.metrics_snapshot();
    assert_eq!((metrics.requests, metrics.cache_misses), (1, 1));
    assert_eq!(metrics.cache_hits, 0);
    assert_eq!(server.transport_snapshot().answered_on_loop, 0);
    server.shutdown();
}

/// Connects to `server` and waits until it has accepted the connection, so
/// a request written next reaches the event loop in a readiness batch of
/// its own.
fn connect_accepted(server: &HttpServer, addr: &str) -> TcpStream {
    let accepted = server.transport_snapshot().connections_accepted;
    let stream = connect(addr);
    while server.transport_snapshot().connections_accepted == accepted {
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
}

/// Whether `head`'s `Server-Timing` names stage `first` before `then`.
fn timed_before(head: &str, first: &str, then: &str) -> bool {
    let at = |stage: &str| head.find(&format!("{stage};dur=")).expect(stage);
    at(first) < at(then)
}

/// Two fresh searches queue behind a solve that holds the only worker for
/// 1.5 s, each with a 300 ms deadline: one the event loop probes, and one
/// padded with JSON whitespace past the loop's body limit, which the worker
/// probes when it pops it. Both deadlines count from arrival, so both pass
/// in the queue and both searches answer 408.
#[test]
fn a_queued_search_counts_its_deadline_from_arrival() {
    let (server, service, addr) = with_workers(1);
    let mut slow = connect(&addr);
    slow.write_all(&post_search_bytes(&occupier_body_for(1500)))
        .unwrap();
    wait_until_solving(&service);

    let fresh = |devices: usize| {
        let mut request = SearchRequest::for_placement(v_shape(devices));
        request.deadline_ms = Some(300);
        serde_json::to_string(&request).unwrap()
    };
    let mut probed = connect_accepted(&server, &addr);
    probed.write_all(&post_search_bytes(&fresh(3))).unwrap();
    while server.transport_snapshot().admission_queue_depth == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut padded = connect_accepted(&server, &addr);
    let padded_body = fresh(4) + &" ".repeat(9 * 1024);
    padded.write_all(&post_search_bytes(&padded_body)).unwrap();

    let (status, body) = read_one_response(&mut slow);
    assert_eq!(status, 408, "{body}");
    let (status, head, body) = read_one_response_with_head(&mut probed);
    assert_eq!(status, 408, "the loop-probed search: {body}");
    assert!(timed_before(&head, "cache_lookup", "queue_wait"), "{head}");
    let (status, head, body) = read_one_response_with_head(&mut padded);
    assert_eq!(status, 408, "the worker-probed search: {body}");
    assert!(timed_before(&head, "queue_wait", "decode"), "{head}");
    server.shutdown();
}

/// A streamed search keeps one set of books: it leaves exactly one flight
/// record, whose probe stages appear once each.
#[test]
fn a_streamed_search_leaves_one_flight_record() {
    let (server, service, addr) = with_workers(2);
    let (status, _) = http_call_streaming(&addr, "/v1/search?stream=1", &search_body(), |_| {})
        .expect("the stream completes");
    assert_eq!(status, 200);
    let mut recent = Vec::new();
    for _ in 0..500 {
        recent = service.debug_requests().recent;
        if !recent.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(recent.len(), 1, "{recent:?}");
    assert_eq!(recent[0].path, "/v1/search?stream=1");
    let stages: Vec<&str> = recent[0].stages.iter().map(|s| s.name.as_str()).collect();
    for stage in ["decode", "validate", "canonicalize", "cache_lookup"] {
        let count = stages.iter().filter(|&&name| name == stage).count();
        assert_eq!(count, 1, "`{stage}` in {stages:?}");
    }
    server.shutdown();
}

/// A request a worker opens counts its books from its arrival: a
/// `GET /v1/cache` that queues behind a solve holding the only worker ends
/// with a flight record whose total covers every stage, its `queue_wait`
/// included.
#[test]
fn a_queued_request_records_a_total_that_covers_its_stages() {
    let (server, service, addr) = with_workers(1);
    let mut slow = connect(&addr);
    slow.write_all(&post_search_bytes(&occupier_body_for(800)))
        .unwrap();
    wait_until_solving(&service);

    let mut listing = connect(&addr);
    listing
        .write_all(b"GET /v1/cache HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let (status, head, body) = read_one_response_with_head(&mut listing);
    assert_eq!(status, 200, "{body}");
    let trace = head
        .lines()
        .find_map(|line| line.strip_prefix("X-Tessel-Trace-Id: "))
        .expect("a trace ID")
        .to_string();
    let record = (0..500)
        .find_map(|_| {
            let recent = service.debug_requests().recent;
            let found = recent.into_iter().find(|r| r.trace_id == trace);
            if found.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            found
        })
        .expect("the listing's flight record");
    let stages: u64 = record.stages.iter().map(|s| s.micros).sum();
    let queue_wait = record.stages.iter().find(|s| s.name == "queue_wait");
    assert!(
        queue_wait.is_some_and(|s| s.micros >= 100_000),
        "the listing waited behind the solve: {record:?}"
    );
    assert!(record.total_micros >= stages, "{record:?}");
    let (status, body) = read_one_response(&mut slow);
    assert_eq!(status, 408, "{body}");
    server.shutdown();
}
