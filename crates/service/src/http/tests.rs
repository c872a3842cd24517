//! The transport's unit tests, one module so their names stay put as the
//! code they cover moved into `parse`, `admission`, `route` and `reply`.
//! (Cases added with the split live beside their subject.)

use super::admission::{AdmissionQueue, Job, OfferOutcome, Ticket};
use super::parse::*;
use super::reply::{encode_response, encode_stream_chunk, shed, status_text, Reply};
use super::route::{error_response, stream_requested, Response};
use crate::inflight::InflightRegistry;
use crate::metrics::{ServiceMetrics, TransportMetrics};
use crate::service::{ScheduleService, ServiceConfig};
use crate::wire::{SearchRequest, StageTimingInfo, StreamEvent};
use std::net::IpAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tessel_obs::TraceId;

fn parse_all(input: &[u8]) -> (Vec<ParsedRequest>, usize) {
    let mut buf = input.to_vec();
    let mut cursor = ParseCursor::default();
    let mut out = Vec::new();
    loop {
        match parse_request(&buf, &mut cursor) {
            Ok(Some((request, consumed))) => {
                buf.drain(..consumed);
                cursor = ParseCursor::default();
                out.push(request);
            }
            Ok(None) => break,
            Err(e) => panic!("unexpected parse error: {e}"),
        }
    }
    let leftover = buf.len();
    (out, leftover)
}

#[test]
fn response_encoding_is_well_formed() {
    let response = Response {
        status: 200,
        content_type: "application/json",
        body: "{}".into(),
    };
    let trace = TraceId::parse(&"a".repeat(32)).unwrap();
    let encode = |response: &Response, keep_alive: bool, stages: &[StageTimingInfo]| {
        String::from_utf8(encode_response(response, keep_alive, trace, stages)).unwrap()
    };
    let keep = encode(&response, true, &[]);
    assert!(keep.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(keep.contains("Content-Length: 2\r\n"));
    assert!(keep.contains("Connection: keep-alive\r\n"));
    assert!(keep.contains(&format!("X-Tessel-Trace-Id: {}\r\n", "a".repeat(32))));
    assert!(!keep.contains("Server-Timing"), "no stage, no line");
    assert!(keep.ends_with("\r\n\r\n{}"));
    let close = encode(&response, false, &[]);
    assert!(close.contains("Connection: close\r\n"));
    assert_eq!(status_text(408), "Request Timeout");
    assert_eq!(status_text(599), "Internal Server Error");
    // The stages land on one `Server-Timing` line before the blank line.
    let stage = |name: &str, micros| StageTimingInfo {
        name: name.into(),
        micros,
    };
    let timed = encode(&response, true, &[stage("parse", 7), stage("solve", 1500)]);
    assert!(timed.contains("Server-Timing: parse;dur=0.007, solve;dur=1.500\r\n\r\n{}"));
    // A shed request is told when to retry, before its trace ID.
    let shed = error_response(429, "overloaded", "retry shortly");
    let shed = encode(&shed, true, &[]);
    assert!(shed.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
    assert!(shed.contains("Retry-After: 1\r\nX-Tessel-Trace-Id: "));
}

#[test]
fn trace_id_header_is_captured_with_a_size_cap() {
    let with =
        b"GET /healthz HTTP/1.1\r\nx-tessel-trace-id: 0123456789abcdef0123456789abcdef\r\n\r\n";
    let (requests, _) = parse_all(with);
    assert_eq!(
        requests[0].trace_header.as_deref(),
        Some("0123456789abcdef0123456789abcdef")
    );
    let without = b"GET /healthz HTTP/1.1\r\n\r\n";
    let (requests, _) = parse_all(without);
    assert!(requests[0].trace_header.is_none());
    // An oversized value is dropped at parse time (treated as absent),
    // so it can never reach a log line or be reflected in a response.
    let oversized = format!(
        "GET /healthz HTTP/1.1\r\nX-Tessel-Trace-Id: {}\r\n\r\n",
        "f".repeat(MAX_TRACE_HEADER_BYTES + 1)
    );
    let (requests, _) = parse_all(oversized.as_bytes());
    assert!(requests[0].trace_header.is_none());
    // A malformed-but-small value is kept raw; the worker's validation
    // (`TraceId::parse`) rejects it and mints a fresh ID.
    let garbage = b"GET /healthz HTTP/1.1\r\nX-Tessel-Trace-Id: not-hex!\r\n\r\n";
    let (requests, _) = parse_all(garbage);
    assert_eq!(requests[0].trace_header.as_deref(), Some("not-hex!"));
    assert!(tessel_obs::TraceId::parse("not-hex!").is_none());
}

#[test]
fn header_end_detection_resumes_from_scan_offset() {
    let find = |buf: &[u8], mut scanned| find_head_end(buf, 0, &mut scanned, "headers");
    assert_eq!(find(b"GET / HTTP/1.1\r\n\r\nbody", 0), Ok(Some(14)));
    assert_eq!(find(b"partial\r\n", 0), Ok(None));
    // A later scan offset must still find a terminator spanning it.
    let buf = b"GET / HTTP/1.1\r\n\r\n";
    assert_eq!(find(buf, 13), Ok(Some(14)));
}

#[test]
fn incremental_parse_needs_full_head_and_body() {
    let mut cursor = ParseCursor::default();
    let full = b"POST /v1/search HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
    for cut in [10, 30, full.len() - 1] {
        let mut s = ParseCursor::default();
        assert!(matches!(parse_request(&full[..cut], &mut s), Ok(None)));
    }
    match parse_request(full, &mut cursor) {
        Ok(Some((request, consumed))) => {
            assert_eq!(consumed, full.len());
            assert_eq!(request.method, "POST");
            assert_eq!(request.path, "/v1/search");
            assert_eq!(request.body, "body");
            assert!(!request.close, "HTTP/1.1 defaults to keep-alive");
        }
        other => panic!("expected request, got {other:?}"),
    }
}

#[test]
fn pipelined_requests_parse_in_order() {
    let wire = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
    let (requests, leftover) = parse_all(wire);
    assert_eq!(requests.len(), 2);
    assert_eq!(leftover, 0);
    assert_eq!(requests[0].path, "/healthz");
    assert!(!requests[0].close);
    assert_eq!(requests[1].path, "/metrics");
    assert!(requests[1].close);
}

#[test]
fn connection_semantics_follow_the_http_version() {
    let old = b"GET / HTTP/1.0\r\n\r\n";
    let (requests, _) = parse_all(old);
    assert!(requests[0].close, "HTTP/1.0 defaults to close");
    let old_keep = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    let (requests, _) = parse_all(old_keep);
    assert!(!requests[0].close);
}

#[test]
fn chunked_bodies_decode_incrementally() {
    let full = b"POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                 4\r\nbody\r\n6\r\n-tail!\r\n0\r\n\r\n";
    // Every prefix is NeedMore, never an error.
    for cut in 1..full.len() {
        let mut cursor = ParseCursor::default();
        assert!(
            matches!(parse_request(&full[..cut], &mut cursor), Ok(None)),
            "cut at {cut}"
        );
    }
    let mut cursor = ParseCursor::default();
    match parse_request(full, &mut cursor) {
        Ok(Some((request, consumed))) => {
            assert_eq!(consumed, full.len());
            assert_eq!(request.body, "body-tail!");
            assert!(!request.close);
        }
        _ => panic!("expected a complete chunked request"),
    }
}

#[test]
fn chunked_trailers_and_extensions_are_consumed() {
    let wire = b"POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                 5;ext=1\r\nhello\r\n0\r\nX-Checksum: abc\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
    let (requests, leftover) = parse_all(wire);
    assert_eq!(requests.len(), 2, "trailer section must be consumed");
    assert_eq!(requests[0].body, "hello");
    assert_eq!(requests[1].path, "/healthz");
    assert_eq!(leftover, 0);
}

#[test]
fn chunked_errors_are_rejected() {
    let bad_size = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n";
    let mut cursor = ParseCursor::default();
    assert!(parse_request(bad_size, &mut cursor).is_err());
    let bad_term = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhiXX0\r\n\r\n";
    let mut cursor = ParseCursor::default();
    assert!(parse_request(bad_term, &mut cursor).is_err());
    let unsupported = b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
    let mut cursor = ParseCursor::default();
    assert!(parse_request(unsupported, &mut cursor).is_err());
    // A chunk-size line that never ends is garbage, not a slow sender.
    let mut runaway = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    runaway.extend(std::iter::repeat_n(b'f', MAX_CHUNK_SIZE_LINE + 8));
    let mut cursor = ParseCursor::default();
    assert!(parse_request(&runaway, &mut cursor).is_err());
}

#[test]
fn adversarial_chunk_sizes_error_without_panicking() {
    // A size near 2^64 must hit the budget check, not overflow the
    // `decoded + size` arithmetic (which would panic the event-loop
    // thread in debug builds and corrupt slice bounds in release).
    for huge in ["fffffffffffffffe", "ffffffffffffffff", "100000000"] {
        let wire =
            format!("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nAA\r\n{huge}\r\n");
        let mut cursor = ParseCursor::default();
        assert!(
            parse_request(wire.as_bytes(), &mut cursor).is_err(),
            "size {huge} must be rejected"
        );
    }
    // Sizes that do not even parse as u64 are rejected too.
    let wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1ffffffffffffffff\r\n";
    let mut cursor = ParseCursor::default();
    assert!(parse_request(wire, &mut cursor).is_err());
}

#[test]
fn chunked_progress_is_checkpointed_across_calls() {
    // Feed a two-chunk body one byte at a time through ONE cursor (as
    // the connection state machine does) and confirm the decode
    // completes; the checkpoint means earlier chunks are not re-decoded.
    let full =
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
    let mut cursor = ParseCursor::default();
    for cut in 1..full.len() {
        assert!(matches!(parse_request(&full[..cut], &mut cursor), Ok(None)));
    }
    // After the first chunk is complete, the cursor has moved past it.
    assert_eq!(cursor.body, b"abcde");
    match parse_request(full, &mut cursor) {
        Ok(Some((request, consumed))) => {
            assert_eq!(request.body, "abcde");
            assert_eq!(consumed, full.len());
        }
        _ => panic!("expected a complete request"),
    }
}

#[test]
fn chunked_takes_precedence_over_content_length() {
    // A request smuggling both headers is decoded as chunked (RFC 9112):
    // the Content-Length of 9999 must not make the parser wait.
    let wire = b"POST / HTTP/1.1\r\nContent-Length: 9999\r\nTransfer-Encoding: chunked\r\n\r\n\
                 2\r\nok\r\n0\r\n\r\n";
    let mut cursor = ParseCursor::default();
    match parse_request(wire, &mut cursor) {
        Ok(Some((request, consumed))) => {
            assert_eq!(request.body, "ok");
            assert_eq!(consumed, wire.len());
        }
        _ => panic!("expected a complete request"),
    }
}

#[test]
fn stream_flag_is_detected_in_the_query() {
    let request = |path: &str, method: &str| ParsedRequest {
        method: method.into(),
        path: path.into(),
        body: String::new(),
        close: false,
        trace_header: None,
    };
    assert!(stream_requested(&request("/v1/search?stream=1", "POST")));
    assert!(stream_requested(&request(
        "/v1/search?foo=bar&stream=1",
        "POST"
    )));
    assert!(!stream_requested(&request("/v1/search", "POST")));
    assert!(!stream_requested(&request("/v1/search?stream=0", "POST")));
    assert!(!stream_requested(&request("/v1/search?stream=1", "GET")));
    assert!(!stream_requested(&request("/v1/cache?stream=1", "POST")));
}

#[test]
fn json_integer_scan_finds_admission_hints() {
    let body = r#"{"placement":{"priority_map":[1,2]},"priority":7,"deadline_ms":1500}"#;
    assert_eq!(scan_json_integer(body, "priority"), Some(7));
    assert_eq!(scan_json_integer(body, "deadline_ms"), Some(1500));
    assert_eq!(scan_json_integer(body, "absent"), None);
    assert_eq!(
        scan_json_integer(r#"{"priority":-3}"#, "priority"),
        Some(-3)
    );
    // A null (the serializer always writes the key) reads as absent.
    assert_eq!(scan_json_integer(r#"{"priority":null}"#, "priority"), None);
    // A quoted key that is only a prefix of another key must not match
    // that other key's value.
    assert_eq!(
        scan_json_integer(r#"{"priority_class":2,"priority": 4}"#, "priority"),
        Some(4)
    );
}

#[test]
fn stream_chunks_are_well_formed_sse_frames() {
    let event = StreamEvent::Incumbent {
        value: 42,
        elapsed_us: 7_250,
    };
    let chunk = encode_stream_chunk(&event);
    let text = String::from_utf8(chunk).unwrap();
    // `hex-size\r\n data \r\n`, payload `data: {...}\n\n`.
    let (size_line, rest) = text.split_once("\r\n").unwrap();
    let size = usize::from_str_radix(size_line, 16).unwrap();
    let payload = &rest[..size];
    assert!(rest[size..].starts_with("\r\n"));
    assert!(payload.starts_with("data: {"));
    assert!(payload.ends_with("\n\n"));
    assert!(payload.contains("\"event\":\"incumbent\""));
    assert!(payload.contains("\"value\":42"));
    assert!(payload.contains("\"elapsed_us\":7250"));
}

fn admission_job(client: Option<IpAddr>, priority: i64, deadline: Option<Instant>) -> Job {
    let registry = InflightRegistry::default();
    let metrics = ServiceMetrics::new();
    let received = Instant::now();
    let books = registry.open(&metrics, None, "POST", "/v1/search", None, received);
    Job {
        ticket: search_ticket(client, String::new()),
        books: books.hand_over(),
        probed: None,
        enqueued: received,
        priority,
        deadline,
    }
}

/// A `POST /v1/search` of `body` from `client`, read just now.
fn search_ticket(client: Option<IpAddr>, body: String) -> Ticket {
    Ticket {
        token: 0,
        seq: 0,
        request: ParsedRequest {
            method: "POST".into(),
            path: "/v1/search".into(),
            body,
            close: false,
            trace_header: None,
        },
        close: false,
        received: Instant::now(),
        client,
    }
}

/// A miss the event loop probed and the admission queue then shed closes
/// its books with the `429`: its flight record holds the probe's stages and
/// the wait in the queue, and the request its probe counted ends counted as
/// a failure.
#[test]
fn a_shed_probed_miss_closes_its_books_with_429() {
    let service = Arc::new(ScheduleService::new(ServiceConfig::default()).unwrap());
    let placement = tessel_placement::synthetic_placement(tessel_placement::ShapeKind::V, 2);
    let body = serde_json::to_string(&SearchRequest::for_placement(placement.unwrap()))
        .expect("the request serialises");
    let reply = Reply::open(&service, search_ticket(None, body), 0);
    let Err(missed) = reply.on_loop() else {
        panic!("an empty cache answered the search");
    };
    assert!(missed.probed.is_some(), "the miss carries its probe");

    let done = shed(&service, *missed);
    let record = done.flight.expect("a flight record").record;
    assert_eq!(record.status, 429);
    let stages: Vec<&str> = record.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        stages,
        [
            "parse",
            "decode",
            "validate",
            "canonicalize",
            "cache_lookup",
            "queue_wait"
        ]
    );
    let metrics = service.metrics_snapshot();
    assert_eq!((metrics.requests, metrics.errors), (1, 1));
    assert_eq!(
        metrics.cache_hits + metrics.cache_misses + metrics.coalesced,
        0
    );
    assert!(
        service.debug_inflight().inflight.is_empty(),
        "the books closed"
    );
}

#[test]
fn admission_pops_by_fairness_priority_then_deadline() {
    let queue = AdmissionQueue::new(8, Arc::new(TransportMetrics::new()));
    let a: IpAddr = "10.0.0.1".parse().unwrap();
    let b: IpAddr = "10.0.0.2".parse().unwrap();
    let now = Instant::now();
    // Same client, differing priority and deadline.
    assert!(matches!(
        queue.offer(admission_job(
            Some(a),
            0,
            Some(now + Duration::from_secs(9))
        )),
        OfferOutcome::Admitted { shed: None }
    ));
    assert!(matches!(
        queue.offer(admission_job(Some(a), 5, None)),
        OfferOutcome::Admitted { shed: None }
    ));
    assert!(matches!(
        queue.offer(admission_job(
            Some(a),
            0,
            Some(now + Duration::from_secs(1))
        )),
        OfferOutcome::Admitted { shed: None }
    ));
    assert!(matches!(
        queue.offer(admission_job(Some(b), 0, None)),
        OfferOutcome::Admitted { shed: None }
    ));
    // Highest priority first (within client `a`), but after the first
    // pop client `a` has been served once, so client `b` goes next.
    let first = queue.pop().unwrap();
    assert_eq!((first.ticket.client, first.priority), (Some(a), 5));
    let second = queue.pop().unwrap();
    assert_eq!(second.ticket.client, Some(b));
    // Back to `a`: earliest deadline among its equal-priority waiters.
    let third = queue.pop().unwrap();
    assert_eq!(third.deadline, Some(now + Duration::from_secs(1)));
    // Closing still drains the last waiter; only then do pops return
    // `None`, and new offers are refused.
    queue.close();
    let fourth = queue.pop().unwrap();
    assert_eq!(fourth.deadline, Some(now + Duration::from_secs(9)));
    assert!(queue.pop().is_none());
    assert!(matches!(
        queue.offer(admission_job(Some(a), 0, None)),
        OfferOutcome::Closed
    ));
}

#[test]
fn fairness_counts_only_clients_that_are_waiting() {
    let queue = AdmissionQueue::new(8, Arc::new(TransportMetrics::new()));
    let a: IpAddr = "10.0.0.1".parse().unwrap();
    let b: IpAddr = "10.0.0.2".parse().unwrap();
    // `a` is served five times while nobody else is waiting...
    for _ in 0..5 {
        queue.offer(admission_job(Some(a), 0, None));
        assert_eq!(queue.pop().unwrap().ticket.client, Some(a));
    }
    assert_eq!(queue.counted_clients(), 0);
    // ...so when `b` turns up with three requests, `a`'s next one waits
    // behind one of them, not all three.
    for _ in 0..3 {
        queue.offer(admission_job(Some(b), 0, None));
    }
    queue.offer(admission_job(Some(a), 0, None));
    let order: Vec<_> = (0..4).map(|_| queue.pop().unwrap().ticket.client).collect();
    assert_eq!(order, [Some(b), Some(a), Some(b), Some(b)]);
    assert_eq!(queue.counted_clients(), 0);
}

#[test]
fn overload_sheds_the_least_valuable_waiting_request() {
    let queue = AdmissionQueue::new(2, Arc::new(TransportMetrics::new()));
    let now = Instant::now();
    let a: IpAddr = "10.0.0.1".parse().unwrap();
    let b: IpAddr = "10.0.0.2".parse().unwrap();
    queue.offer(admission_job(
        Some(a),
        0,
        Some(now + Duration::from_secs(1)),
    ));
    queue.offer(admission_job(Some(a), 0, None)); // no deadline = latest
                                                  // The overflowing urgent arrival evicts the deadline-less waiter,
                                                  // not itself and not the earlier-deadline one.
    match queue.offer(admission_job(
        Some(b),
        0,
        Some(now + Duration::from_secs(2)),
    )) {
        OfferOutcome::Admitted { shed: Some(victim) } => {
            assert_eq!(victim.ticket.client, Some(a));
            assert!(victim.deadline.is_none());
        }
        _ => panic!("expected a shed victim"),
    }
    // Priority outranks deadline: a low-priority urgent request is shed
    // before a high-priority lazy one.
    let queue = AdmissionQueue::new(1, Arc::new(TransportMetrics::new()));
    queue.offer(admission_job(Some(a), 9, None));
    match queue.offer(admission_job(
        Some(b),
        -1,
        Some(now + Duration::from_millis(5)),
    )) {
        OfferOutcome::Admitted { shed: Some(victim) } => {
            assert_eq!(victim.priority, -1, "the newcomer itself is shed");
        }
        _ => panic!("expected a shed victim"),
    }
}

#[test]
fn malformed_requests_error_out() {
    let mut cursor = ParseCursor::default();
    assert!(parse_request(b"not a request\r\n\r\n", &mut cursor).is_err());
    let mut cursor = ParseCursor::default();
    let bad_length = b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
    assert!(parse_request(bad_length, &mut cursor).is_err());
}
