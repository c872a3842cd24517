//! What a worker does with one job.
//!
//! This module owns one decision: *how a request's books are opened and
//! closed around its answer*. Every job gets the same prologue (the books
//! opened with the trace ID, request line and peer; the `parse` /
//! `queue_wait` stages) and the same epilogue (the books closed to a flight
//! record, completion logged, terminal [`Completion`] queued) from one
//! [`Reply`] value, through the same open and close the in-process
//! [`ScheduleService`] calls use; only the middle differs —
//! one [`route`]d [`Response`], or the chunked `text/event-stream` of
//! `POST /v1/search?stream=1`, whose incumbent frames are *droppable* under
//! backpressure while the terminal frame never is. Encoding lives here too,
//! for the event loop's own `400` / `429` answers.

use super::admission::{AdmissionQueue, Job};
use super::event_loop::{Completion, Completions, PendingFlight};
use super::route::{decode_json, render_json, route, stream_requested, Response};
use crate::inflight::{self, RequestBooks, Stage};
use crate::metrics::TransportMetrics;
use crate::service::ScheduleService;
use crate::wire::{ErrorBody, SearchRequest, StageTimingInfo, StreamEvent};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tessel_obs::{TimeSeries, TraceId};

/// Everything a worker thread needs to answer jobs.
pub(super) struct Worker {
    pub(super) service: Arc<ScheduleService>,
    pub(super) transport: Arc<TransportMetrics>,
    pub(super) timeseries: Option<Arc<TimeSeries>>,
    pub(super) completions: Arc<Completions>,
}

impl Worker {
    /// Answers jobs until `pop` returns `None`: queue closed and drained,
    /// i.e. shutdown.
    pub(super) fn run(&self, admission: &AdmissionQueue) {
        while let Some(job) = admission.pop() {
            let reply = Reply::open(self, job);
            if stream_requested(&reply.job.request) {
                // A body that does not even parse degrades to the ordinary
                // (non-streamed) 400 below via `route`.
                if let Ok(search_request) = decode_json(&reply.job.request.body) {
                    reply.streamed(&search_request);
                    continue;
                }
            }
            let timeseries = self.timeseries.as_deref();
            let response = route(
                &self.service,
                &self.transport,
                timeseries,
                &reply.job.request,
            );
            reply.single_shot(&response);
        }
    }
}

/// One job, from worker pickup to its terminal completion.
struct Reply<'w> {
    worker: &'w Worker,
    job: Job,
    started: Instant,
    /// The request's books: it shows up on `GET /v1/debug/inflight` (with
    /// its solver progress board) until they close.
    books: RequestBooks<'w>,
}

impl<'w> Reply<'w> {
    /// The prologue: opens the request's books and records what happened
    /// before a worker saw it.
    fn open(worker: &'w Worker, job: Job) -> Self {
        // A valid inbound trace ID joins the request to the originating
        // trace (cluster-internal calls); anything else — absent, malformed,
        // oversized — mints a fresh ID and the raw header value is never
        // reflected back.
        let inbound = job.request.trace_header.as_deref();
        let started = Instant::now();
        let queue_wait = job.enqueued.elapsed().as_micros() as u64;
        let books = worker.service.open_request(
            inbound.and_then(TraceId::parse),
            &job.request.method,
            &job.request.path,
            job.client.map(|ip| ip.to_string()),
        );
        inflight::record_stage(Stage::Parse, job.parse_micros);
        inflight::record_stage(Stage::QueueWait, queue_wait);
        Reply {
            worker,
            job,
            started,
            books,
        }
    }

    /// Answers with one encoded response carrying the trace ID and the
    /// `Server-Timing` stage breakdown.
    fn single_shot(self, response: &Response) {
        let trace_id = self.books.trace_id();
        let keep_alive = !self.job.close;
        self.finish(response.status, "request completed", |stages| {
            encode_response(response, keep_alive, |head| {
                let _ = write!(head, "X-Tessel-Trace-Id: {}\r\n", trace_id.as_str());
                let mut separator = "Server-Timing: ";
                for stage in stages {
                    let millis = stage.micros as f64 / 1000.0;
                    let _ = write!(head, "{separator}{};dur={millis:.3}", stage.name);
                    separator = ", ";
                }
                if separator == ", " {
                    // At least one stage was written: end the line.
                    head.push_str("\r\n");
                }
            })
        });
    }

    /// Answers `POST /v1/search?stream=1`: sends a chunked SSE head
    /// immediately, answers the request as usual while the books' progress
    /// board pushes a (droppable) `incumbent` event for every period that
    /// improves the search's answer, and terminates the stream with a
    /// `result` (or `error`) event followed by the last-chunk. The periods
    /// strictly decrease and the last is the result's; a cache hit or a
    /// coalesced follower runs no search and sends none. Streaming responses
    /// always close the connection (`job.close` is set for them).
    fn streamed(self, search_request: &SearchRequest) {
        let (token, seq, started) = (self.job.token, self.job.seq, self.started);
        let completions = &self.worker.completions;
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nTransfer-Encoding: chunked\r\nConnection: close\r\nX-Tessel-Trace-Id: {}\r\n\r\n",
            self.books.trace_id().as_str()
        );
        completions.push(Completion::fragment(token, seq, head.into_bytes(), false));
        if let Some(board) = inflight::with_current(|entry| entry.board().clone()) {
            let completions = completions.clone();
            board.listen(move |value| {
                let event = StreamEvent::Incumbent {
                    value,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                };
                let frame = encode_stream_chunk(&event);
                completions.push(Completion::fragment(token, seq, frame, true));
            });
        }
        let result = self.worker.service.search(search_request);
        let status = match &result {
            Ok(_) => 200,
            Err(e) => e.http_status(),
        };
        let terminal = match result {
            Ok(response) => StreamEvent::Result(response),
            Err(e) => StreamEvent::Error {
                status,
                body: ErrorBody {
                    kind: e.kind().into(),
                    error: e.to_string(),
                },
            },
        };
        let mut bytes = encode_stream_chunk(&terminal);
        bytes.extend_from_slice(b"0\r\n\r\n");
        self.finish(status, "streamed request completed", |_stages| bytes);
    }

    /// The epilogue: closes the books — so the request has left
    /// `GET /v1/debug/inflight` before its completion is queued — logs the
    /// completion line, and queues the terminal completion with the flight
    /// record, which the event loop finalizes once the response's write pass
    /// has run. `encode` renders the terminal bytes from the closed stages.
    fn finish(
        self,
        status: u16,
        message: &str,
        encode: impl FnOnce(&[StageTimingInfo]) -> Vec<u8>,
    ) {
        let trace_id = self.books.trace_id();
        let record = self.books.close(status);
        let request = &self.job.request;
        // Checked first: the fields are formatted for the line alone, and the
        // daemon usually runs at a level that drops it.
        if tessel_obs::enabled(tessel_obs::Level::Info) {
            let total_micros = record.as_ref().map_or(0, |r| r.total_micros);
            tessel_obs::info(
                "http",
                message,
                &[
                    ("method", request.method.as_str()),
                    ("path", request.path.as_str()),
                    ("status", &status.to_string()),
                    ("micros", &total_micros.to_string()),
                    ("trace_id", trace_id.as_str()),
                ],
            );
        }
        let flight = record.map(|record| {
            Box::new(PendingFlight {
                service: self.worker.service.clone(),
                record,
                created: Instant::now(),
            })
        });
        let stages = flight.as_ref().map_or(&[][..], |f| &f.record.stages[..]);
        let bytes = encode(stages);
        let mut done = Completion::full(self.job.token, self.job.seq, bytes, self.job.close);
        done.flight = flight;
        self.worker.completions.push(done);
    }
}

pub(super) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Renders the whole response — head, then `extra_headers`' complete
/// `Name: value\r\n` lines, then the body — into the one buffer the
/// completion carries, sized up front.
pub(super) fn encode_response(
    response: &Response,
    keep_alive: bool,
    extra_headers: impl FnOnce(&mut String),
) -> Vec<u8> {
    // The fixed head is ~110 bytes; a trace ID and a full `Server-Timing`
    // line add ~300.
    let mut encoded = String::with_capacity(512 + response.body.len());
    let _ = write!(
        encoded,
        "HTTP/1.1 {status} {text}\r\nContent-Type: {content_type}\r\nContent-Length: {length}\r\nConnection: {connection}\r\n",
        status = response.status,
        text = status_text(response.status),
        content_type = response.content_type,
        length = response.body.len(),
        connection = if keep_alive { "keep-alive" } else { "close" },
    );
    extra_headers(&mut encoded);
    encoded.push_str("\r\n");
    encoded.push_str(&response.body);
    encoded.into_bytes()
}

/// Encodes one SSE event (`data: <json>\n\n`) as an HTTP chunk.
pub(super) fn encode_stream_chunk(event: &StreamEvent) -> Vec<u8> {
    let payload = format!("data: {}\n\n", render_json(event));
    let mut out = format!("{:x}\r\n", payload.len()).into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out.extend_from_slice(b"\r\n");
    out
}
