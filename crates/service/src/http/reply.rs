//! How a request's books are opened and closed around its answer.
//!
//! This module owns one decision: *how a request's books are opened and
//! closed around its answer*. Every response the daemon writes goes through
//! one [`Reply`]. The event loop opens it ([`Reply::open`]) for every
//! request it reads, and for bytes its parser refuses, with the trace ID,
//! request line, peer and `parse` stage, from the instant it read them. The
//! loop then answers on the spot ([`Reply::single_shot`], or
//! [`Reply::on_loop`], which probes a search and answers a hit) or hands the
//! books to the pool inside a [`Job`] ([`Reply::hand_over`]). Whoever takes
//! a job off the admission queue takes its books over and adds `queue_wait`
//! ([`Reply::popped`]): a [`Worker`], which answers a handed-over miss, any
//! other search, streamed or not (incumbent frames are *droppable* under
//! backpressure, the terminal frame never is), or one [`route`]d
//! [`Response`], and reaches the loop through [`Completions`]; or [`shed`],
//! which answers a job the queue turned away with `429`. The epilogue is
//! always [`Reply::finish`]: books closed to a flight record, completion
//! logged, the terminal [`Completion`] built with the record. Every search
//! is probed the same way ([`Reply::probe`]), so its deadline counts from
//! its arrival on either thread.

use super::admission::{AdmissionQueue, Job, Probed, Ticket};
use super::event_loop::Completions;
use super::loop_core::{Completion, PendingFlight};
use super::route::{
    decode_search, error_response, is_search, render_json, route, search_response,
    stream_requested, Response,
};
use crate::inflight::{self, RequestBooks, Stage};
use crate::metrics::TransportMetrics;
use crate::service::{Probe, ScheduleService};
use crate::wire::{ErrorBody, SearchRequest, StageTimingInfo, StreamEvent};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tessel_obs::{TimeSeries, TraceId};

/// Answers `victim`, a job the admission queue shed, with `429`. Its books
/// close with the time it waited, and a search the event loop probed ends
/// counted as a failure.
pub(super) fn shed(service: &Arc<ScheduleService>, victim: Job) -> Completion {
    let (reply, probed) = Reply::popped(service, victim);
    if let Some(probed) = probed {
        service.abandon(probed.probe);
    }
    let response = error_response(
        429,
        "overloaded",
        "shed by admission control: retry shortly",
    );
    reply.single_shot(&response)
}

/// Everything a worker thread needs to answer jobs.
pub(super) struct Worker {
    pub(super) service: Arc<ScheduleService>,
    pub(super) transport: Arc<TransportMetrics>,
    pub(super) timeseries: Option<Arc<TimeSeries>>,
    pub(super) completions: Arc<Completions>,
}

impl Worker {
    /// Answers jobs until the admission queue closes and drains (shutdown).
    pub(super) fn run(&self, admission: &AdmissionQueue) {
        while let Some(job) = admission.pop() {
            let done = self.answer(job);
            self.completions.push(done);
        }
    }

    /// Answers one job; returns its terminal completion.
    pub(super) fn answer(&self, job: Job) -> Completion {
        let (reply, probed) = Reply::popped(&self.service, job);
        let Probed { request, probe } = match probed {
            Some(probed) => probed,
            None if is_search(&reply.ticket.request) => {
                // A body that does not decode is answered with the ordinary
                // (non-streamed) 400, `?stream=1` or not.
                match reply.probe() {
                    Ok(probed) => probed,
                    Err(refusal) => return reply.single_shot(&refusal),
                }
            }
            None => {
                let timeseries = self.timeseries.as_deref();
                let response = route(
                    &self.service,
                    &self.transport,
                    timeseries,
                    &reply.ticket.request,
                );
                return reply.single_shot(&response);
            }
        };
        if stream_requested(&reply.ticket.request) {
            return reply.streamed(&request, probe, &self.completions);
        }
        let response = search_response(&self.service, &request, probe);
        reply.single_shot(&response)
    }
}

/// One request, from the event loop's read to its terminal completion.
pub(super) struct Reply<'s> {
    service: &'s Arc<ScheduleService>,
    ticket: Ticket,
    /// The request's books: it shows up on `GET /v1/debug/inflight` (with
    /// its solver progress board) while a thread works on it, until they
    /// close.
    books: RequestBooks<'s>,
}

impl<'s> Reply<'s> {
    /// The prologue, on the event loop: opens the books of the request in
    /// `ticket` from the instant the loop read it, and records its `parse`
    /// stage, `parse_micros`.
    pub(super) fn open(
        service: &'s Arc<ScheduleService>,
        ticket: Ticket,
        parse_micros: u64,
    ) -> Self {
        // A valid inbound trace ID joins the request to the originating
        // trace (cluster-internal calls); anything else — absent, malformed,
        // oversized — mints a fresh ID and the raw header value is never
        // reflected back.
        let inbound = ticket.request.trace_header.as_deref();
        let books = service.open_request(
            inbound.and_then(TraceId::parse),
            &ticket.request.method,
            &ticket.request.path,
            ticket.client.map(|ip| ip.to_string()),
            ticket.received,
        );
        inflight::record_stage(Stage::Parse, parse_micros);
        Reply {
            service,
            ticket,
            books,
        }
    }

    /// Answers a plain `POST /v1/search` on the event loop when its probe
    /// leaves nothing that could block (a hit, or a refusal); hands a miss
    /// on with its probe.
    pub(super) fn on_loop(self) -> Result<Completion, Box<Job>> {
        let probed = match self.probe() {
            Ok(probed) => probed,
            Err(refusal) => return Ok(self.single_shot(&refusal)),
        };
        if probed.probe.is_miss() {
            return Err(Box::new(self.hand_over(Some(probed))));
        }
        let response = search_response(self.service, &probed.request, probed.probe);
        Ok(self.single_shot(&response))
    }

    /// The first half of every search, on either thread: decode, then probe
    /// from the request's arrival. `Err` is the `400` of an undecodable body.
    fn probe(&self) -> Result<Probed, Response> {
        let request = decode_search(&self.ticket.request.body)?;
        let probe = self.service.probe(&request, self.ticket.received);
        Ok(Probed { request, probe })
    }

    /// Gives the request up to the pool: the books leave this thread, and
    /// the job carries them, with the loop's probe if it made one.
    pub(super) fn hand_over(self, probed: Option<Probed>) -> Job {
        Job::new(self.ticket, self.books.hand_over(), probed)
    }

    /// The prologue of a job off the admission queue: takes over the books
    /// the event loop handed over with it and records the `queue_wait`
    /// stage; returns the loop's probe, if it made one.
    fn popped(service: &'s Arc<ScheduleService>, job: Job) -> (Self, Option<Probed>) {
        let queue_wait = job.enqueued.elapsed().as_micros() as u64;
        let Job {
            ticket,
            books,
            probed,
            ..
        } = job;
        let books = service.take_over_request(books);
        inflight::record_stage(Stage::QueueWait, queue_wait);
        let reply = Reply {
            service,
            ticket,
            books,
        };
        (reply, probed.map(|probed| *probed))
    }

    /// Answers with one encoded response carrying the trace ID and the
    /// `Server-Timing` stage breakdown.
    pub(super) fn single_shot(self, response: &Response) -> Completion {
        let trace_id = self.books.trace_id();
        let keep_alive = !self.ticket.close;
        self.finish(response.status, "request completed", |stages| {
            encode_response(response, keep_alive, trace_id, stages)
        })
    }

    /// Answers `POST /v1/search?stream=1`, probed as `probe`: a chunked SSE
    /// head at once, a droppable `incumbent` event for every period that
    /// improves the resumed search's answer (its progress board's listener),
    /// then a `result` (or `error`) event and the last-chunk. A hit or a
    /// coalesced follower sends no incumbent. The connection then closes.
    fn streamed(
        self,
        search_request: &SearchRequest,
        probe: Probe,
        completions: &Arc<Completions>,
    ) -> Completion {
        let (token, seq, received) = (self.ticket.token, self.ticket.seq, self.ticket.received);
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
                    elapsed_us: received.elapsed().as_micros() as u64,
                };
                let frame = encode_stream_chunk(&event);
                completions.push(Completion::fragment(token, seq, frame, true));
            });
        }
        let result = self.service.resume(search_request, probe);
        let status = match &result {
            Ok(_) => 200,
            Err(e) => e.http_status(),
        };
        let terminal = match result {
            Ok(answer) => StreamEvent::Result(answer.to_response()),
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
        self.finish(status, "streamed request completed", |_stages| bytes)
    }

    /// The epilogue: closes the books (the request leaves
    /// `GET /v1/debug/inflight` before its completion is delivered), logs
    /// the completion line and returns the terminal completion carrying the
    /// flight record. `encode` renders the bytes from the closed stages; the
    /// `write` stage starts once it has.
    fn finish(
        self,
        status: u16,
        message: &str,
        encode: impl FnOnce(&[StageTimingInfo]) -> Vec<u8>,
    ) -> Completion {
        let trace_id = self.books.trace_id();
        let record = self.books.close(status);
        let request = &self.ticket.request;
        // Checked first: the fields are formatted for the line alone, and the
        // daemon usually runs at a level that drops it.
        if tessel_obs::enabled(tessel_obs::Level::Info) {
            tessel_obs::info(
                "http",
                message,
                &[
                    ("method", request.method.as_str()),
                    ("path", request.path.as_str()),
                    ("status", &status.to_string()),
                    ("micros", &record.total_micros.to_string()),
                    ("trace_id", trace_id.as_str()),
                ],
            );
        }
        let bytes = encode(&record.stages);
        let flight = PendingFlight {
            record,
            created: Instant::now(),
        };
        Completion::terminal(&self.ticket, bytes, flight)
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

/// Renders the whole response — head, the trace ID, the `Server-Timing`
/// line of `stages` (none without a stage), then the body — into the one
/// buffer the completion carries, sized up front. A `429` (a shed request,
/// the only one the daemon sends) also says when to retry.
pub(super) fn encode_response(
    response: &Response,
    keep_alive: bool,
    trace_id: TraceId,
    stages: &[StageTimingInfo],
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
    if response.status == 429 {
        encoded.push_str("Retry-After: 1\r\n");
    }
    let _ = write!(encoded, "X-Tessel-Trace-Id: {}\r\n", trace_id.as_str());
    let mut separator = "Server-Timing: ";
    for stage in stages {
        let millis = stage.micros as f64 / 1000.0;
        let _ = write!(encoded, "{separator}{};dur={millis:.3}", stage.name);
        separator = ", ";
    }
    if !stages.is_empty() {
        encoded.push_str("\r\n");
    }
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
