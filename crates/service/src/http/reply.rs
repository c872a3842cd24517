//! How a request's books are opened and closed around its answer, on
//! either thread that answers.
//!
//! This module owns one decision: *how a request's books are opened and
//! closed around its answer*. One [`Reply`] value gives every answer the
//! same prologue (books opened at the instant the event loop received the
//! request, with its trace ID, request line, peer and `parse` stage; on a
//! worker, also `queue_wait`) and epilogue (books closed to a flight record,
//! completion logged, the terminal [`Completion`] built with the record).
//! The event loop answers through [`answer_on_loop`], which probes a search
//! and answers a hit or hands a miss on with its books and probe in the
//! [`Job`], and through [`shed`]'s `429`; a [`Worker`] answers everything
//! else — a handed-over miss, any other search, streamed or not (incumbent
//! frames are *droppable* under backpressure, the terminal frame never is),
//! or one [`route`]d [`Response`] — and reaches the loop through
//! [`Completions`]. Every search is probed the same way ([`probe_search`]),
//! so its deadline counts from its arrival on either thread.

use super::admission::{AdmissionQueue, Job, Probed};
use super::event_loop::Completions;
use super::loop_core::{Completion, PendingFlight};
use super::route::{
    decode_search, error_response, is_search, render_json, route, search_response,
    stream_requested, Response,
};
use crate::inflight::{self, HandedBooks, RequestBooks, Stage};
use crate::metrics::TransportMetrics;
use crate::service::{Probe, ScheduleService};
use crate::wire::{ErrorBody, SearchRequest, StageTimingInfo, StreamEvent};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tessel_obs::{TimeSeries, TraceId};

/// Answers `job`, a plain `POST /v1/search`, on the event loop when its
/// probe leaves nothing that could block (a hit, or a refusal); hands a miss
/// back carrying its books and probe.
pub(super) fn answer_on_loop(
    service: &Arc<ScheduleService>,
    job: Job,
) -> Result<Completion, Box<Job>> {
    let reply = Reply::open(service, job);
    let (request, probe) = match probe_search(service, &reply.job) {
        Ok(probed) => probed,
        Err(refusal) => return Ok(reply.single_shot(&refusal)),
    };
    if probe.is_miss() {
        return Err(Box::new(reply.hand_over(request, probe)));
    }
    let response = search_response(service, &request, probe);
    Ok(reply.single_shot(&response))
}

/// The first half of every search, on either thread: decode, then probe
/// from the request's arrival. `Err` is the `400` of an undecodable body.
fn probe_search(service: &ScheduleService, job: &Job) -> Result<(SearchRequest, Probe), Response> {
    let request = decode_search(&job.request.body)?;
    let probe = service.probe(&request, job.received);
    Ok((request, probe))
}

/// Answers `victim`, a job the admission queue shed, with `429`. A probed
/// search's books close with it, so the request keeps its flight record and
/// ends counted as a failure.
pub(super) fn shed(service: &Arc<ScheduleService>, mut victim: Job) -> Completion {
    let response = error_response(
        429,
        "overloaded",
        "shed by admission control: retry shortly",
    );
    let Some(probed) = victim.probed.take() else {
        let bytes = encode_response(&response, !victim.close, |_| {});
        return Completion::full(victim.token, victim.seq, bytes, victim.close);
    };
    let Probed { books, probe, .. } = *probed;
    service.abandon(probe);
    Reply::take_over(service, victim, books).single_shot(&response)
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
        let (request, probe) = match probed {
            Some(probed) => probed,
            None if is_search(&reply.job.request) => {
                // A body that does not decode is answered with the ordinary
                // (non-streamed) 400, `?stream=1` or not.
                match probe_search(&self.service, &reply.job) {
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
                    &reply.job.request,
                );
                return reply.single_shot(&response);
            }
        };
        if stream_requested(&reply.job.request) {
            return reply.streamed(&request, probe, &self.completions);
        }
        let response = search_response(&self.service, &request, probe);
        reply.single_shot(&response)
    }
}

/// One request, from the thread that takes it on to its terminal
/// completion.
struct Reply<'s> {
    service: &'s Arc<ScheduleService>,
    job: Job,
    /// The request's books: it shows up on `GET /v1/debug/inflight` (with
    /// its solver progress board) until they close.
    books: RequestBooks<'s>,
}

impl<'s> Reply<'s> {
    /// The prologue: opens the request's books on this thread, from the
    /// instant the event loop received it, and records the `parse` stage.
    fn open(service: &'s Arc<ScheduleService>, job: Job) -> Self {
        // A valid inbound trace ID joins the request to the originating
        // trace (cluster-internal calls); anything else — absent, malformed,
        // oversized — mints a fresh ID and the raw header value is never
        // reflected back.
        let inbound = job.request.trace_header.as_deref();
        let books = service.open_request(
            inbound.and_then(TraceId::parse),
            &job.request.method,
            &job.request.path,
            job.client.map(|ip| ip.to_string()),
            job.received,
        );
        inflight::record_stage(Stage::Parse, job.parse_micros);
        Reply {
            service,
            job,
            books,
        }
    }

    /// The prologue on a worker: takes over the books of a search the event
    /// loop probed — returning the decoded request and its probe — or opens
    /// fresh ones, then records the `queue_wait` stage.
    fn popped(
        service: &'s Arc<ScheduleService>,
        mut job: Job,
    ) -> (Self, Option<(SearchRequest, Probe)>) {
        let queue_wait = job.enqueued.elapsed().as_micros() as u64;
        let (reply, probed) = match job.probed.take() {
            Some(probed) => {
                let probed = *probed;
                let reply = Reply::take_over(service, job, probed.books);
                (reply, Some((probed.request, probed.probe)))
            }
            None => (Reply::open(service, job), None),
        };
        inflight::record_stage(Stage::QueueWait, queue_wait);
        (reply, probed)
    }

    /// Puts the books the event loop handed over with `job` on this thread.
    fn take_over(service: &'s Arc<ScheduleService>, job: Job, books: HandedBooks) -> Self {
        let books = service.take_over_request(books);
        Reply {
            service,
            job,
            books,
        }
    }

    /// Gives up a probed search that missed: the books leave this thread,
    /// and the job carries them, the request and the probe to a worker.
    fn hand_over(self, request: SearchRequest, probe: Probe) -> Job {
        let Reply { mut job, books, .. } = self;
        let books = books.hand_over();
        job.probed = Some(Box::new(Probed {
            books,
            request,
            probe,
        }));
        job
    }

    /// Answers with one encoded response carrying the trace ID and the
    /// `Server-Timing` stage breakdown.
    fn single_shot(self, response: &Response) -> Completion {
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
        let (token, seq, received) = (self.job.token, self.job.seq, self.job.received);
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
        let request = &self.job.request;
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
        let mut done = Completion::full(self.job.token, self.job.seq, bytes, self.job.close);
        let created = Instant::now();
        done.flight = Some(Box::new(PendingFlight { record, created }));
        done
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
/// completion carries, sized up front. A `429` (a shed request, the only
/// one the daemon sends) also says when to retry.
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
    if response.status == 429 {
        encoded.push_str("Retry-After: 1\r\n");
    }
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
