//! Readiness-based HTTP/1.1 transport over nonblocking `std::net` sockets.
//!
//! The build environment has no async runtime or HTTP crate, so the daemon
//! hand-rolls the narrow slice of HTTP it needs on top of the epoll shim in
//! the crate-private `sys` module:
//!
//! * **One event-loop thread** owns every socket. The listener, a wakeup
//!   pipe and all client connections are registered with a level-triggered
//!   `Poller`; the loop reacts to readiness instead of blocking per
//!   connection, so thousands of idle keep-alive clients cost one sleeping
//!   thread, not one thread each.
//! * **Per-connection state machines** parse requests incrementally (bytes
//!   accumulate in a read buffer until a full head + body is present) and
//!   write responses incrementally (a write buffer drains whenever the
//!   socket is writable), so a slow or malicious peer can never stall the
//!   loop.
//! * **Keep-alive and pipelining**: HTTP/1.1 connections persist across
//!   requests by default (`Connection: close` and HTTP/1.0 semantics are
//!   honoured), and a client may pipeline several requests back-to-back —
//!   responses are reordered to request order before they are written.
//! * **The worker pool still runs the searches.** Parsed requests are handed
//!   to a bounded pool through a deadline/priority-aware `AdmissionQueue`:
//!   workers pop the most urgent waiting request (fewest-served client
//!   first, then highest priority, then earliest deadline), and a full queue
//!   sheds the *least valuable* waiting request — lowest priority, largest
//!   queue share, latest deadline — with `429` + `Retry-After` instead of
//!   refusing the newest arrival. Finished responses come back through a
//!   completion list plus a wakeup-pipe byte that rouses the event loop. A
//!   slow solve therefore never blocks connection handling.
//! * **Anytime streaming**: `POST /v1/search?stream=1` answers with a
//!   chunked `text/event-stream`. Each improving incumbent the solver proves
//!   becomes a `data: {"event":"incumbent",...}` frame the moment it is
//!   found; the final frame carries the full result (or error) and the
//!   stream closes the connection. Incumbent frames are *droppable*: when a
//!   slow consumer's write backlog passes the backpressure bound they are
//!   discarded rather than buffered without limit — the terminal frame never
//!   is.
//! * **Idle timeouts**: connections with no request in flight are closed
//!   after [`ServerConfig::idle_timeout`], which also reaps slow-loris peers
//!   that trickle a request forever.
//!
//! Request bodies arrive either with `Content-Length` or with
//! `Transfer-Encoding: chunked` (decoded incrementally in the same state
//! machine, trailers consumed and ignored). An optional per-IP accept cap
//! ([`ServerConfig::max_conns_per_ip`]) drops over-cap connections at accept
//! time, before any parsing.
//!
//! Routes:
//!
//! | Method | Path                        | Handler                            |
//! |--------|-----------------------------|------------------------------------|
//! | POST   | `/v1/search`                | run or fetch a schedule search     |
//! | POST   | `/v1/search?stream=1`       | same, streaming incumbents (SSE)   |
//! | POST   | `/v1/search/batch`          | many searches, deduped in-batch    |
//! | GET    | `/v1/cache`                 | list cache entries                 |
//! | GET    | `/v1/cache/{fp}`            | inspect one fingerprint            |
//! | PUT    | `/v1/cache/{fp}`            | accept a replicated entry (cluster)|
//! | GET    | `/v1/cluster`               | ring membership and peer health    |
//! | GET    | `/v1/cluster/export/{node}` | warm-up stream of `{node}`'s shard |
//! | GET    | `/v1/debug/requests`        | flight recorder (recent + slowest) |
//! | GET    | `/v1/debug/inflight`        | live in-flight requests + progress |
//! | GET    | `/v1/debug/timeseries`      | sampled rate/gauge window (JSON)   |
//! | GET    | `/v1/debug/trace/{id}`      | fleet-wide assembled span timeline |
//! | GET    | `/v1/debug/loglevel`        | current log level                  |
//! | PUT    | `/v1/debug/loglevel`        | change the log level at runtime    |
//! | GET    | `/metrics`                  | Prometheus text metrics            |
//! | GET    | `/healthz`                  | liveness probe (+ `unix_ms` clock) |
//!
//! `GET /v1/debug/requests` accepts `?status=`, `?min_micros=`, `?endpoint=`
//! and `?trace=` filters (conjunctive); `GET /v1/debug/timeseries` accepts
//! `?window=N` to bound the returned tick count.
//!
//! Every response carries an `X-Tessel-Trace-Id` header (the request-scoped
//! trace ID, joined from a valid inbound `X-Tessel-Trace-Id` or freshly
//! minted) and a `Server-Timing` header with the per-stage breakdown; the
//! same stages land in the flight recorder behind `/v1/debug/requests`.
//!
//! [`HttpClient`] is the matching keep-alive client used by `tessel-client`
//! and the end-to-end tests; [`http_call`] is the one-shot
//! (connection-per-request) convenience wrapper.

use crate::flight::{now_unix_ms, FlightRecord, StageTiming};
use crate::metrics::{ServiceMetrics, TransportMetrics};
use crate::service::{ScheduleService, ServiceError};
use crate::sys::{Event, Interest, Poller};
use crate::wire::{ErrorBody, StreamEvent};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tessel_core::fingerprint::Fingerprint;

/// Upper bound on header bytes accepted per request.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on body bytes accepted per request.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Client-side socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(120);
/// Unflushed response bytes beyond which a connection stops being read
/// (resumed once the peer drains its side).
const WRITE_BACKPRESSURE_BYTES: usize = 256 * 1024;
/// Reads drained from one connection per readiness event before yielding to
/// the other connections (level-triggered epoll re-arms automatically).
const READS_PER_EVENT: usize = 16;
/// Longest inbound `X-Tessel-Trace-Id` header value considered at all; a
/// longer value is dropped before validation so a hostile peer cannot make
/// the daemon buffer or log an arbitrarily large header. (Valid trace IDs
/// are exactly 32 characters; the slack only exists to keep the cutoff far
/// from the legitimate size.)
const MAX_TRACE_HEADER_BYTES: usize = 128;

/// Event-loop registration token of the listener socket.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop registration token of the wakeup pipe.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Response headers as they appeared on the wire: `(name, value)` pairs in
/// arrival order, names keeping their wire casing (look up
/// case-insensitively).
pub type ResponseHeaders = Vec<(String, String)>;

/// Configuration of the HTTP server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Parsed requests waiting for a worker before the admission queue
    /// starts shedding the least valuable one with `429`.
    pub queue_depth: usize,
    /// Close connections with no request in flight after this long.
    pub idle_timeout: Duration,
    /// Pipelined requests accepted per connection before reads pause.
    pub max_pipelined: usize,
    /// Open connections allowed per client IP; a connection arriving over
    /// the cap is closed at accept (counted in
    /// `tessel_http_rejected_per_ip_total`). `0` disables the cap.
    pub max_conns_per_ip: usize,
    /// Milliseconds between live-plane samples (requests/s, shed/s, cache
    /// hit ratio, solver nodes/s, queue depth, open connections) taken by
    /// the background sampler for `GET /v1/debug/timeseries`. `0` disables
    /// the sampler entirely (the endpoint then answers `404`).
    pub sample_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7700".into(),
            workers: 4,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(60),
            max_pipelined: 32,
            max_conns_per_ip: 0,
            sample_interval_ms: 1000,
        }
    }
}

/// Series sampled by the live-plane sampler thread, in ring order.
const SAMPLER_SERIES: [&str; 6] = [
    "requests_per_s",
    "shed_per_s",
    "cache_hit_ratio",
    "solver_nodes_per_s",
    "queue_depth",
    "connections_open",
];

/// Ticks retained by the sampler ring (10 minutes at the default 1 s
/// cadence; six series of f64 keep this under 30 KiB).
const TIMESERIES_CAPACITY: usize = 600;

/// A running HTTP server; dropping it without [`HttpServer::shutdown`] leaves
/// the daemon threads running for the life of the process.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: PipeWriter,
    loop_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    sampler_handle: Option<JoinHandle<()>>,
    timeseries: Option<Arc<tessel_obs::TimeSeries>>,
    transport: Arc<TransportMetrics>,
}

impl HttpServer {
    /// Binds `config.addr` and serves `service` until
    /// [`HttpServer::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind and poller setup failures.
    pub fn serve(service: Arc<ScheduleService>, config: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Self::serve_listener(service, listener, config)
    }

    /// Serves `service` on an already bound `listener` (`config.addr` is
    /// ignored). The cluster tests bind both fleet members' listeners first
    /// so each daemon can be configured with the other's real address before
    /// either starts serving.
    ///
    /// # Errors
    ///
    /// Propagates poller setup failures.
    pub fn serve_listener(
        service: Arc<ScheduleService>,
        listener: TcpListener,
        config: &ServerConfig,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let transport = Arc::new(TransportMetrics::new());
        let (wake_rx, wake_tx) = std::io::pipe()?;

        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;

        let workers = config.workers.max(1);
        let admission = Arc::new(AdmissionQueue::new(
            config.queue_depth.max(1),
            transport.clone(),
        ));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        let timeseries = (config.sample_interval_ms > 0).then(|| {
            Arc::new(tessel_obs::TimeSeries::new(
                &SAMPLER_SERIES,
                TIMESERIES_CAPACITY,
                config.sample_interval_ms,
            ))
        });
        let sampler_handle = timeseries.as_ref().map(|timeseries| {
            let timeseries = Arc::clone(timeseries);
            let service = service.clone();
            let transport = transport.clone();
            let stop = stop.clone();
            let interval = Duration::from_millis(config.sample_interval_ms);
            std::thread::spawn(move || {
                sampler_loop(&timeseries, &service, &transport, &stop, interval)
            })
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let admission = admission.clone();
                let service = service.clone();
                let transport = transport.clone();
                let timeseries = timeseries.clone();
                let completions = completions.clone();
                // Shared (not per-worker-owned): the streaming incumbent
                // sink clones it into solver-thread callbacks.
                let waker = Arc::new(Mutex::new(wake_tx.try_clone()?));
                // The loop ends when `pop` returns `None`: queue closed and
                // drained, i.e. shutdown.
                Ok(std::thread::spawn(move || {
                    while let Some(job) = admission.pop() {
                        // A valid inbound trace ID joins the request to the
                        // originating trace (cluster-internal calls); anything
                        // else — absent, malformed, oversized — mints a fresh ID
                        // and the raw header value is never reflected back.
                        let trace_id = job
                            .request
                            .trace_header
                            .as_deref()
                            .and_then(tessel_obs::TraceId::parse)
                            .unwrap_or_else(tessel_obs::TraceId::generate);
                        let started = Instant::now();
                        let start_unix_ms = now_unix_ms();
                        tessel_obs::begin_request(trace_id);
                        tessel_obs::record_stage("parse", job.parse_micros);
                        tessel_obs::record_stage(
                            "queue_wait",
                            job.enqueued.elapsed().as_micros() as u64,
                        );
                        // Live registration: the request shows up on
                        // `GET /v1/debug/inflight` (with its solver progress
                        // board) until the guard drops at the end of this
                        // iteration.
                        let _inflight = service.register_inflight(
                            &job.request.method,
                            &job.request.path,
                            job.client.map(|ip| ip.to_string()),
                        );
                        if stream_requested(&job.request) {
                            // A body that does not even parse degrades to the
                            // ordinary (non-streamed) 400 below via `route`.
                            if let Ok(search_request) =
                                decode_body::<crate::wire::SearchRequest>(&job.request.body)
                            {
                                run_streaming(
                                    &service,
                                    &completions,
                                    &waker,
                                    &job,
                                    &search_request,
                                    trace_id,
                                    started,
                                    start_unix_ms,
                                );
                                continue;
                            }
                        }
                        let response =
                            route(&service, &transport, timeseries.as_deref(), &job.request);
                        let flight = finish_request(
                            &service,
                            &job,
                            trace_id,
                            response.status,
                            started,
                            start_unix_ms,
                            "request completed",
                        );
                        let bytes = encode_response(&response, !job.request.close, |head| {
                            let _ = write!(head, "X-Tessel-Trace-Id: {}\r\n", trace_id.as_str());
                            let mut separator = "Server-Timing: ";
                            for stage in flight.iter().flat_map(|flight| &flight.record.stages) {
                                let millis = stage.micros as f64 / 1000.0;
                                let _ = write!(head, "{separator}{};dur={millis:.3}", stage.name);
                                separator = ", ";
                            }
                            if separator == ", " {
                                // At least one stage was written: end the line.
                                head.push_str("\r\n");
                            }
                        });
                        let mut done =
                            Completion::full(job.token, job.seq, bytes, job.request.close);
                        done.flight = flight;
                        push_completion(&completions, &waker, done);
                    }
                }))
            })
            .collect::<std::io::Result<_>>()?;

        let mut event_loop = EventLoop {
            poller,
            listener,
            wake_rx,
            conns: HashMap::new(),
            per_ip: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            admission,
            completions,
            transport: transport.clone(),
            stop: stop.clone(),
            idle_timeout: config.idle_timeout,
            max_pipelined: config.max_pipelined.max(1),
            max_conns_per_ip: config.max_conns_per_ip,
            idle_deadline: None,
        };
        let loop_handle = std::thread::spawn(move || event_loop.run());

        Ok(HttpServer {
            addr,
            stop,
            waker: wake_tx,
            loop_handle: Some(loop_handle),
            worker_handles,
            sampler_handle,
            timeseries,
            transport,
        })
    }

    /// The live-plane sample ring, when the sampler is enabled
    /// (`sample_interval_ms > 0`).
    #[must_use]
    pub fn timeseries(&self) -> Option<&Arc<tessel_obs::TimeSeries>> {
        self.timeseries.as_ref()
    }

    /// The address the server actually listens on (resolves `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time snapshot of the transport gauges and counters (also
    /// rendered into `GET /metrics`).
    #[must_use]
    pub fn transport_snapshot(&self) -> crate::metrics::TransportSnapshot {
        self.transport.snapshot()
    }

    /// Stops the event loop, drains the workers and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.waker.write(&[1]);
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
        // The event loop closed the admission queue on exit, which unblocks
        // the workers once the queue is empty.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.sampler_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Body of the live-plane sampler thread: once per `interval`, reads the
/// cumulative service/transport counters, converts them into per-second
/// rates (and point-in-time gauges) and pushes one tick into the ring.
/// Sleeps in short slices so shutdown never waits a full interval.
fn sampler_loop(
    timeseries: &tessel_obs::TimeSeries,
    service: &ScheduleService,
    transport: &TransportMetrics,
    stop: &AtomicBool,
    interval: Duration,
) {
    let mut prev = service.metrics_snapshot();
    let mut prev_shed = transport.admission_shed.load(Ordering::Relaxed);
    let mut last_tick = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(interval.min(Duration::from_millis(50)));
        if last_tick.elapsed() < interval {
            continue;
        }
        let elapsed_s = last_tick.elapsed().as_secs_f64().max(1e-3);
        last_tick = Instant::now();
        let now = service.metrics_snapshot();
        let shed = transport.admission_shed.load(Ordering::Relaxed);
        let requests = now.requests.saturating_sub(prev.requests);
        let hits = now.cache_hits.saturating_sub(prev.cache_hits);
        let misses = now.cache_misses.saturating_sub(prev.cache_misses);
        let looked_up = hits + misses;
        timeseries.push(
            now_unix_ms(),
            &[
                requests as f64 / elapsed_s,
                shed.saturating_sub(prev_shed) as f64 / elapsed_s,
                if looked_up == 0 {
                    0.0
                } else {
                    hits as f64 / looked_up as f64
                },
                now.solver_nodes.saturating_sub(prev.solver_nodes) as f64 / elapsed_s,
                transport.admission_queue_depth.load(Ordering::Relaxed) as f64,
                transport.connections_open.load(Ordering::Relaxed) as f64,
            ],
        );
        prev = now;
        prev_shed = shed;
    }
}

/// One parsed request, handed from the event loop to the worker pool.
#[derive(Debug)]
struct ParsedRequest {
    method: String,
    path: String,
    body: String,
    /// The connection must close after this request's response (explicit
    /// `Connection: close`, or HTTP/1.0 without `keep-alive`).
    close: bool,
    /// Raw `X-Tessel-Trace-Id` header value, if one arrived within the size
    /// cap. Validated by the worker ([`tessel_obs::TraceId::parse`]); an
    /// invalid value mints a fresh ID and is never echoed back.
    trace_header: Option<String>,
}

/// A unit of work for the pool: which connection, which slot in its response
/// order, and the request itself.
struct Job {
    token: u64,
    seq: u64,
    request: ParsedRequest,
    /// Microseconds the final (completing) parse pass took; the `parse`
    /// stage of the request's trace.
    parse_micros: u64,
    /// When the job entered the worker queue; the gap to worker pickup is
    /// the `queue_wait` stage.
    enqueued: Instant,
    /// Source IP, the admission queue's fairness unit.
    client: Option<IpAddr>,
    /// Admission priority scanned from the request body (`"priority"`);
    /// higher pops first. Defaults to 0.
    priority: i64,
    /// Absolute admission deadline derived from the body's `"deadline_ms"`;
    /// earlier pops first among equal priorities, and a later deadline is
    /// shed first under overload.
    deadline: Option<Instant>,
}

/// A finished response (or response fragment) travelling back to the event
/// loop.
struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
    /// This completion finishes its request slot. Streaming responses send
    /// many `fin: false` fragments (head, incumbent events) before one final
    /// `fin: true` completion; everything else is a single `fin: true`.
    fin: bool,
    /// The fragment may be discarded when the connection's unflushed write
    /// backlog passes [`WRITE_BACKPRESSURE_BYTES`] — used for lossy
    /// incumbent events, never for heads or terminal frames (which are
    /// always `droppable: false`, and a droppable fragment is never `fin`).
    droppable: bool,
    /// Flight-recorder entry finalized once the event loop's write pass has
    /// run for this response (`None` for transport-level error responses).
    flight: Option<Box<PendingFlight>>,
}

impl Completion {
    /// An ordinary single-shot response: finishes the slot, never dropped.
    fn full(token: u64, seq: u64, bytes: Vec<u8>, close: bool) -> Self {
        Completion {
            token,
            seq,
            bytes,
            close,
            fin: true,
            droppable: false,
            flight: None,
        }
    }

    /// One fragment of a streaming response: leaves the slot and the
    /// connection open. `droppable` marks a lossy incumbent event.
    fn fragment(token: u64, seq: u64, bytes: Vec<u8>, droppable: bool) -> Self {
        Completion {
            fin: false,
            droppable,
            ..Completion::full(token, seq, bytes, false)
        }
    }
}

/// One request waiting for a worker, with its admission bookkeeping.
struct Waiting {
    job: Job,
    /// Monotone admission counter; the final tie-breaker for both pop
    /// (oldest first) and shed (newest first).
    arrival: u64,
}

/// State behind the [`AdmissionQueue`] lock.
struct AdmissionState {
    waiting: Vec<Waiting>,
    /// Requests handed to workers so far, per client — the fairness
    /// account: the client with the fewest served requests pops first.
    served: HashMap<Option<IpAddr>, u64>,
    arrivals: u64,
    closed: bool,
}

/// What [`AdmissionQueue::offer`] did with a parsed request.
enum OfferOutcome {
    /// The request is waiting for a worker. Admitting into a full queue
    /// evicts the least valuable waiting request — lowest priority first,
    /// then the client holding the most queue slots, then the latest
    /// deadline (no deadline sorts latest), then the newest arrival —
    /// returned here so the event loop can answer it with `429`.
    Admitted { shed: Option<Job> },
    /// The server is shutting down; the job was dropped unserved.
    Closed,
}

/// Deadline/priority-aware bounded admission queue between the event loop
/// and the worker pool (replaces a plain FIFO channel).
///
/// Pop order: fewest-served client first (round-robin fairness across
/// source IPs), then highest priority, then earliest deadline (none sorts
/// last), then oldest arrival. Overload sheds the least valuable waiting
/// request (see [`OfferOutcome::Admitted`]).
struct AdmissionQueue {
    state: Mutex<AdmissionState>,
    available: Condvar,
    capacity: usize,
    transport: Arc<TransportMetrics>,
}

impl AdmissionQueue {
    fn new(capacity: usize, transport: Arc<TransportMetrics>) -> Self {
        AdmissionQueue {
            state: Mutex::new(AdmissionState {
                waiting: Vec::new(),
                served: HashMap::new(),
                arrivals: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            transport,
        }
    }

    /// Ranks `deadline`s with "no deadline" as the latest possible one.
    fn deadline_or_max(deadline: Option<Instant>) -> (bool, Option<Instant>) {
        // `(true, _)` (no deadline) orders after every `(false, Some(_))`.
        (deadline.is_none(), deadline)
    }

    fn offer(&self, job: Job) -> OfferOutcome {
        let mut state = self.state.lock().expect("admission lock");
        if state.closed {
            return OfferOutcome::Closed;
        }
        let arrival = state.arrivals;
        state.arrivals += 1;
        state.waiting.push(Waiting { job, arrival });
        let shed = if state.waiting.len() > self.capacity {
            // Least valuable first: lowest priority, then the client
            // hogging the most slots, then the latest deadline, then the
            // newest arrival. (The newcomer itself is a candidate — a
            // low-priority late-deadline arrival into a queue of urgent
            // work sheds itself.)
            let mut share: HashMap<Option<IpAddr>, usize> = HashMap::new();
            for w in &state.waiting {
                *share.entry(w.job.client).or_insert(0) += 1;
            }
            let victim = state
                .waiting
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    b.job
                        .priority
                        .cmp(&a.job.priority)
                        .then_with(|| share.get(&a.job.client).cmp(&share.get(&b.job.client)))
                        .then_with(|| {
                            Self::deadline_or_max(a.job.deadline)
                                .cmp(&Self::deadline_or_max(b.job.deadline))
                        })
                        .then_with(|| a.arrival.cmp(&b.arrival))
                })
                .map(|(index, _)| index)
                .expect("non-empty waiting list");
            Some(state.waiting.swap_remove(victim).job)
        } else {
            None
        };
        self.transport
            .admission_queue_depth
            .store(state.waiting.len() as u64, Ordering::Relaxed);
        drop(state);
        self.available.notify_one();
        OfferOutcome::Admitted { shed }
    }

    /// Blocks until a request is available (or `None` after [`close`] once
    /// the queue has drained) and returns the most urgent waiting request.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission lock");
        loop {
            if let Some(index) = Self::select(&state) {
                let picked = state.waiting.swap_remove(index);
                *state.served.entry(picked.job.client).or_insert(0) += 1;
                self.transport
                    .admission_queue_depth
                    .store(state.waiting.len() as u64, Ordering::Relaxed);
                self.transport
                    .admission_wait
                    .observe_micros(picked.job.enqueued.elapsed().as_micros() as u64);
                return Some(picked.job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("admission lock");
        }
    }

    /// Index of the most urgent waiting request: fewest-served client,
    /// then highest priority, then earliest deadline, then oldest arrival.
    fn select(state: &AdmissionState) -> Option<usize> {
        state
            .waiting
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let served_a = state.served.get(&a.job.client).copied().unwrap_or(0);
                let served_b = state.served.get(&b.job.client).copied().unwrap_or(0);
                served_a
                    .cmp(&served_b)
                    .then_with(|| b.job.priority.cmp(&a.job.priority))
                    .then_with(|| {
                        Self::deadline_or_max(a.job.deadline)
                            .cmp(&Self::deadline_or_max(b.job.deadline))
                    })
                    .then_with(|| a.arrival.cmp(&b.arrival))
            })
            .map(|(index, _)| index)
    }

    /// Marks the queue closed and wakes every worker; waiting requests
    /// still drain before `pop` starts returning `None`.
    fn close(&self) {
        let mut state = self.state.lock().expect("admission lock");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }
}

/// A worker-built flight record waiting for its `write` stage: the event
/// loop stamps `created.elapsed()` after flushing the response and deposits
/// the record. This measures completion-to-write-pass, an approximation of
/// time-to-wire that never blocks on a slow peer draining the socket.
struct PendingFlight {
    service: Arc<ScheduleService>,
    record: FlightRecord,
    created: Instant,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    read_buf: Vec<u8>,
    /// Incremental-parse progress over `read_buf` (head scan + chunked-body
    /// decode).
    cursor: ParseCursor,
    /// Encoded responses waiting for the socket.
    write_buf: Vec<u8>,
    /// `write_buf` prefix already written.
    written: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number whose response goes out next (pipelined responses are
    /// reordered to request order).
    next_to_send: u64,
    /// Response bytes per sequence number that cannot be written yet (out of
    /// order, or an in-progress stream). The flag marks the slot finished;
    /// an unfinished slot forwards bytes but holds its place in the order.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched but not yet completed.
    in_flight: usize,
    /// Last socket activity, for the idle-timeout sweep.
    last_activity: Instant,
    /// No further requests are accepted; close once everything is flushed.
    draining: bool,
    /// The peer closed its sending half.
    peer_closed: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Source IP, for the per-IP accept cap bookkeeping.
    peer_ip: Option<std::net::IpAddr>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.written == self.write_buf.len()
    }

    fn idle(&self) -> bool {
        self.in_flight == 0
    }

    /// The interest this connection should be registered with right now.
    fn wanted_interest(&self, max_pipelined: usize) -> Interest {
        let backpressured = self.write_buf.len() - self.written >= WRITE_BACKPRESSURE_BYTES;
        Interest {
            readable: !self.draining
                && !self.peer_closed
                && self.in_flight < max_pipelined
                && !backpressured,
            writable: !self.flushed(),
        }
    }
}

/// The single-threaded readiness loop that owns every socket.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: PipeReader,
    conns: HashMap<u64, Conn>,
    /// Open connections per source IP (entries removed at zero).
    per_ip: HashMap<std::net::IpAddr, usize>,
    next_token: u64,
    admission: Arc<AdmissionQueue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    transport: Arc<TransportMetrics>,
    stop: Arc<AtomicBool>,
    idle_timeout: Duration,
    max_pipelined: usize,
    /// Open connections allowed per source IP (`0` = unlimited).
    max_conns_per_ip: usize,
    /// Lower bound on the earliest idle-connection deadline, maintained in
    /// O(1) as connections go idle. Activity only pushes real deadlines
    /// later, so a sweep scheduled from this bound can fire early (and find
    /// nothing) but never late. `None` means no idle connection exists.
    /// This keeps the per-event work O(events), not O(connections) — the
    /// full scan happens only when the bound actually elapses.
    idle_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.drain_waker();
                        self.apply_completions();
                    }
                    token => {
                        if event.hangup {
                            // The connection is dead in both directions (or
                            // errored); dropping the fd is the only way to
                            // consume the level-triggered condition. Any
                            // in-flight response is undeliverable anyway and
                            // is dropped when its completion finds no
                            // connection.
                            self.close_conn(token);
                            continue;
                        }
                        if event.readable {
                            self.conn_readable(token);
                        }
                        if event.writable {
                            self.conn_writable(token);
                        }
                    }
                }
            }
            if self
                .idle_deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                self.sweep_idle();
            }
        }
        // Shutdown: close every connection and the admission queue so the
        // workers drain and exit.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        self.admission.close();
    }

    /// The wait timeout: time until the (lower bound on the) earliest idle
    /// deadline, if any connection is idle.
    fn next_timeout(&self) -> Option<Duration> {
        self.idle_deadline.map(|deadline| {
            deadline
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO)
        })
    }

    /// Notes that a connection went idle now: the next sweep must happen no
    /// later than one idle timeout from now.
    fn note_idle(&mut self) {
        let candidate = Instant::now() + self.idle_timeout;
        self.idle_deadline = Some(match self.idle_deadline {
            Some(existing) => existing.min(candidate),
            None => candidate,
        });
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let ip = peer.ip();
                    if self.max_conns_per_ip > 0
                        && self.per_ip.get(&ip).copied().unwrap_or(0) >= self.max_conns_per_ip
                    {
                        // Dropping the stream closes it: the cheapest
                        // possible rejection, before any read or parse work.
                        self.transport
                            .rejected_per_ip
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = Interest::READABLE;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, interest)
                        .is_err()
                    {
                        continue;
                    }
                    *self.per_ip.entry(ip).or_insert(0) += 1;
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            cursor: ParseCursor::default(),
                            write_buf: Vec::new(),
                            written: 0,
                            next_seq: 0,
                            next_to_send: 0,
                            pending: BTreeMap::new(),
                            in_flight: 0,
                            last_activity: Instant::now(),
                            draining: false,
                            peer_closed: false,
                            interest,
                            peer_ip: Some(ip),
                        },
                    );
                    self.transport
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                    self.transport
                        .connections_idle
                        .fetch_add(1, Ordering::Relaxed);
                    self.transport
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.note_idle();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        // The pipe is readable, so one read returns whatever bytes are
        // queued without blocking; leftovers re-arm the (level-triggered)
        // poller for the next iteration.
        let mut sink = [0u8; 1024];
        let _ = self.wake_rx.read(&mut sink);
    }

    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut completions = self.completions.lock().expect("completion lock");
            std::mem::take(&mut *completions)
        };
        let mut tokens: Vec<u64> = Vec::new();
        for completion in batch {
            if !tokens.contains(&completion.token) {
                tokens.push(completion.token);
            }
            self.deliver(completion);
        }
        // Completions freed pipelining capacity: parse any requests already
        // sitting in the read buffer. Without this, a client that pipelined
        // past `max_pipelined` in one burst and then went quiet would never
        // get the tail served — epoll only fires on new *socket* data, not
        // on bytes already buffered in user space.
        for token in tokens {
            self.parse_ready(token);
            self.update_interest(token);
        }
    }

    /// Records a finished response (or streaming fragment) for `seq`, moves
    /// every byte that is now in request order into the write buffer,
    /// flushes what the socket accepts, then finalizes the request's
    /// flight-recorder entry (the `write` stage is the
    /// worker-completion-to-write-pass gap).
    fn deliver(&mut self, completion: Completion) {
        let Completion {
            token,
            seq,
            bytes,
            close,
            fin,
            droppable,
            flight,
        } = completion;
        if let Some(conn) = self.conns.get_mut(&token) {
            // Lossy fragments (incumbent events) are discarded when the
            // peer is not draining its socket, so a stalled stream consumer
            // costs bounded memory. `fin` bookkeeping below still runs —
            // droppable fragments are never `fin` by construction.
            let backlogged = conn.write_buf.len() - conn.written >= WRITE_BACKPRESSURE_BYTES;
            if !(droppable && backlogged) {
                let slot = conn
                    .pending
                    .entry(seq)
                    .or_insert_with(|| (Vec::new(), false));
                slot.0.extend_from_slice(&bytes);
                slot.1 |= fin;
            }
            let mut became_idle = false;
            if fin {
                conn.in_flight -= 1;
                became_idle = conn.idle();
                if became_idle {
                    self.transport
                        .connections_idle
                        .fetch_add(1, Ordering::Relaxed);
                }
                if close {
                    conn.draining = true;
                }
            }
            // Drain in request order. An unfinished slot (an in-progress
            // stream) forwards the bytes it has and stays put, blocking
            // later responses until its terminal fragment arrives.
            while let Some(slot) = conn.pending.get_mut(&conn.next_to_send) {
                conn.write_buf.append(&mut slot.0);
                if !slot.1 {
                    break;
                }
                conn.pending.remove(&conn.next_to_send);
                conn.next_to_send += 1;
            }
            if became_idle {
                self.note_idle();
            }
            self.flush(token);
        }
        // The record is deposited even when the connection is gone: the
        // request *was* served, and the trace is most interesting exactly
        // when the client gave up waiting for it.
        if let Some(pending) = flight {
            let pending = *pending;
            let write_micros = pending.created.elapsed().as_micros() as u64;
            let mut record = pending.record;
            record.total_micros += write_micros;
            record.stages.push(StageTiming {
                name: "write".to_string(),
                micros: write_micros,
            });
            let path = record
                .path
                .split_once('?')
                .map_or(record.path.as_str(), |(p, _)| p);
            let label = ServiceMetrics::endpoint_label(path);
            pending
                .service
                .metrics()
                .observe_endpoint_micros(label, record.total_micros);
            pending.service.record_flight(record);
        }
    }

    /// Writes as much of the connection's write buffer as the socket
    /// accepts, then closes (if draining and done) or re-arms interest.
    fn flush(&mut self, token: u64) {
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while !conn.flushed() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        should_close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
            if !should_close && conn.flushed() {
                conn.write_buf.clear();
                conn.written = 0;
                if (conn.draining || conn.peer_closed) && conn.idle() && conn.pending.is_empty() {
                    should_close = true;
                }
            }
        }
        if should_close {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let mut chunk = [0u8; 16 * 1024];
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.interest.readable {
                // Stale readiness after reads were paused; ignore.
                return;
            }
            for _ in 0..READS_PER_EVENT {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    // Note: receiving bytes does NOT refresh `last_activity`.
                    // Only a *completed* request (see `parse_ready`) or a
                    // response write counts as activity, so a slow-loris
                    // peer trickling an incomplete head forever is still
                    // reaped by the idle sweep.
                    Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
        }
        if should_close {
            self.close_conn(token);
            return;
        }
        self.parse_ready(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.peer_closed && conn.idle() && conn.flushed() && conn.pending.is_empty() {
            self.close_conn(token);
            return;
        }
        self.update_interest(token);
    }

    /// Parses every complete request sitting in the read buffer (up to the
    /// pipelining cap) and dispatches each to the worker pool.
    fn parse_ready(&mut self, token: u64) {
        loop {
            let parsed = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.draining || conn.in_flight >= self.max_pipelined {
                    return;
                }
                // Only the completing pass is timed: a request trickling in
                // across many read events re-enters here per event, but the
                // `parse` stage records the cost of the scan that produced
                // the request, not the waiting in between.
                let parse_started = Instant::now();
                match try_parse(&conn.read_buf, &mut conn.cursor) {
                    ParseStatus::NeedMore => return,
                    ParseStatus::Error(message) => {
                        conn.in_flight += 1;
                        if conn.in_flight == 1 {
                            self.transport
                                .connections_idle
                                .fetch_sub(1, Ordering::Relaxed);
                        }
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let bytes = encode_response(
                            &error_response(400, "bad_request", &message),
                            false,
                            |_| {},
                        );
                        self.deliver(Completion::full(token, seq, bytes, true));
                        return;
                    }
                    ParseStatus::Request(request, consumed) => {
                        conn.read_buf.drain(..consumed);
                        conn.cursor = ParseCursor::default();
                        conn.last_activity = Instant::now();
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        if seq > 0 {
                            self.transport
                                .keepalive_reuses
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        if conn.in_flight > 0 {
                            self.transport
                                .pipelined_requests
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        conn.in_flight += 1;
                        if conn.in_flight == 1 {
                            self.transport
                                .connections_idle
                                .fetch_sub(1, Ordering::Relaxed);
                        }
                        if request.close || stream_requested(&request) {
                            // A streaming response owns the connection until
                            // its terminal frame; stop parsing further
                            // pipelined requests behind it.
                            conn.draining = true;
                        }
                        (
                            seq,
                            request,
                            parse_started.elapsed().as_micros() as u64,
                            conn.peer_ip,
                        )
                    }
                }
            };
            let (seq, request, parse_micros, client) = parsed;
            let priority = scan_json_integer(&request.body, "priority").unwrap_or(0);
            let deadline = scan_json_integer(&request.body, "deadline_ms")
                .filter(|&ms| ms >= 0)
                .map(|ms| Instant::now() + Duration::from_millis(ms as u64));
            let job = Job {
                token,
                seq,
                request,
                parse_micros,
                enqueued: Instant::now(),
                client,
                priority,
                deadline,
            };
            match self.admission.offer(job) {
                OfferOutcome::Admitted { shed: None } => {}
                OfferOutcome::Admitted { shed: Some(victim) } => {
                    // Overload: the least valuable *waiting* request is
                    // answered with 429 + Retry-After so the newcomer (or a
                    // more urgent waiter) keeps its slot.
                    self.transport
                        .admission_shed
                        .fetch_add(1, Ordering::Relaxed);
                    let close = victim.request.close;
                    let bytes = encode_response(
                        &error_response(
                            429,
                            "overloaded",
                            "shed by admission control: retry shortly",
                        ),
                        !close,
                        |head| head.push_str("Retry-After: 1\r\n"),
                    );
                    self.deliver(Completion::full(victim.token, victim.seq, bytes, close));
                }
                OfferOutcome::Closed => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    fn conn_writable(&mut self, token: u64) {
        self.flush(token);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wanted = conn.wanted_interest(self.max_pipelined);
        if wanted != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, wanted)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            conn.interest = wanted;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(conn.stream.as_raw_fd());
            self.transport
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            if conn.idle() {
                self.transport
                    .connections_idle
                    .fetch_sub(1, Ordering::Relaxed);
            }
            if let Some(ip) = conn.peer_ip {
                if let Some(count) = self.per_ip.get_mut(&ip) {
                    *count -= 1;
                    if *count == 0 {
                        self.per_ip.remove(&ip);
                    }
                }
            }
            // `conn.stream` drops here, closing the socket.
        }
    }

    /// Closes connections whose idle deadline has passed.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) >= self.idle_timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.transport.idle_closed.fetch_add(1, Ordering::Relaxed);
            self.close_conn(token);
        }
        // This sweep is the one place the exact earliest deadline is
        // recomputed; between sweeps `idle_deadline` is maintained as a
        // cheap lower bound.
        self.idle_deadline = self
            .conns
            .values()
            .filter(|c| c.idle())
            .map(|c| c.last_activity + self.idle_timeout)
            .min();
    }
}

/// Outcome of one incremental parse attempt.
enum ParseStatus {
    /// The buffer does not hold a complete request yet.
    NeedMore,
    /// A complete request; the second field is how many buffer bytes it
    /// consumed.
    Request(ParsedRequest, usize),
    /// The buffer can never become a valid request.
    Error(String),
}

/// Per-connection incremental-parse state, reset whenever a complete request
/// is drained from the read buffer.
#[derive(Debug, Default)]
struct ParseCursor {
    /// Read-buffer prefix already scanned for the head terminator.
    scanned: usize,
    /// Chunked-body decoding progress, once the head announced
    /// `Transfer-Encoding: chunked`.
    chunk: Option<ChunkProgress>,
}

/// Checkpointed chunked-decode state: everything before `pos` is already
/// decoded into `body`.
#[derive(Debug)]
struct ChunkProgress {
    /// Buffer offset of the next chunk-size line.
    pos: usize,
    /// Body bytes decoded so far.
    body: Vec<u8>,
}

/// Attempts to parse one request from the front of `buf`. `cursor` caches
/// how far the head-terminator scan and any chunked-body decode have
/// progressed, so repeated calls over a growing buffer stay linear.
fn try_parse(buf: &[u8], cursor: &mut ParseCursor) -> ParseStatus {
    let Some(header_end) = find_header_end(buf, cursor.scanned) else {
        cursor.scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEADER_BYTES {
            return ParseStatus::Error("headers too large".into());
        }
        return ParseStatus::NeedMore;
    };

    let header_text = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_uppercase();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_uppercase();
    if method.is_empty() || !path.starts_with('/') {
        return ParseStatus::Error(format!("malformed request line `{request_line}`"));
    }

    let mut content_length = 0usize;
    let mut chunked = false;
    let mut connection = String::new();
    let mut trace_header = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(length) = value.trim().parse() else {
                    return ParseStatus::Error("invalid Content-Length".into());
                };
                content_length = length;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // `chunked` must be the final (only, in practice) coding;
                // anything else is something this server cannot decode.
                let value = value.trim().to_ascii_lowercase();
                if value == "chunked" {
                    chunked = true;
                } else {
                    return ParseStatus::Error(format!("unsupported Transfer-Encoding `{value}`"));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            } else if name.eq_ignore_ascii_case("x-tessel-trace-id") {
                // Oversized values are dropped here (treated as absent, so
                // a fresh ID is minted); everything else is kept raw for
                // the worker to validate.
                let value = value.trim();
                if !value.is_empty() && value.len() <= MAX_TRACE_HEADER_BYTES {
                    trace_header = Some(value.to_string());
                }
            }
        }
    }

    let body_start = header_end + 4;
    let (raw_body, consumed) = if chunked {
        // Transfer-Encoding takes precedence over any Content-Length
        // (RFC 9112 §6.3) — a request smuggling both is decoded as chunked.
        let progress = cursor.chunk.get_or_insert_with(|| ChunkProgress {
            pos: body_start,
            body: Vec::new(),
        });
        match decode_chunked(buf, progress) {
            ChunkStatus::NeedMore => return ParseStatus::NeedMore,
            ChunkStatus::Error(message) => {
                cursor.chunk = None;
                return ParseStatus::Error(message);
            }
            ChunkStatus::Done { consumed } => {
                let body = std::mem::take(&mut progress.body);
                cursor.chunk = None;
                (body, consumed)
            }
        }
    } else {
        if content_length > MAX_BODY_BYTES {
            return ParseStatus::Error("body too large".into());
        }
        let consumed = body_start + content_length;
        if buf.len() < consumed {
            return ParseStatus::NeedMore;
        }
        (buf[body_start..consumed].to_vec(), consumed)
    };
    let Ok(body) = String::from_utf8(raw_body) else {
        return ParseStatus::Error("body is not UTF-8".into());
    };

    let close = connection.contains("close")
        || (version == "HTTP/1.0" && !connection.contains("keep-alive"));
    ParseStatus::Request(
        ParsedRequest {
            method,
            path,
            body,
            close,
            trace_header,
        },
        consumed,
    )
}

/// Outcome of one attempt to decode a chunked body prefix.
enum ChunkStatus {
    /// The buffer does not hold the complete chunk stream yet (progress is
    /// checkpointed in the connection's [`ChunkProgress`]).
    NeedMore,
    /// The whole stream (through the last-chunk and trailer section) is
    /// present; the decoded body sits in the [`ChunkProgress`].
    Done {
        /// Buffer offset one past the final CRLF of the stream.
        consumed: usize,
    },
    /// The stream can never become valid.
    Error(String),
}

/// Longest chunk-size line accepted (hex size + extensions + CRLF). A size
/// line that long without a CRLF is garbage, not a slow sender.
const MAX_CHUNK_SIZE_LINE: usize = 128;

/// Decodes an HTTP/1.1 `chunked` transfer coding starting at
/// `progress.pos`: `hex-size[;ext]\r\n data \r\n` repeated, then `0\r\n`, an
/// optional trailer section, and a final `\r\n`. Trailer fields are consumed
/// and ignored.
///
/// `progress` checkpoints at every complete chunk, so a body trickling in
/// across many read events costs work linear in the bytes received, not
/// quadratic — only the final (incomplete) chunk is rescanned. The
/// checkpoint stays valid because the read buffer is only ever appended to
/// until a whole request is drained, which resets the cursor.
fn decode_chunked(buf: &[u8], progress: &mut ChunkProgress) -> ChunkStatus {
    loop {
        let pos = progress.pos;
        let Some(line_end) = find_crlf(buf, pos, MAX_CHUNK_SIZE_LINE) else {
            if buf.len() > pos + MAX_CHUNK_SIZE_LINE {
                return ChunkStatus::Error("invalid chunk size line".into());
            }
            return ChunkStatus::NeedMore;
        };
        let line = &buf[pos..line_end];
        // Chunk extensions (";name=value") are legal; ignore them.
        let size_text = line
            .split(|&b| b == b';')
            .next()
            .unwrap_or_default()
            .trim_ascii();
        let Ok(size_text) = std::str::from_utf8(size_text) else {
            return ChunkStatus::Error("invalid chunk size line".into());
        };
        let Ok(size) = usize::from_str_radix(size_text, 16) else {
            return ChunkStatus::Error(format!("invalid chunk size `{size_text}`"));
        };
        let data_start = line_end + 2;
        if size == 0 {
            // Last chunk: consume the trailer section. No trailers is the
            // common case (an immediate CRLF); otherwise trailer fields run
            // until an empty line, i.e. a CRLFCRLF from just before them.
            if buf.len() < data_start + 2 {
                return ChunkStatus::NeedMore;
            }
            if &buf[data_start..data_start + 2] == b"\r\n" {
                return ChunkStatus::Done {
                    consumed: data_start + 2,
                };
            }
            return match find_header_end(buf, data_start) {
                Some(end) => ChunkStatus::Done { consumed: end + 4 },
                None if buf.len() - data_start > MAX_HEADER_BYTES => {
                    ChunkStatus::Error("trailers too large".into())
                }
                None => ChunkStatus::NeedMore,
            };
        }
        // Compared against the *remaining* budget: immune to `len + size`
        // overflow from an adversarial (e.g. 2^64-ish) chunk size.
        if size > MAX_BODY_BYTES - progress.body.len() {
            return ChunkStatus::Error("body too large".into());
        }
        let data_end = data_start + size;
        if buf.len() < data_end + 2 {
            return ChunkStatus::NeedMore;
        }
        if &buf[data_end..data_end + 2] != b"\r\n" {
            return ChunkStatus::Error("chunk data not terminated by CRLF".into());
        }
        progress.body.extend_from_slice(&buf[data_start..data_end]);
        progress.pos = data_end + 2;
    }
}

/// Position of the next `\r\n` at or after `start`, scanning at most
/// `max_line` bytes.
fn find_crlf(buf: &[u8], start: usize, max_line: usize) -> Option<usize> {
    let end = buf.len().min(start + max_line);
    buf.get(start..end)?
        .windows(2)
        .position(|w| w == b"\r\n")
        .map(|p| start + p)
}

fn find_header_end(buffer: &[u8], scanned: usize) -> Option<usize> {
    let start = scanned.min(buffer.len());
    buffer[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| start + p)
}

/// An un-encoded response produced by the router.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

fn route(
    service: &ScheduleService,
    transport: &TransportMetrics,
    timeseries: Option<&tessel_obs::TimeSeries>,
    request: &ParsedRequest,
) -> Response {
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    match (request.method.as_str(), path) {
        ("POST", "/v1/search") => match decode_body(&request.body) {
            Ok(search_request) => match service.search(&search_request) {
                Ok(response) => tessel_obs::stage("serialize", || json_response(200, &response)),
                Err(e) => service_error_response(&e),
            },
            Err(e) => error_response(400, "bad_request", &format!("invalid request body: {e}")),
        },
        ("POST", "/v1/search/batch") => {
            match decode_body::<crate::wire::BatchSearchRequest>(&request.body) {
                Ok(batch) => {
                    let response = service.search_batch(&batch);
                    tessel_obs::stage("serialize", || json_response(200, &response))
                }
                Err(e) => error_response(400, "bad_request", &format!("invalid request body: {e}")),
            }
        }
        ("GET", "/v1/cache") => json_response(200, &service.cache_entries()),
        ("GET", path) if path.starts_with("/v1/cache/") => {
            let raw = &path["/v1/cache/".len()..];
            match Fingerprint::parse(raw) {
                Some(fingerprint) => {
                    let inspect = service.inspect(fingerprint);
                    if inspect.entries.is_empty() {
                        error_response(404, "not_found", &format!("no entry for {fingerprint}"))
                    } else {
                        json_response(200, &inspect)
                    }
                }
                None => error_response(400, "bad_request", &format!("invalid fingerprint `{raw}`")),
            }
        }
        // Internal cluster entry exchange: a non-owner daemon replicates a
        // locally solved entry to its ring owner. Every entry is re-validated
        // before insertion (see `ScheduleService::accept_replication`).
        ("PUT", path) if path.starts_with("/v1/cache/") => {
            if service.cluster().is_none() {
                return error_response(404, "not_found", "cluster mode is not enabled");
            }
            let raw = &path["/v1/cache/".len()..];
            let Some(fingerprint) = Fingerprint::parse(raw) else {
                return error_response(400, "bad_request", &format!("invalid fingerprint `{raw}`"));
            };
            match decode_body::<crate::wire::CacheExchange>(&request.body) {
                Ok(exchange) => {
                    let ack = service.accept_replication(fingerprint, &exchange);
                    let ok = ack.accepted > 0 || ack.rejected == 0;
                    json_response(if ok { 200 } else { 400 }, &ack)
                }
                Err(e) => {
                    error_response(400, "bad_request", &format!("invalid exchange body: {e}"))
                }
            }
        }
        ("GET", "/v1/cluster") => {
            let fingerprint = query
                .split('&')
                .find_map(|pair| pair.strip_prefix("fp="))
                .and_then(Fingerprint::parse);
            match service.cluster_status(fingerprint) {
                Some(status) => json_response(200, &status),
                None => error_response(404, "not_found", "cluster mode is not enabled"),
            }
        }
        // Internal warm-up stream: every cached entry owned (per this
        // daemon's ring) by the requesting node, grouped by fingerprint.
        ("GET", path) if path.starts_with("/v1/cluster/export/") => {
            let node = &path["/v1/cluster/export/".len()..];
            match service.export_owned(node) {
                Some(exchanges) => json_response(200, &exchanges),
                None => error_response(
                    404,
                    "not_found",
                    &format!("`{node}` is not a member of this cluster"),
                ),
            }
        }
        // The flight recorder: the last N completed requests with per-stage
        // timing breakdowns, plus the slowest requests seen since startup.
        // Filterable: `?status=408&min_micros=50000&endpoint=/v1/search&trace=…`.
        ("GET", "/v1/debug/requests") => match parse_flight_query(query) {
            Ok(flight_query) => json_response(200, &service.debug_requests_filtered(&flight_query)),
            Err(message) => error_response(400, "bad_request", &message),
        },
        // Live in-flight requests with their solver progress boards.
        ("GET", "/v1/debug/inflight") => json_response(200, &service.debug_inflight()),
        // Windowed live-plane rates and gauges (`?window=N` ticks, default
        // the whole retained ring).
        ("GET", "/v1/debug/timeseries") => match timeseries {
            Some(timeseries) => {
                let window = match query
                    .split('&')
                    .find_map(|pair| pair.strip_prefix("window="))
                {
                    Some(raw) => match raw.parse::<usize>() {
                        Ok(ticks) if ticks > 0 => ticks,
                        _ => {
                            return error_response(
                                400,
                                "bad_request",
                                &format!("invalid window `{raw}`"),
                            )
                        }
                    },
                    None => TIMESERIES_CAPACITY,
                };
                let window = timeseries.window(window);
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
            None => error_response(
                404,
                "not_found",
                "the live-plane sampler is disabled (sample_interval_ms = 0)",
            ),
        },
        // Fleet-wide trace assembly: local flight records plus every healthy
        // peer's, merged into one clock-adjusted span timeline.
        ("GET", path) if path.starts_with("/v1/debug/trace/") => {
            let raw = &path["/v1/debug/trace/".len()..];
            match tessel_obs::TraceId::parse(raw) {
                Some(trace_id) => json_response(200, &service.assemble_trace(trace_id.as_str())),
                None => error_response(400, "bad_request", &format!("invalid trace id `{raw}`")),
            }
        }
        ("GET", "/v1/debug/loglevel") => {
            let level = tessel_obs::level().as_str().to_string();
            json_response(200, &crate::wire::LogLevelBody { level })
        }
        // Runtime log-level control. The change is announced at the *old*
        // level so turning logging down leaves one last trace of who did it.
        ("PUT", "/v1/debug/loglevel") => {
            match decode_body::<crate::wire::LogLevelBody>(&request.body) {
                Ok(body) => match body.level.parse::<tessel_obs::Level>() {
                    Ok(level) => {
                        let previous = tessel_obs::set_level(level);
                        tessel_obs::log(
                            previous,
                            "http",
                            "log level changed",
                            &[("from", previous.as_str()), ("to", level.as_str())],
                        );
                        Response {
                            status: 200,
                            content_type: "application/json",
                            body: format!(
                                "{{\"level\":\"{}\",\"previous\":\"{}\"}}",
                                level.as_str(),
                                previous.as_str()
                            ),
                        }
                    }
                    Err(_) => error_response(
                        400,
                        "bad_request",
                        &format!("unknown log level `{}`", body.level),
                    ),
                },
                Err(e) => error_response(400, "bad_request", &format!("invalid body: {e}")),
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
        (_, path) => error_response(404, "not_found", &format!("no route for {path}")),
    }
}

/// Parses the `GET /v1/debug/requests` filter query
/// (`status=…&min_micros=…&endpoint=…&trace=…`); unknown keys are ignored,
/// unparseable numbers are an error.
fn parse_flight_query(query: &str) -> Result<crate::flight::FlightQuery, String> {
    let mut flight_query = crate::flight::FlightQuery::default();
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "status" => {
                flight_query.status = Some(
                    value
                        .parse::<u16>()
                        .map_err(|_| format!("invalid status `{value}`"))?,
                );
            }
            "min_micros" => {
                flight_query.min_micros = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid min_micros `{value}`"))?,
                );
            }
            "endpoint" => flight_query.endpoint = Some(value.to_string()),
            "trace" => flight_query.trace = Some(value.to_string()),
            _ => {}
        }
    }
    Ok(flight_query)
}

fn service_error_response(error: &ServiceError) -> Response {
    error_response(error.http_status(), error.kind(), &error.to_string())
}

fn error_response(status: u16, kind: &str, message: &str) -> Response {
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
fn decode_body<T: serde::Deserialize>(body: &str) -> serde_json::Result<T> {
    tessel_obs::stage("decode", || serde_json::from_str(body))
}

fn render_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e}\"}}"))
}

fn status_text(status: u16) -> &'static str {
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
fn encode_response(
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

/// `true` when the request asks for anytime incumbent streaming:
/// `POST /v1/search?stream=1`.
fn stream_requested(request: &ParsedRequest) -> bool {
    request.method == "POST"
        && request.path.split_once('?').is_some_and(|(path, query)| {
            path == "/v1/search" && query.split('&').any(|pair| pair == "stream=1")
        })
}

/// Extracts a top-level integer field from a JSON body without a full parse:
/// finds `"name"` followed by `:` and an optionally signed integer. Good
/// enough for admission hints (`priority`, `deadline_ms`) — the worker
/// re-parses the body properly, and a false positive from a pathological
/// nested key only perturbs queue order, never correctness — and for the
/// `unix_ms` stamp of a peer's `/healthz` body.
pub(crate) fn scan_json_integer(body: &str, name: &str) -> Option<i64> {
    let needle = format!("\"{name}\"");
    let mut from = 0;
    while let Some(found) = body[from..].find(&needle) {
        let after = from + found + needle.len();
        let rest = body[after..].trim_start();
        if let Some(rest) = rest.strip_prefix(':') {
            let rest = rest.trim_start();
            let end = rest
                .char_indices()
                .find(|&(i, c)| !(c.is_ascii_digit() || (i == 0 && c == '-')))
                .map_or(rest.len(), |(i, _)| i);
            return rest[..end].parse().ok();
        }
        from = after;
    }
    None
}

/// Queues a completion and rouses the event loop. One wakeup byte per
/// completion; the loop drains in batches, so a full (64 KiB) pipe is
/// unreachable in practice and a short block here is harmless anyway.
fn push_completion(
    completions: &Mutex<Vec<Completion>>,
    waker: &Mutex<PipeWriter>,
    completion: Completion,
) {
    completions
        .lock()
        .expect("completion lock")
        .push(completion);
    let _ = waker.lock().expect("waker lock").write(&[1]);
}

/// Encodes one SSE event (`data: <json>\n\n`) as an HTTP chunk.
fn encode_stream_chunk(event: &StreamEvent) -> Vec<u8> {
    let payload = format!("data: {}\n\n", render_json(event));
    let mut out = format!("{:x}\r\n", payload.len()).into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out.extend_from_slice(b"\r\n");
    out
}

/// Closes the books on a served request: ends its trace, logs the completion
/// line and builds the flight-recorder entry (trace ID, request line, status,
/// stage breakdown) that the event loop finalizes once the response's write
/// pass has run. `None` when no trace was open on this thread.
fn finish_request(
    service: &Arc<ScheduleService>,
    job: &Job,
    trace_id: tessel_obs::TraceId,
    status: u16,
    started: Instant,
    start_unix_ms: u64,
    message: &str,
) -> Option<Box<PendingFlight>> {
    let finished = tessel_obs::end_request();
    let total_micros = started.elapsed().as_micros() as u64;
    tessel_obs::info(
        "http",
        message,
        &[
            ("method", job.request.method.as_str()),
            ("path", job.request.path.as_str()),
            ("status", &status.to_string()),
            ("micros", &total_micros.to_string()),
            ("trace_id", trace_id.as_str()),
        ],
    );
    finished.map(|done| {
        let request_line = (job.request.method.as_str(), job.request.path.as_str());
        Box::new(PendingFlight {
            service: service.clone(),
            record: FlightRecord::from_finished(
                &done,
                request_line,
                status,
                start_unix_ms,
                total_micros,
            ),
            created: Instant::now(),
        })
    })
}

/// Serves one `POST /v1/search?stream=1` request: sends a chunked SSE head
/// immediately, pushes a (droppable) `incumbent` event for every improving
/// makespan the solver reports, and terminates the stream with a `result`
/// (or `error`) event followed by the last-chunk. Streaming responses
/// always close the connection.
#[allow(clippy::too_many_arguments)]
fn run_streaming(
    service: &Arc<ScheduleService>,
    completions: &Arc<Mutex<Vec<Completion>>>,
    waker: &Arc<Mutex<PipeWriter>>,
    job: &Job,
    search_request: &crate::wire::SearchRequest,
    trace_id: tessel_obs::TraceId,
    started: Instant,
    start_unix_ms: u64,
) {
    let token = job.token;
    let seq = job.seq;
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nTransfer-Encoding: chunked\r\nConnection: close\r\nX-Tessel-Trace-Id: {}\r\n\r\n",
        trace_id.as_str()
    );
    let head = Completion::fragment(token, seq, head.into_bytes(), false);
    push_completion(completions, waker, head);
    // Portfolio workers report incumbents concurrently and not globally in
    // order; an atomic-min filter keeps the stream strictly improving.
    let best = Arc::new(AtomicU64::new(u64::MAX));
    let sink = {
        let completions = completions.clone();
        let waker = waker.clone();
        let best = best.clone();
        tessel_solver::IncumbentSink::new(move |value| {
            if value >= best.fetch_min(value, Ordering::Relaxed) {
                return;
            }
            let event = StreamEvent::Incumbent {
                value,
                elapsed_ms: started.elapsed().as_millis() as u64,
            };
            let frame = Completion::fragment(token, seq, encode_stream_chunk(&event), true);
            push_completion(&completions, &waker, frame);
        })
    };
    let result = service.search_streamed(search_request, &sink);
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
    let flight = finish_request(
        service,
        job,
        trace_id,
        status,
        started,
        start_unix_ms,
        "streamed request completed",
    );
    let mut done = Completion::full(token, seq, bytes, true);
    done.flight = flight;
    push_completion(completions, waker, done);
}

/// A keep-alive HTTP/1.1 client: one TCP connection reused across calls.
///
/// Used by `tessel-client --repeat` and the end-to-end tests. The connection
/// is established lazily on the first call and transparently re-established
/// when the server closes it (idle timeout, `Connection: close` response, or
/// daemon restart).
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    host: String,
    stream: Option<TcpStream>,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl HttpClient {
    /// Creates a client for `addr` (e.g. `127.0.0.1:7700`) and opens its
    /// connection.
    ///
    /// # Errors
    ///
    /// Fails if `addr` does not resolve or the connection is refused.
    pub fn new(addr: &str) -> std::io::Result<Self> {
        let mut client = Self::interactive(addr)?;
        client.stream = Some(client.open()?);
        Ok(client)
    }

    /// An unconnected client with the interactive timeouts every CLI-facing
    /// entry point uses (10 s to connect, [`IO_TIMEOUT`] per read or write).
    fn interactive(addr: &str) -> std::io::Result<Self> {
        Self::with_timeouts(addr, Duration::from_secs(10), IO_TIMEOUT)
    }

    /// Creates a client with explicit connect and read/write timeouts,
    /// **without** connecting — the connection opens lazily on the first
    /// call. The cluster tier uses this: a peer that is down at daemon
    /// startup must not fail construction, and peer calls must give up in
    /// fractions of the interactive timeouts.
    ///
    /// # Errors
    ///
    /// Fails if `addr` does not resolve.
    pub fn with_timeouts(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> std::io::Result<Self> {
        let socket_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable addr")
        })?;
        Ok(HttpClient {
            addr: socket_addr,
            host: addr.to_string(),
            stream: None,
            connect_timeout,
            io_timeout,
        })
    }

    fn open(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// `true` while a connection from an earlier call is still held open.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Issues one request, reusing the held connection when possible, and
    /// returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses. A stale kept-alive
    /// connection (closed by the server between calls) is retried once on a
    /// fresh connection before an error is returned.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.call_with_headers(method, path, body, &[])
            .map(|(status, _headers, payload)| (status, payload))
    }

    /// Like [`HttpClient::call`], but sends `extra_headers` with the request
    /// (e.g. `X-Tessel-Trace-Id` to join the originating trace) and returns
    /// the response headers alongside status and body. Used by the cluster
    /// tier for trace propagation and by `tessel-client --timing` to read
    /// the `Server-Timing` breakdown.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses, with the same
    /// one-retry behaviour as [`HttpClient::call`].
    pub fn call_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<(u16, ResponseHeaders, String)> {
        let reused = self.stream.is_some();
        match self.call_once(method, path, body, extra_headers) {
            Ok(result) => Ok(result),
            Err(e) if reused && retriable(&e) => {
                // The server dropped the idle connection; retry fresh.
                self.stream = None;
                self.call_once(method, path, body, extra_headers)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn call_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<(u16, ResponseHeaders, String)> {
        let stream = self.send(method, path, body.unwrap_or(""), extra_headers)?;
        let (status, headers, received) = read_head(stream)?;
        let payload = read_body(stream, received, &headers)?;
        if last_header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok((status, headers, payload))
    }

    /// Writes one request on the held connection (opening it first when
    /// there is none) and hands the stream back for the response.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            self.stream = Some(self.open()?);
        }
        let stream = self.stream.as_mut().expect("connection just opened");
        // HTTP/1.1 defaults to keep-alive: no Connection header needed.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {length}\r\n",
            host = self.host,
            length = body.len(),
        );
        for (name, value) in extra_headers {
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        stream.write_all(request.as_bytes())?;
        Ok(stream)
    }
}

fn retriable(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WriteZero
    )
}

fn invalid_data(message: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// The peer closed the connection before the response was complete.
fn closed(mid: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, mid)
}

/// Reads from `stream` into `buffer`, failing with `UnexpectedEof` (and
/// `closed_mid`) when the peer has closed the connection.
fn read_more(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    closed_mid: &'static str,
) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(closed(closed_mid));
    }
    buffer.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// Reads one HTTP response head from `stream`. Returns the status, the
/// headers (names keep their wire casing, so callers look them up
/// case-insensitively) and the bytes that arrived after the head.
fn read_head(stream: &mut TcpStream) -> std::io::Result<(u16, ResponseHeaders, Vec<u8>)> {
    let mut buffer: Vec<u8> = Vec::with_capacity(4096);
    let header_end = loop {
        if let Some(pos) = find_header_end(&buffer, 0) {
            break pos;
        }
        if buffer.len() > MAX_HEADER_BYTES {
            return Err(invalid_data("response headers too large"));
        }
        read_more(stream, &mut buffer, "connection closed mid-response")?;
    };
    let head = String::from_utf8_lossy(&buffer[..header_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid_data("missing status code"))?;
    let headers = head
        .split("\r\n")
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_string(), value.trim().to_string()))
        .collect();
    buffer.drain(..header_end + 4);
    Ok((status, headers, buffer))
}

/// The value of the last `name` header (a repeated header's last value wins).
fn last_header<'a>(headers: &'a ResponseHeaders, name: &str) -> Option<&'a str> {
    let found = headers
        .iter()
        .rev()
        .find(|(key, _)| key.eq_ignore_ascii_case(name));
    found.map(|(_, value)| value.as_str())
}

/// Reads exactly `Content-Length` body bytes (none when the header is
/// absent), starting from the `received` bytes that followed the head — the
/// connection may stay open, so reading to EOF is not an option.
fn read_body(
    stream: &mut TcpStream,
    mut received: Vec<u8>,
    headers: &ResponseHeaders,
) -> std::io::Result<String> {
    let content_length: usize = match last_header(headers, "content-length") {
        Some(value) => value
            .parse()
            .map_err(|_| invalid_data("bad Content-Length"))?,
        None => 0,
    };
    // What the head's reads did not already bring goes straight into the
    // body's own buffer, sized once (a peer's claim of more than a request
    // may carry is not believed before the bytes arrive).
    if let Some(missing) = content_length.checked_sub(received.len()) {
        received.reserve_exact(missing.min(MAX_BODY_BYTES));
        stream.take(missing as u64).read_to_end(&mut received)?;
        if received.len() < content_length {
            return Err(closed("connection closed mid-body"));
        }
    }
    received.truncate(content_length);
    String::from_utf8(received).map_err(|_| invalid_data("body is not UTF-8"))
}

/// Issues one HTTP request against `addr` on a throwaway connection and
/// returns `(status, body)`.
///
/// The one-shot counterpart of [`HttpClient`]: it sends `Connection: close`
/// so the server tears the connection down after responding. Used by the
/// subcommands of `tessel-client` that only ever make one call.
///
/// # Errors
///
/// Propagates socket errors and malformed responses.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    HttpClient::interactive(addr)?
        .call_with_headers(method, path, body, &[("Connection", "close")])
        .map(|(status, _headers, payload)| (status, payload))
}

/// Issues one streaming request against `addr` on a throwaway connection
/// and decodes the chunked SSE response incrementally: `on_event` is
/// invoked with each `data:` payload (JSON text) the moment its frame is
/// complete, terminal event included. Returns `(status, last_payload)` —
/// for a streamed response the last payload is the terminal `result` /
/// `error` event; a non-chunked response (transport-level errors like `429`
/// or `503`) is returned whole as the payload with no events.
///
/// Used by `tessel-client search --stream`.
///
/// # Errors
///
/// Propagates socket errors and malformed responses.
pub fn http_call_streaming(
    addr: &str,
    path: &str,
    body: &str,
    mut on_event: impl FnMut(&str),
) -> std::io::Result<(u16, String)> {
    let mut client = HttpClient::interactive(addr)?;
    let stream = client.send("POST", path, body, &[("Connection", "close")])?;
    let (status, headers, mut buffer) = read_head(stream)?;
    let chunked = last_header(&headers, "transfer-encoding")
        .is_some_and(|value| value.eq_ignore_ascii_case("chunked"));
    if !chunked {
        // Transport-level error (shed, malformed body): a plain
        // Content-Length response with no events.
        return Ok((status, read_body(stream, buffer, &headers)?));
    }

    // Incremental chunked decode reusing the server parser's checkpointing:
    // decoded bytes accumulate in `progress.body`; complete SSE frames
    // (`data: ...\n\n`) are emitted as they appear.
    let mut progress = ChunkProgress {
        pos: 0,
        body: Vec::new(),
    };
    let mut emitted = 0usize;
    let mut last_event = String::new();
    loop {
        let done = match decode_chunked(&buffer, &mut progress) {
            ChunkStatus::Done { .. } => true,
            ChunkStatus::NeedMore => false,
            ChunkStatus::Error(message) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    message,
                ));
            }
        };
        while let Some(end) = progress.body[emitted..]
            .windows(2)
            .position(|w| w == b"\n\n")
        {
            let frame = String::from_utf8_lossy(&progress.body[emitted..emitted + end]);
            emitted += end + 2;
            for line in frame.lines() {
                if let Some(data) = line.strip_prefix("data: ") {
                    last_event.clear();
                    last_event.push_str(data);
                    on_event(data);
                }
            }
        }
        if done {
            return Ok((status, last_event));
        }
        read_more(stream, &mut buffer, "connection closed mid-stream")?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(input: &[u8]) -> (Vec<ParsedRequest>, usize) {
        let mut buf = input.to_vec();
        let mut cursor = ParseCursor::default();
        let mut out = Vec::new();
        loop {
            match try_parse(&buf, &mut cursor) {
                ParseStatus::Request(request, consumed) => {
                    buf.drain(..consumed);
                    cursor = ParseCursor::default();
                    out.push(request);
                }
                ParseStatus::NeedMore => break,
                ParseStatus::Error(e) => panic!("unexpected parse error: {e}"),
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
        let keep = String::from_utf8(encode_response(&response, true, |_| {})).unwrap();
        assert!(keep.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(keep.contains("Content-Length: 2\r\n"));
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.ends_with("\r\n\r\n{}"));
        let close = String::from_utf8(encode_response(&response, false, |_| {})).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert_eq!(status_text(408), "Request Timeout");
        assert_eq!(status_text(599), "Internal Server Error");
        // Extra headers land between the fixed head and the blank line.
        let traced = encode_response(&response, true, |head| {
            let _ = write!(head, "X-Tessel-Trace-Id: {}\r\n", "a".repeat(32));
            head.push_str("Server-Timing: solve;dur=1.500\r\n");
        });
        let traced = String::from_utf8(traced).unwrap();
        assert!(traced.contains(&format!("X-Tessel-Trace-Id: {}\r\n", "a".repeat(32))));
        assert!(traced.contains("Server-Timing: solve;dur=1.500\r\n"));
        assert!(traced.ends_with("\r\n\r\n{}"));
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
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody", 0), Some(14));
        assert_eq!(find_header_end(b"partial\r\n", 0), None);
        // A later scan offset must still find a terminator spanning it.
        let buf = b"GET / HTTP/1.1\r\n\r\n";
        assert_eq!(find_header_end(buf, 13), Some(14));
    }

    #[test]
    fn incremental_parse_needs_full_head_and_body() {
        let mut cursor = ParseCursor::default();
        let full = b"POST /v1/search HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in [10, 30, full.len() - 1] {
            let mut s = ParseCursor::default();
            assert!(matches!(
                try_parse(&full[..cut], &mut s),
                ParseStatus::NeedMore
            ));
        }
        match try_parse(full, &mut cursor) {
            ParseStatus::Request(request, consumed) => {
                assert_eq!(consumed, full.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/v1/search");
                assert_eq!(request.body, "body");
                assert!(!request.close, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!(
                "expected request, got {}",
                match other {
                    ParseStatus::NeedMore => "NeedMore".to_string(),
                    ParseStatus::Error(e) => e,
                    ParseStatus::Request(..) => unreachable!(),
                }
            ),
        }
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let wire =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
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
                matches!(try_parse(&full[..cut], &mut cursor), ParseStatus::NeedMore),
                "cut at {cut}"
            );
        }
        let mut cursor = ParseCursor::default();
        match try_parse(full, &mut cursor) {
            ParseStatus::Request(request, consumed) => {
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
        let bad_size =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n";
        let mut cursor = ParseCursor::default();
        assert!(matches!(
            try_parse(bad_size, &mut cursor),
            ParseStatus::Error(_)
        ));
        let bad_term = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhiXX0\r\n\r\n";
        let mut cursor = ParseCursor::default();
        assert!(matches!(
            try_parse(bad_term, &mut cursor),
            ParseStatus::Error(_)
        ));
        let unsupported = b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
        let mut cursor = ParseCursor::default();
        assert!(matches!(
            try_parse(unsupported, &mut cursor),
            ParseStatus::Error(_)
        ));
        // A chunk-size line that never ends is garbage, not a slow sender.
        let mut runaway = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        runaway.extend(std::iter::repeat_n(b'f', MAX_CHUNK_SIZE_LINE + 8));
        let mut cursor = ParseCursor::default();
        assert!(matches!(
            try_parse(&runaway, &mut cursor),
            ParseStatus::Error(_)
        ));
    }

    #[test]
    fn adversarial_chunk_sizes_error_without_panicking() {
        // A size near 2^64 must hit the budget check, not overflow the
        // `decoded + size` arithmetic (which would panic the event-loop
        // thread in debug builds and corrupt slice bounds in release).
        for huge in ["fffffffffffffffe", "ffffffffffffffff", "100000000"] {
            let wire = format!(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nAA\r\n{huge}\r\n"
            );
            let mut cursor = ParseCursor::default();
            assert!(
                matches!(
                    try_parse(wire.as_bytes(), &mut cursor),
                    ParseStatus::Error(_)
                ),
                "size {huge} must be rejected"
            );
        }
        // Sizes that do not even parse as u64 are rejected too.
        let wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1ffffffffffffffff\r\n";
        let mut cursor = ParseCursor::default();
        assert!(matches!(
            try_parse(wire, &mut cursor),
            ParseStatus::Error(_)
        ));
    }

    #[test]
    fn chunked_progress_is_checkpointed_across_calls() {
        // Feed a two-chunk body one byte at a time through ONE cursor (as
        // the connection state machine does) and confirm the decode
        // completes; the checkpoint means earlier chunks are not re-decoded.
        let full = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let mut cursor = ParseCursor::default();
        for cut in 1..full.len() {
            assert!(matches!(
                try_parse(&full[..cut], &mut cursor),
                ParseStatus::NeedMore
            ));
        }
        // After the first chunk is complete, the cursor has moved past it.
        assert!(cursor.chunk.as_ref().is_some_and(|p| p.body == b"abcde"));
        match try_parse(full, &mut cursor) {
            ParseStatus::Request(request, consumed) => {
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
        match try_parse(wire, &mut cursor) {
            ParseStatus::Request(request, consumed) => {
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
            elapsed_ms: 7,
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
    }

    fn admission_job(client: Option<IpAddr>, priority: i64, deadline: Option<Instant>) -> Job {
        Job {
            token: 0,
            seq: 0,
            request: ParsedRequest {
                method: "POST".into(),
                path: "/v1/search".into(),
                body: String::new(),
                close: false,
                trace_header: None,
            },
            parse_micros: 0,
            enqueued: Instant::now(),
            client,
            priority,
            deadline,
        }
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
        assert_eq!((first.client, first.priority), (Some(a), 5));
        let second = queue.pop().unwrap();
        assert_eq!(second.client, Some(b));
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
                assert_eq!(victim.client, Some(a));
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
        assert!(matches!(
            try_parse(b"not a request\r\n\r\n", &mut cursor),
            ParseStatus::Error(_)
        ));
        let mut cursor = ParseCursor::default();
        assert!(matches!(
            try_parse(
                b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                &mut cursor
            ),
            ParseStatus::Error(_)
        ));
    }
}
