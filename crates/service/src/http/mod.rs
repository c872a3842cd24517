//! Readiness-based HTTP/1.1 transport over nonblocking `std::net` sockets.
//!
//! The build environment has no async runtime or HTTP crate, so the daemon
//! hand-rolls the narrow slice of HTTP it needs on top of the epoll shim in
//! the crate-private `sys` module. Each submodule owns one decision, stated
//! in its header; in the order a request meets them:
//!
//! * `loop_core` — when bytes move and where a request is answered, as
//!   events in and actions out, with no socket or clock of its own.
//! * `event_loop` — the syscalls around that core, on the one thread that
//!   owns every socket.
//! * `parse` — which bytes are an HTTP/1.1 message and where it ends, for
//!   requests *and* responses.
//! * `admission` — which waiting request runs next, which is shed with `429`.
//! * `reply` — how a request's books are opened (on the loop, for every
//!   request it reads) and closed around its answer, on the loop or a
//!   worker, single-shot or streamed (SSE).
//! * `route` — what a method, path and query string mean.
//! * `client` — how a caller talks to a daemon: [`HttpClient`], [`http_call`],
//!   [`http_call_streaming`].
//!
//! This module wires them together ([`HttpServer`], [`ServerConfig`]), runs
//! the live-plane sampler and holds the route table. Anything that can wait
//! — a solve, a single-flight wait — runs on a bounded worker pool, so a
//! slow solve never blocks connection handling.
//!
//! Routes:
//!
//! | Method | Path                        | Handler                            |
//! |--------|-----------------------------|------------------------------------|
//! | POST   | `/v1/search`                | run or fetch a schedule search     |
//! | POST   | `/v1/search?stream=1`       | same, streaming incumbents (SSE)   |
//! | GET    | `/v1/cache`                 | list cache entries                 |
//! | GET    | `/v1/cache/{fp}`            | inspect one fingerprint            |
//! | GET    | `/v1/debug/requests`        | flight recorder (recent + slowest) |
//! | GET    | `/v1/debug/inflight`        | live in-flight requests + progress |
//! | GET    | `/v1/debug/timeseries`      | sampled rate/gauge window (JSON)   |
//! | GET    | `/v1/debug/trace/{id}`      | one trace's span timeline          |
//! | GET    | `/v1/debug/loglevel`        | current log level                  |
//! | PUT    | `/v1/debug/loglevel`        | change the log level at runtime    |
//! | GET    | `/metrics`                  | Prometheus text metrics            |
//! | GET    | `/healthz`                  | liveness probe (+ `unix_ms` clock) |
//!
//! `GET /v1/debug/requests` accepts `?status=`, `?min_micros=`, `?endpoint=`
//! and `?trace=` filters (conjunctive); `GET /v1/debug/timeseries` accepts
//! `?window=N` to bound the returned tick count.
//!
//! Every response, a `400` for bytes the parser refuses and a shed `429`
//! included, carries an `X-Tessel-Trace-Id` header (the request-scoped
//! trace ID, joined from a valid inbound `X-Tessel-Trace-Id` or freshly
//! minted) and, unless it streams, a `Server-Timing` header with the
//! per-stage breakdown; each leaves one flight record with the same stages
//! behind `/v1/debug/requests`.

mod admission;
mod client;
mod event_loop;
#[cfg(test)]
mod fuzz;
mod loop_core;
mod parse;
mod reply;
pub(crate) mod route;
#[cfg(test)]
mod tests;

pub use client::{http_call, http_call_streaming, HttpClient};
pub use parse::ResponseHeaders;

use crate::flight::now_unix_ms;
use crate::metrics::TransportMetrics;
use crate::service::ScheduleService;
use admission::AdmissionQueue;
use event_loop::{Completions, EventLoop};
use loop_core::LoopCore;
use reply::Worker;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    completions: Arc<Completions>,
    /// The event loop first, then the workers, then the sampler (if any):
    /// the order [`HttpServer::shutdown`] joins them in.
    threads: Vec<JoinHandle<()>>,
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
    /// ignored): a caller that binds port 0 itself knows the address before
    /// the daemon starts serving.
    ///
    /// # Errors
    ///
    /// Propagates poller setup failures.
    pub fn serve_listener(
        service: Arc<ScheduleService>,
        listener: TcpListener,
        config: &ServerConfig,
    ) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let transport = Arc::new(TransportMetrics::new());
        let admission = Arc::new(AdmissionQueue::new(config.queue_depth, transport.clone()));
        let core = LoopCore::new(config, &admission, &service, &transport);
        let (mut event_loop, completions) = EventLoop::new(listener, core, stop.clone())?;

        let timeseries = (config.sample_interval_ms > 0).then(|| {
            Arc::new(tessel_obs::TimeSeries::new(
                &SAMPLER_SERIES,
                TIMESERIES_CAPACITY,
                config.sample_interval_ms,
            ))
        });
        let sampler = timeseries.as_ref().map(|timeseries| {
            let timeseries = Arc::clone(timeseries);
            let service = service.clone();
            let transport = transport.clone();
            let stop = stop.clone();
            let interval = Duration::from_millis(config.sample_interval_ms);
            std::thread::spawn(move || {
                sampler_loop(&timeseries, &service, &transport, &stop, interval)
            })
        });

        let mut threads = vec![std::thread::spawn(move || event_loop.run())];
        threads.extend((0..config.workers.max(1)).map(|_| {
            let admission = admission.clone();
            let worker = Worker {
                service: service.clone(),
                transport: transport.clone(),
                timeseries: timeseries.clone(),
                completions: completions.clone(),
            };
            std::thread::spawn(move || worker.run(&admission))
        }));
        threads.extend(sampler);

        Ok(HttpServer {
            addr,
            stop,
            completions,
            threads,
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
        self.completions.wake();
        // The event loop closes the admission queue on exit, which unblocks
        // the workers once the queue is empty.
        for handle in self.threads.drain(..) {
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
