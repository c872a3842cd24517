//! `tessel-service`: a long-running schedule-search daemon.
//!
//! The Tessel search is exponential in the worst case, but production
//! traffic asks for schedules for the same handful of placement shapes over
//! and over (per hardware target, per model revision). This crate turns the
//! one-shot search into a service:
//!
//! * [`service`] — the in-process [`ScheduleService`]: canonicalizes each
//!   requested placement (via [`tessel_core::fingerprint`]), consults a
//!   sharded LRU result cache keyed by the canonical fingerprint, coalesces
//!   identical concurrent requests onto one in-flight search
//!   (*single-flight*), and enforces per-request deadlines: one `Instant`,
//!   counted from the request's arrival, that every solve stops at.
//! * [`answer`] — the one translation of a cached (canonical-labeled) entry
//!   into a request's labeling, written straight into an HTTP body or
//!   materialised as a [`wire::SearchResponse`].
//! * [`cache`] — the lock-striped [`ShardedCache`] with LRU eviction and
//!   JSON persistence, so daemon restarts start warm.
//! * [`singleflight`] — the request-coalescing primitive.
//! * [`metrics`] — request/hit/miss/latency counters with p50/p99 estimates,
//!   rendered in Prometheus text format for `/metrics`.
//! * [`http`] — a readiness-based HTTP/1.1 transport over nonblocking
//!   `std::net` sockets, one submodule per decision: `parse` (the message
//!   grammar and its size limits, shared by server and client), `loop_core`
//!   (the event loop's decisions as events in, actions out, with no socket
//!   or clock), `event_loop` (the one epoll-driven thread that does its
//!   syscalls), `admission` (the pop/shed policy in front of the bounded
//!   worker pool), `reply` (how a request's books open and close around its
//!   answer, on the loop or a worker), `route` (URL → handler → response)
//!   and `client` (the keep-alive [`HttpClient`] behind `tessel-client` and
//!   the end-to-end tests).
//! * [`flight`] — the in-memory flight recorder behind
//!   `GET /v1/debug/requests`: the last N completed requests with per-stage
//!   timing breakdowns plus a slowest-requests view, correlated by the
//!   request-scoped trace IDs of [`tessel_obs`], filterable by status /
//!   duration / endpoint / trace.
//! * [`inflight`] — one request's books: the open, the timed
//!   [`inflight::Stage`]s and the close to its flight record, shared by the
//!   HTTP transport and the in-process calls; and the live registry behind
//!   `GET /v1/debug/inflight`: every request a thread is working on (queued
//!   requests show in `tessel_admission_queue_depth`) with its live stage,
//!   deadline remaining and relaxed-atomic solver progress.
//! * [`wire`] — the JSON request/response types.
//!
//! Two binaries ship with the crate: `tessel-server` (the daemon) and
//! `tessel-client` (a CLI for submitting searches and inspecting the cache).
//!
//! # In-process quickstart
//!
//! The service is usable as a library, without sockets:
//!
//! ```
//! use tessel_core::ir::{BlockKind, PlacementSpec};
//! use tessel_service::{ScheduleService, ServiceConfig, wire::SearchRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = PlacementSpec::builder("v2", 2);
//! b.set_memory_capacity(Some(3));
//! let f0 = b.add_block("f0", BlockKind::Forward, [0], 1, 1, [])?;
//! let f1 = b.add_block("f1", BlockKind::Forward, [1], 1, 1, [f0])?;
//! let b1 = b.add_block("b1", BlockKind::Backward, [1], 2, -1, [f1])?;
//! b.add_block("b0", BlockKind::Backward, [0], 2, -1, [b1])?;
//! let placement = b.build()?;
//!
//! let service = ScheduleService::new(ServiceConfig::default())?;
//! let miss = service.search(&SearchRequest::for_placement(placement.clone()))?;
//! let hit = service.search(&SearchRequest::for_placement(placement))?;
//! assert!(!miss.cached && hit.cached);
//! assert_eq!(miss.schedule, hit.schedule);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `sys` module is the one allowed exception
// (extern "C" epoll bindings; see its docs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod cache;
pub mod flight;
pub mod http;
pub mod inflight;
pub mod metrics;
pub mod service;
pub mod singleflight;
#[allow(unsafe_code)]
mod sys;
pub mod wire;

pub use cache::{CacheConfig, CacheJournal, CachedSearch, ShardedCache};
pub use flight::{FlightQuery, FlightRecorder};
pub use http::{http_call_streaming, HttpClient, HttpServer, ServerConfig};
pub use inflight::{InflightRegistry, RequestBooks};
pub use metrics::{MetricsSnapshot, ServiceMetrics, TransportMetrics, TransportSnapshot};
pub use service::{ScheduleService, ServiceConfig, ServiceError};
