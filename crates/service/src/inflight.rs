//! One request's books, from its arrival to its flight record, and the live
//! registry of every request a thread is working on
//! (`GET /v1/debug/inflight`).
//!
//! Three functions do all the bookkeeping, and the HTTP transport and the
//! in-process [`crate::service::ScheduleService`] calls share them:
//!
//! * [`InflightRegistry::open`] registers the request — trace ID, method,
//!   path, peer and arrival — and makes it the calling thread's open
//!   request. A thread keeps one request's books at a time. The books' clock
//!   starts at the arrival the caller passes in, not at the open, so a stage
//!   timed before the open (the transport's `parse`) falls inside the
//!   request's total.
//! * [`stage`] times one [`Stage`] of the open request and makes it the
//!   request's live stage ([`record_stage`] adds a duration measured
//!   elsewhere without touching the live stage).
//! * [`RequestBooks::close`] takes the request off the registry and turns
//!   its books into the [`FlightRecordInfo`] that the flight recorder keeps,
//!   the `Server-Timing` header renders and the stage histograms count.
//!
//! Books can change threads: [`RequestBooks::hand_over`] takes them off the
//! thread that opened them — the HTTP event loop, for every request it
//! queues for the worker pool — and [`InflightRegistry::take_over`] puts
//! them on the thread that takes the request off the queue (a worker, or
//! the loop shedding it), clock, trace ID and stage rows intact. A queued
//! request is on no thread and off the registry; the admission queue's
//! depth counts it.
//!
//! The books drop off the registry on any path, panics included: a
//! [`RequestBooks`] dropped without a close deregisters just the same.
//!
//! Each entry carries a [`ProgressBoard`] handle. When the request leads a
//! solve, the service hands that board to the search, so the entry's
//! `nodes` / `memo_drops` / `depth` fields tick live while the solver runs
//! and `incumbent` / `incumbents` follow each improving period — all
//! relaxed-atomic reads, no locks shared with the solver hot path. An SSE
//! reply hangs its frame writer on the same board as its listener. Requests
//! that never solve (cache hits, coalesced followers) simply read zero.
//!
//! Memory is strictly bounded by concurrency: one entry per request a
//! thread works on, cache hits included, which the worker-pool size (plus
//! one, the event loop) caps, and one per queued request, which the
//! admission queue's capacity caps. An entry is a couple hundred bytes plus
//! one progress board: its five live counters, the finished solves' totals
//! (an eleven-counter `SolverTotals` behind a mutex) and one listener slot.

use crate::flight::now_unix_ms;
use crate::metrics::ServiceMetrics;
use crate::wire::{FlightRecordInfo, InflightInfo, InflightResponse, StageTimingInfo};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tessel_obs::TraceId;
use tessel_solver::ProgressBoard;

/// The span taxonomy of the request lifecycle (see `docs/ARCHITECTURE.md`):
/// every stage a request's books can time, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// HTTP head + body parsing on the event loop.
    Parse,
    /// Queued for a free worker, or until the admission queue shed it.
    QueueWait,
    /// Request body JSON → typed request.
    Decode,
    /// `PlacementSpec::validate`.
    Validate,
    /// Canonical labeling → fingerprint.
    Canonicalize,
    /// The sharded-LRU probe.
    CacheLookup,
    /// A follower waiting on an identical in-flight search.
    SingleflightWait,
    /// The whole `TesselSearch::run`.
    Solve,
    /// The cached schedule seen through the request's labeling.
    Translate,
    /// Response JSON rendering.
    Serialize,
    /// Response encoded → event-loop write pass.
    Write,
}

impl Stage {
    /// Every stage, in declaration order (the stage histograms' order).
    pub const ALL: [Stage; 11] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::Decode,
        Stage::Validate,
        Stage::Canonicalize,
        Stage::CacheLookup,
        Stage::SingleflightWait,
        Stage::Solve,
        Stage::Translate,
        Stage::Serialize,
        Stage::Write,
    ];

    /// The stage's name on every surface: flight records, `Server-Timing`,
    /// the `stage` histogram label and the in-flight view.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::Decode => "decode",
            Stage::Validate => "validate",
            Stage::Canonicalize => "canonicalize",
            Stage::CacheLookup => "cache_lookup",
            Stage::SingleflightWait => "singleflight_wait",
            Stage::Solve => "solve",
            Stage::Translate => "translate",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }
}

/// The request open on this thread: its registry entry plus its stage rows,
/// in first-recorded order (a repeated stage sums into its first row).
#[derive(Debug)]
struct OpenRequest {
    entry: Arc<InflightEntry>,
    stages: Vec<(Stage, u64)>,
}

thread_local! {
    /// The one request context of the workspace (`tessel_obs` keeps only the
    /// trace ID its log lines carry).
    static CURRENT: RefCell<Option<OpenRequest>> = const { RefCell::new(None) };
}

/// One request a thread is working on; queued requests show in
/// `tessel_admission_queue_depth`.
#[derive(Debug)]
pub struct InflightEntry {
    trace_id: TraceId,
    method: String,
    path: String,
    peer: Option<String>,
    started: Instant,
    start_unix_ms: u64,
    deadline: Mutex<Option<Instant>>,
    /// The live stage: 0 while none has started (`queued`), else the
    /// [`Stage`] discriminant plus one.
    stage: AtomicU8,
    board: ProgressBoard,
}

impl InflightEntry {
    /// Records the request's resolved deadline (known only after parameter
    /// resolution, which happens after registration).
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.deadline.lock().expect("inflight deadline lock") = deadline;
    }

    /// The live solver-progress board of this request.
    #[must_use]
    pub fn board(&self) -> &ProgressBoard {
        &self.board
    }

    fn info(&self) -> InflightInfo {
        let now = Instant::now();
        let deadline = *self.deadline.lock().expect("inflight deadline lock");
        let progress = self.board.snapshot();
        InflightInfo {
            trace_id: self.trace_id.as_str().to_string(),
            method: self.method.clone(),
            path: self.path.clone(),
            peer: self.peer.clone(),
            stage: (self.stage.load(Ordering::Relaxed).checked_sub(1))
                .map_or("queued", |index| Stage::ALL[usize::from(index)].name())
                .to_string(),
            elapsed_ms: now.saturating_duration_since(self.started).as_millis() as u64,
            deadline_remaining_ms: deadline
                .map(|d| d.saturating_duration_since(now).as_millis() as u64),
            nodes: progress.nodes,
            incumbent: progress.incumbent,
            incumbents: progress.incumbents,
            memo_drops: progress.memo_drops,
            depth: progress.depth,
        }
    }
}

/// Registry of every request whose books are open on a thread, ordered
/// oldest first.
#[derive(Debug, Default)]
pub struct InflightRegistry {
    next_id: AtomicU64,
    entries: Mutex<BTreeMap<u64, Arc<InflightEntry>>>,
}

impl InflightRegistry {
    /// Opens one request's books on the calling thread: registers it under
    /// `trace_id` (a fresh ID when `None`), starts its clock at `arrived`
    /// and opens its trace context. The thread must have no other request
    /// open.
    pub fn open<'a>(
        &'a self,
        metrics: &'a ServiceMetrics,
        trace_id: Option<TraceId>,
        method: &str,
        path: &str,
        peer: Option<String>,
        arrived: Instant,
    ) -> RequestBooks<'a> {
        let trace_id = trace_id.unwrap_or_else(TraceId::generate);
        let since_arrival = arrived.elapsed().as_millis() as u64;
        let entry = Arc::new(InflightEntry {
            trace_id,
            method: method.to_string(),
            path: path.to_string(),
            peer,
            started: arrived,
            start_unix_ms: now_unix_ms().saturating_sub(since_arrival),
            deadline: Mutex::new(None),
            stage: AtomicU8::new(0),
            board: ProgressBoard::new(),
        });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("inflight registry lock")
            .insert(id, Arc::clone(&entry));
        CURRENT.with(|current| {
            let previous = current.borrow_mut().replace(OpenRequest {
                entry,
                stages: Vec::with_capacity(8),
            });
            debug_assert!(previous.is_none(), "one request's books per thread");
        });
        tessel_obs::begin_request(trace_id);
        RequestBooks {
            registry: self,
            metrics,
            trace_id,
            id: Some(id),
        }
    }

    /// Puts books another thread handed over ([`RequestBooks::hand_over`])
    /// on the calling thread: the request is registered again under its
    /// old key, and its clock, trace ID and stage rows carry on where the
    /// other thread left them.
    pub fn take_over<'a>(
        &'a self,
        metrics: &'a ServiceMetrics,
        handed: HandedBooks,
    ) -> RequestBooks<'a> {
        let HandedBooks { id, open } = handed;
        let trace_id = open.entry.trace_id;
        self.entries
            .lock()
            .expect("inflight registry lock")
            .insert(id, Arc::clone(&open.entry));
        CURRENT.with(|current| *current.borrow_mut() = Some(open));
        tessel_obs::begin_request(trace_id);
        RequestBooks {
            registry: self,
            metrics,
            trace_id,
            id: Some(id),
        }
    }

    /// The `GET /v1/debug/inflight` response body, oldest request first.
    #[must_use]
    pub fn snapshot(&self) -> InflightResponse {
        InflightResponse {
            inflight: self
                .entries
                .lock()
                .expect("inflight registry lock")
                .values()
                .map(|entry| entry.info())
                .collect(),
        }
    }
}

/// The handle of one [`InflightRegistry::open`] (or
/// [`InflightRegistry::take_over`]).
#[derive(Debug)]
#[must_use = "close the books to get the request's flight record"]
pub struct RequestBooks<'a> {
    registry: &'a InflightRegistry,
    metrics: &'a ServiceMetrics,
    trace_id: TraceId,
    /// The registry key; `None` once the books closed or left the thread.
    id: Option<u64>,
}

impl RequestBooks<'_> {
    /// The trace ID of the request these books belong to.
    #[must_use]
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Closes the books: the request leaves the registry and the thread's
    /// context, every stage but `write` (which the event loop adds once the
    /// response is written) is counted in its histogram, and the request's
    /// flight record comes back.
    ///
    /// The request leaves `GET /v1/debug/inflight` here, so a transport that
    /// closes before queueing the response never lists an answered request.
    pub fn close(mut self, status: u16) -> FlightRecordInfo {
        let HandedBooks { open, .. } = self.release().expect("open books");
        let mut stages = Vec::with_capacity(open.stages.len());
        for &(stage, micros) in &open.stages {
            self.metrics.observe_stage(stage, micros);
            let name = stage.name().to_string();
            stages.push(StageTimingInfo { name, micros });
        }
        let entry = &open.entry;
        FlightRecordInfo {
            trace_id: self.trace_id.as_str().to_string(),
            method: entry.method.clone(),
            path: entry.path.clone(),
            status,
            start_unix_ms: entry.start_unix_ms,
            total_micros: entry.started.elapsed().as_micros() as u64,
            stages,
        }
    }

    /// Takes the open books off this thread, counting and recording
    /// nothing, so that another thread can [`InflightRegistry::take_over`]
    /// them. The request is off the registry in between, as a request
    /// waiting for a worker always is.
    #[must_use]
    pub fn hand_over(mut self) -> HandedBooks {
        self.release().expect("open books")
    }

    /// Takes the request off the registry, the thread and the trace
    /// context; returns its books. A no-op once they closed or left.
    fn release(&mut self) -> Option<HandedBooks> {
        let id = self.id.take()?;
        self.registry
            .entries
            .lock()
            .expect("inflight registry lock")
            .remove(&id);
        tessel_obs::end_request();
        let open = CURRENT.with(|current| current.borrow_mut().take())?;
        Some(HandedBooks { id, open })
    }
}

/// A request's books on their way from one thread to another: see
/// [`RequestBooks::hand_over`] and [`InflightRegistry::take_over`].
#[derive(Debug)]
pub struct HandedBooks {
    id: u64,
    open: OpenRequest,
}

impl Drop for RequestBooks<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Runs `f` as stage `stage` of the calling thread's open request: marks it
/// the request's live stage, times it and adds the time to the stage's row.
/// Still runs `f`, untimed in effect, when no request is open.
pub fn stage<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    with_current(|entry| entry.stage.store(stage as u8 + 1, Ordering::Relaxed));
    let (result, micros) = timed(f);
    record_stage(stage, micros);
    result
}

/// Runs `f` and returns its result with the microseconds it took: how a
/// stage is timed before any books are open (the transport's `parse`).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_micros() as u64)
}

/// Adds `micros` to stage `stage` of the calling thread's open request,
/// leaving its live stage as it is (no-op when none is open).
pub fn record_stage(stage: Stage, micros: u64) {
    CURRENT.with(|current| {
        if let Some(open) = current.borrow_mut().as_mut() {
            match open.stages.iter_mut().find(|(seen, _)| *seen == stage) {
                Some((_, total)) => *total += micros,
                None => open.stages.push((stage, micros)),
            }
        }
    });
}

/// Runs `f` against the calling thread's open request, if any.
pub fn with_current<R>(f: impl FnOnce(&InflightEntry) -> R) -> Option<R> {
    CURRENT.with(|current| current.borrow().as_ref().map(|open| f(&open.entry)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(digit: char) -> Option<TraceId> {
        TraceId::parse(&digit.to_string().repeat(32))
    }

    #[test]
    fn register_snapshot_and_deregister() {
        let registry = InflightRegistry::default();
        let metrics = ServiceMetrics::new();
        assert!(registry.snapshot().inflight.is_empty());
        {
            let _books = registry.open(
                &metrics,
                trace('a'),
                "POST",
                "/v1/search",
                Some("127.0.0.1:5000".into()),
                Instant::now(),
            );
            assert_eq!(registry.snapshot().inflight.len(), 1);
            let snap = registry.snapshot();
            assert_eq!(snap.inflight.len(), 1);
            let entry = &snap.inflight[0];
            assert_eq!(entry.trace_id, "a".repeat(32));
            assert_eq!(entry.stage, "queued");
            assert_eq!(entry.peer.as_deref(), Some("127.0.0.1:5000"));
            assert_eq!(entry.deadline_remaining_ms, None);
            assert_eq!(entry.nodes, 0);
            assert_eq!(entry.incumbent, None);
        }
        assert!(
            registry.snapshot().inflight.is_empty(),
            "dropped books deregister"
        );
        assert!(with_current(|_| ()).is_none(), "and leave the thread");
        assert_eq!(tessel_obs::current_trace_id(), None);
    }

    #[test]
    fn stage_deadline_and_progress_flow_into_the_snapshot() {
        let registry = InflightRegistry::default();
        let metrics = ServiceMetrics::new();
        let _books = registry.open(
            &metrics,
            trace('b'),
            "CALL",
            "/v1/search",
            None,
            Instant::now(),
        );
        stage(Stage::Solve, || {
            with_current(|entry| {
                entry.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
                entry.board().add_nodes(17);
                entry.board().record_incumbent(9);
                entry.board().add_memo_drops(3);
                entry.board().set_depth(4);
            })
            .expect("a current entry exists");
        });
        // A duration measured elsewhere leaves the live stage alone.
        record_stage(Stage::QueueWait, 5);
        let snap = registry.snapshot();
        let entry = &snap.inflight[0];
        assert_eq!(entry.stage, "solve");
        assert_eq!(entry.nodes, 17);
        assert_eq!(entry.incumbent, Some(9));
        assert_eq!(entry.incumbents, 1);
        assert_eq!(entry.memo_drops, 3);
        assert_eq!(entry.depth, Some(4));
        let remaining = entry.deadline_remaining_ms.expect("deadline is set");
        assert!(
            remaining > 3_500_000 && remaining <= 3_600_000,
            "{remaining}"
        );
    }

    #[test]
    fn handed_over_books_keep_their_stages_and_key_on_another_thread() {
        let registry = InflightRegistry::default();
        let metrics = ServiceMetrics::new();
        let books = registry.open(
            &metrics,
            trace('e'),
            "POST",
            "/handed",
            None,
            Instant::now(),
        );
        record_stage(Stage::CacheLookup, 7);
        let handed = books.hand_over();
        // Off this thread and off the registry until a thread takes them.
        assert!(with_current(|_| ()).is_none());
        assert_eq!(tessel_obs::current_trace_id(), None);
        assert!(registry.snapshot().inflight.is_empty());
        let record = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let books = registry.take_over(&metrics, handed);
                    assert_eq!(tessel_obs::current_trace_id(), trace('e'));
                    assert_eq!(registry.snapshot().inflight[0].path, "/handed");
                    record_stage(Stage::QueueWait, 3);
                    books.close(200)
                })
                .join()
                .unwrap()
        });
        let rows: Vec<(&str, u64)> = (record.stages.iter())
            .map(|s| (s.name.as_str(), s.micros))
            .collect();
        assert_eq!(rows, [("cache_lookup", 7), ("queue_wait", 3)]);
        assert_eq!(record.trace_id, "e".repeat(32));
        assert!(registry.snapshot().inflight.is_empty());
    }

    #[test]
    fn registry_is_ordered_oldest_first() {
        let registry = InflightRegistry::default();
        let metrics = ServiceMetrics::new();
        // Two threads: a thread keeps one request's books at a time.
        let _a = registry.open(&metrics, trace('1'), "POST", "/a", None, Instant::now());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _b = registry.open(&metrics, trace('2'), "POST", "/b", None, Instant::now());
                let snap = registry.snapshot();
                assert_eq!(snap.inflight[0].path, "/a");
                assert_eq!(snap.inflight[1].path, "/b");
            });
        });
    }

    #[test]
    fn stages_accumulate_and_merge_per_request() {
        let registry = InflightRegistry::default();
        let metrics = ServiceMetrics::new();
        let books = registry.open(&metrics, None, "CALL", "/v1/search", None, Instant::now());
        let trace_id = books.trace_id();
        assert_eq!(tessel_obs::current_trace_id(), Some(trace_id));
        record_stage(Stage::CacheLookup, 10);
        assert_eq!(stage(Stage::Solve, || 42), 42);
        record_stage(Stage::CacheLookup, 5);
        let record = books.close(200);
        assert_eq!(record.trace_id, trace_id.as_str());
        let rows: Vec<&str> = record.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(rows, ["cache_lookup", "solve"], "first-recorded order");
        assert_eq!(record.stages[0].micros, 15, "a repeated stage sums");
        // Every closed stage reached its histogram, once.
        let text = metrics.render_histograms();
        for name in ["cache_lookup", "solve"] {
            let count =
                format!("tessel_request_stage_duration_seconds_count{{stage=\"{name}\"}} 1");
            assert!(text.contains(&count), "{text}");
        }
        // The context is gone; further recording is a no-op.
        assert_eq!(tessel_obs::current_trace_id(), None);
        record_stage(Stage::Write, 1);
        assert!(with_current(|_| ()).is_none());
    }

    #[test]
    fn the_span_taxonomy_table_matches_the_stage_enum() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/ARCHITECTURE.md"
        ))
        .expect("docs/ARCHITECTURE.md");
        // Only this section: other tables (the transport modules) also open
        // with `parse`.
        let (_, section) = doc
            .split_once("\n### Span taxonomy\n")
            .expect("a `### Span taxonomy` section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: Vec<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
            .map(|(name, _)| name)
            .collect();
        let names: Vec<&str> = Stage::ALL.into_iter().map(Stage::name).collect();
        assert_eq!(documented, names);
    }

    #[test]
    fn all_lists_the_stages_in_declaration_order() {
        // The live stage and the histograms index `ALL` by discriminant.
        for (index, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, index);
        }
    }
}
