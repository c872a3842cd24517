//! In-memory flight recorder: the last N completed requests with per-stage
//! timing breakdowns, plus a slowest-requests leaderboard.
//!
//! Every completed request — HTTP or in-process — deposits the one
//! [`FlightRecordInfo`] its books closed to here
//! ([`crate::inflight::RequestBooks::close`]), and both views serve that
//! same record on the wire. The recorder keeps two bounded views:
//!
//! * **recent** — a ring buffer of the last [`FlightRecorder::capacity`]
//!   requests, newest first, for "what just happened" debugging;
//! * **slowest** — the [`SLOWEST_CAPACITY`] slowest requests seen since
//!   startup, sorted by total duration, for "where did my tail latency go".
//!
//! Both views serve `GET /v1/debug/requests`. Memory is strictly bounded:
//! records are `Arc`-shared between the two views, and each record holds only
//! the trace ID, request line, status and a short stage vector — roughly 200
//! bytes each, so the default configuration retains well under 64 KiB.

use crate::http::route::split_target;
use crate::wire::{DebugRequestsResponse, FlightRecordInfo};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Current wall clock as Unix milliseconds (the `start_unix_ms` stamp).
#[must_use]
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Default number of recent requests retained.
pub const RECENT_CAPACITY: usize = 128;

/// Number of slowest-request slots retained.
pub const SLOWEST_CAPACITY: usize = 16;

/// Filter predicate for `GET /v1/debug/requests` query parameters. Every
/// populated field must match; an empty query matches everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightQuery {
    /// Exact response status (`?status=408`).
    pub status: Option<u16>,
    /// Minimum total duration in microseconds (`?min_micros=50000`).
    pub min_micros: Option<u64>,
    /// Exact request path, without the record's query string
    /// (`?endpoint=/v1/search` also lists `/v1/search?stream=1`).
    pub endpoint: Option<String>,
    /// Exact trace ID (`?trace=HEX32`).
    pub trace: Option<String>,
}

impl FlightQuery {
    /// `true` when no filter field is populated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == FlightQuery::default()
    }

    /// `true` when `record` satisfies every populated filter field.
    #[must_use]
    pub fn matches(&self, record: &FlightRecordInfo) -> bool {
        self.status.is_none_or(|status| record.status == status)
            && self
                .min_micros
                .is_none_or(|floor| record.total_micros >= floor)
            && self
                .endpoint
                .as_deref()
                .is_none_or(|endpoint| split_target(&record.path).0 == endpoint)
            && self
                .trace
                .as_deref()
                .is_none_or(|trace| record.trace_id == trace)
    }
}

/// Bounded two-view store of completed requests (see the module docs).
///
/// Both views sit behind plain mutexes: they are touched once per *completed*
/// request, far off the hot path, and contention is bounded by request
/// throughput.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    recent: Mutex<VecDeque<Arc<FlightRecordInfo>>>,
    slowest: Mutex<Vec<Arc<FlightRecordInfo>>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(RECENT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `capacity` requests (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            recent: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            slowest: Mutex::new(Vec::with_capacity(SLOWEST_CAPACITY)),
        }
    }

    /// The ring-buffer capacity of the recent view.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deposits one completed request into both views.
    pub fn record(&self, record: FlightRecordInfo) {
        let record = Arc::new(record);
        {
            let mut recent = self.recent.lock().expect("flight recorder lock");
            if recent.len() == self.capacity {
                recent.pop_front();
            }
            recent.push_back(Arc::clone(&record));
        }
        let mut slowest = self.slowest.lock().expect("flight recorder lock");
        if slowest.len() < SLOWEST_CAPACITY
            || slowest
                .last()
                .is_some_and(|tail| record.total_micros > tail.total_micros)
        {
            slowest.push(record);
            slowest.sort_by_key(|record| std::cmp::Reverse(record.total_micros));
            slowest.truncate(SLOWEST_CAPACITY);
        }
    }

    /// The recent view, newest first.
    #[must_use]
    pub fn recent(&self) -> Vec<Arc<FlightRecordInfo>> {
        let recent = self.recent.lock().expect("flight recorder lock");
        recent.iter().rev().cloned().collect()
    }

    /// The slowest view, slowest first.
    #[must_use]
    pub fn slowest(&self) -> Vec<Arc<FlightRecordInfo>> {
        self.slowest.lock().expect("flight recorder lock").clone()
    }

    /// Snapshot of both views in wire form, for `GET /v1/debug/requests`.
    #[must_use]
    pub fn snapshot(&self) -> DebugRequestsResponse {
        self.snapshot_filtered(&FlightQuery::default())
    }

    /// Snapshot of both views restricted to records matching `query`.
    #[must_use]
    pub fn snapshot_filtered(&self, query: &FlightQuery) -> DebugRequestsResponse {
        DebugRequestsResponse {
            capacity: self.capacity as u64,
            recent: self
                .recent()
                .iter()
                .filter(|r| query.matches(r))
                .map(|r| (**r).clone())
                .collect(),
            slowest: self
                .slowest()
                .iter()
                .filter(|r| query.matches(r))
                .map(|r| (**r).clone())
                .collect(),
        }
    }

    /// Every retained record carrying `trace_id`, oldest first, deduplicated
    /// across the two views (a record can sit in both). Trace assembly walks
    /// this to rebuild a request's span timeline.
    #[must_use]
    pub fn find_by_trace(&self, trace_id: &str) -> Vec<Arc<FlightRecordInfo>> {
        let mut found: Vec<Arc<FlightRecordInfo>> = Vec::new();
        {
            let recent = self.recent.lock().expect("flight recorder lock");
            found.extend(recent.iter().filter(|r| r.trace_id == trace_id).cloned());
        }
        let slowest = self.slowest.lock().expect("flight recorder lock");
        for record in slowest.iter() {
            if record.trace_id == trace_id && !found.iter().any(|seen| Arc::ptr_eq(seen, record)) {
                found.push(Arc::clone(record));
            }
        }
        found.sort_by_key(|r| r.start_unix_ms);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::StageTimingInfo;

    fn record(trace: &str, total: u64) -> FlightRecordInfo {
        FlightRecordInfo {
            trace_id: trace.to_string(),
            method: "POST".to_string(),
            path: "/v1/search".to_string(),
            status: 200,
            start_unix_ms: 1_700_000_000_000,
            total_micros: total,
            stages: vec![
                StageTimingInfo {
                    name: "solve".to_string(),
                    micros: total / 2,
                },
                StageTimingInfo {
                    name: "serialize".to_string(),
                    micros: total / 4,
                },
            ],
        }
    }

    #[test]
    fn recent_is_a_ring_buffer_newest_first() {
        let recorder = FlightRecorder::new(3);
        for i in 0..5u64 {
            recorder.record(record(&format!("{i:032}"), 100 + i));
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].trace_id, format!("{:032}", 4));
        assert_eq!(recent[2].trace_id, format!("{:032}", 2));
    }

    #[test]
    fn slowest_keeps_the_global_tail_sorted() {
        let recorder = FlightRecorder::new(2);
        // Old-but-slow entries must survive ring-buffer eviction.
        recorder.record(record("slow", 9_000_000));
        for i in 0..10u64 {
            recorder.record(record(&format!("fast{i}"), 10 + i));
        }
        let slowest = recorder.slowest();
        assert_eq!(slowest[0].trace_id, "slow");
        assert!(slowest.len() <= SLOWEST_CAPACITY);
        for pair in slowest.windows(2) {
            assert!(pair[0].total_micros >= pair[1].total_micros);
        }
        // The slow entry is gone from recent (capacity 2) but kept above.
        assert!(recorder.recent().iter().all(|r| r.trace_id != "slow"));
    }

    #[test]
    fn slowest_is_bounded() {
        let recorder = FlightRecorder::new(4);
        for i in 0..100u64 {
            recorder.record(record(&format!("r{i}"), i));
        }
        assert_eq!(recorder.slowest().len(), SLOWEST_CAPACITY);
        assert_eq!(recorder.slowest()[0].total_micros, 99);
    }

    #[test]
    fn query_filters_compose_conjunctively() {
        let recorder = FlightRecorder::new(8);
        let mut timeout = record(&"a".repeat(32), 80_000);
        timeout.status = 408;
        recorder.record(timeout);
        let mut fast_ok = record(&"b".repeat(32), 900);
        fast_ok.path = "/v1/cache".to_string();
        recorder.record(fast_ok);
        recorder.record(record(&"c".repeat(32), 60_000));

        // Empty query matches everything.
        assert!(FlightQuery::default().is_empty());
        assert_eq!(
            recorder
                .snapshot_filtered(&FlightQuery::default())
                .recent
                .len(),
            3
        );

        // Single-field filters.
        let by_status = FlightQuery {
            status: Some(408),
            ..FlightQuery::default()
        };
        let snap = recorder.snapshot_filtered(&by_status);
        assert_eq!(snap.recent.len(), 1);
        assert_eq!(snap.recent[0].trace_id, "a".repeat(32));

        let by_floor = FlightQuery {
            min_micros: Some(50_000),
            ..FlightQuery::default()
        };
        assert_eq!(recorder.snapshot_filtered(&by_floor).recent.len(), 2);

        let by_endpoint = FlightQuery {
            endpoint: Some("/v1/cache".to_string()),
            ..FlightQuery::default()
        };
        let snap = recorder.snapshot_filtered(&by_endpoint);
        assert_eq!(snap.recent.len(), 1);
        assert_eq!(snap.recent[0].trace_id, "b".repeat(32));

        let by_trace = FlightQuery {
            trace: Some("c".repeat(32)),
            ..FlightQuery::default()
        };
        assert_eq!(recorder.snapshot_filtered(&by_trace).recent.len(), 1);

        // Conjunction: status AND min_micros AND endpoint.
        let combo = FlightQuery {
            status: Some(408),
            min_micros: Some(50_000),
            endpoint: Some("/v1/search".to_string()),
            trace: None,
        };
        let snap = recorder.snapshot_filtered(&combo);
        assert_eq!(snap.recent.len(), 1);
        assert_eq!(snap.recent[0].status, 408);
        // Flipping any leg to a non-matching value empties the result.
        let miss = FlightQuery {
            min_micros: Some(90_000),
            ..combo
        };
        assert!(recorder.snapshot_filtered(&miss).recent.is_empty());
        assert!(recorder.snapshot_filtered(&miss).slowest.is_empty());
    }

    #[test]
    fn find_by_trace_dedups_across_views_and_orders_by_start() {
        let recorder = FlightRecorder::new(2);
        let trace = "d".repeat(32);
        // Slow enough to live in both views at first.
        let mut early = record(&trace, 5_000_000);
        early.start_unix_ms = 1_700_000_000_000;
        recorder.record(early);
        let mut late = record(&trace, 40);
        late.start_unix_ms = 1_700_000_000_500;
        recorder.record(late);
        recorder.record(record(&"e".repeat(32), 50));

        let found = recorder.find_by_trace(&trace);
        assert_eq!(
            found.len(),
            2,
            "one per request, no double-count from slowest"
        );
        assert!(found[0].start_unix_ms <= found[1].start_unix_ms);

        // Evict both trace records from the recent ring; they must still be
        // reachable via the slowest view (which holds everything while under
        // SLOWEST_CAPACITY), still deduplicated and ordered by start time.
        recorder.record(record(&"f".repeat(32), 60));
        recorder.record(record(&"g".repeat(32), 70));
        let found = recorder.find_by_trace(&trace);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].total_micros, 5_000_000);
        assert_eq!(found[1].total_micros, 40);
        assert!(recorder.find_by_trace(&"h".repeat(32)).is_empty());
    }

    #[test]
    fn slowest_eviction_is_correct_under_concurrent_insert() {
        let recorder = std::sync::Arc::new(FlightRecorder::new(16));
        let threads = 4u32;
        let per_thread = 200u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = std::sync::Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let total = u64::from(t) * per_thread + i;
                        recorder.record(record(&format!("t{t}i{i}"), total));
                    }
                });
            }
        });
        let slowest = recorder.slowest();
        assert_eq!(slowest.len(), SLOWEST_CAPACITY);
        for pair in slowest.windows(2) {
            assert!(pair[0].total_micros >= pair[1].total_micros);
        }
        // The global maximum always survives: it is never racing anything
        // slower for its slot.
        let max = u64::from(threads) * per_thread - 1;
        assert_eq!(slowest[0].total_micros, max);
        // Every retained entry beats everything evicted: the 16 retained
        // totals must be 16 of the top totals overall. Concurrent inserts may
        // interleave, but each record() holds the slowest lock exclusively,
        // so the sorted-truncate can never drop a slower record for a faster
        // one.
        let floor = slowest.last().unwrap().total_micros;
        let beaten = (0..u64::from(threads) * per_thread)
            .filter(|total| *total > floor)
            .count();
        assert!(
            beaten < SLOWEST_CAPACITY,
            "floor {floor} excludes too little"
        );
    }

    #[test]
    fn snapshot_round_trips_through_wire_types() {
        let recorder = FlightRecorder::new(8);
        recorder.record(record("a".repeat(32).as_str(), 1234));
        let snap = recorder.snapshot();
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.recent.len(), 1);
        assert_eq!(snap.recent[0].total_micros, 1234);
        assert_eq!(snap.recent[0].stages.len(), 2);
        assert_eq!(snap.slowest[0].trace_id, snap.recent[0].trace_id);
    }
}
