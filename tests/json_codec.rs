//! The JSON codec under the daemon's own types: values write themselves
//! straight into the output buffer (`serde::Writer`), and this suite holds
//! that text to the tree printer it replaced — byte for byte, compact and
//! pretty — for the `/v1/search` answer of the five built-in shapes, every
//! wire type, and a cache journal; checks that everything written reads back
//! equal; restores a journal written by the previous commit's binary; and
//! counts allocations to show that encoding a response makes none per
//! scheduled block. (Seeded random documents, the parser's accept/reject
//! table, the nesting cap and the mutation fuzzer live next to the parser, in
//! `crates/compat/serde_json/src/tests.rs`.)

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tessel::core::fingerprint::Fingerprint;
use tessel::placement::{synthetic_placement, ShapeKind};
use tessel::service::wire::{
    BatchSearchItem, BatchSearchRequest, BatchSearchResponse, CacheEntryInfo, CacheExchange,
    ClusterStatusResponse, DebugRequestsResponse, ErrorBody, FlightRecordInfo, InflightInfo,
    InflightResponse, InspectResponse, LogLevelBody, OwnerInfo, PeerStatusInfo, ReplicationAck,
    SearchRequest, SearchResponse, SeriesWindowInfo, StageTimingInfo, StreamEvent,
    TimeseriesResponse, TraceAssemblyResponse, TraceSpanInfo, WireSearchEntry,
};
use tessel::service::{CacheConfig, CacheJournal, ScheduleService, ServiceConfig, ShardedCache};

/// The tree printer `serde_json` had before values wrote themselves.
#[path = "../crates/compat/serde_json/src/reference.rs"]
mod reference;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Counts this thread's `alloc` and `realloc` calls, so a test can tell how
/// many allocations one call made while the other tests run beside it.
struct CountingAllocator;

thread_local! {
    /// (fresh allocations, reallocations). `const`-initialised and without a
    /// destructor, so the allocator may touch it at any point of a thread's
    /// life.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local integers and
// never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTS.try_with(|c| c.set((c.get().0 + 1, c.get().1)));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTS.try_with(|c| c.set((c.get().0, c.get().1 + 1)));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the (fresh allocations,
/// reallocations) this thread made meanwhile.
fn counting<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = COUNTS.with(Cell::get);
    let result = f();
    let after = COUNTS.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

// ---------------------------------------------------------------------------
// The check every value goes through
// ---------------------------------------------------------------------------

/// `text` is what the reference printer makes of its own parse, compact
/// (`indent: None`) or pretty.
fn assert_reference_text(text: &str, indent: Option<usize>, what: &str) {
    let tree: Value = serde_json::from_str(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(text, reference::print(&tree, indent), "{what}");
}

/// Writes `$value` compact and pretty, holds both texts to the reference
/// printer, and reads both back to an equal `$ty`. (A macro, not a generic
/// function: the root package does not depend on `serde` for the bounds.)
macro_rules! assert_codec {
    ($ty:ty, $value:expr) => {{
        let value: &$ty = &$value;
        let what = stringify!($ty);
        let compact = serde_json::to_string(value).unwrap();
        assert_reference_text(&compact, None, what);
        assert_eq!(
            &serde_json::from_str::<$ty>(&compact).unwrap(),
            value,
            "{what}"
        );
        let pretty = serde_json::to_string_pretty(value).unwrap();
        assert_reference_text(&pretty, Some(2), what);
        assert_eq!(
            &serde_json::from_str::<$ty>(&pretty).unwrap(),
            value,
            "{what}"
        );
        compact
    }};
}

fn service() -> ScheduleService {
    ScheduleService::new(ServiceConfig::default()).unwrap()
}

fn request(kind: ShapeKind, micro_batches: usize) -> SearchRequest {
    SearchRequest {
        num_micro_batches: Some(micro_batches),
        ..SearchRequest::for_placement(synthetic_placement(kind, 4).unwrap())
    }
}

// ---------------------------------------------------------------------------
// Differential and round trip
// ---------------------------------------------------------------------------

#[test]
fn search_answers_of_the_five_shapes_match_the_reference_printer() {
    let service = service();
    for kind in ShapeKind::all() {
        let request = request(kind, 8);
        assert_codec!(SearchRequest, request);
        let response = service.search(&request).unwrap();
        let text = assert_codec!(SearchResponse, response);
        // What the benchmark greps every payload for.
        assert!(text.starts_with(&format!(
            "{{\"fingerprint\":\"{}\",\"cached\":false,",
            response.fingerprint
        )));
        assert!(text.contains(&format!("\"period\":{},", response.period)));
    }
}

/// One value of every type in `wire.rs` (requests and search answers are
/// covered above), fed by a service that has answered a few searches.
#[test]
fn every_wire_type_matches_the_reference_printer() {
    let service = service();
    let batch = BatchSearchRequest {
        requests: vec![
            request(ShapeKind::V, 4),
            request(ShapeKind::V, 4),
            SearchRequest {
                max_repetend_micro_batches: Some(99),
                deadline_ms: Some(250),
                solver_threads: Some(2),
                priority: Some(-3),
                ..request(ShapeKind::M, 4)
            },
        ],
    };
    assert_codec!(BatchSearchRequest, batch);
    let answered = service.search_batch(&batch);
    assert!(answered.results[0].ok.is_some() && answered.results[2].error.is_some());
    assert_codec!(BatchSearchResponse, answered);
    for item in &answered.results {
        assert_codec!(BatchSearchItem, item.clone());
    }

    let response = answered.results[0].ok.clone().unwrap();
    let error = ErrorBody {
        kind: "bad_request".into(),
        error: "line\nbreak, \"quotes\", back\\slash, tab\t, bell\u{7}, é and \u{1f600}".into(),
    };
    assert_codec!(ErrorBody, error);
    assert_codec!(
        StreamEvent,
        StreamEvent::Incumbent {
            value: 7,
            elapsed_ms: u64::MAX
        }
    );
    assert_codec!(StreamEvent, StreamEvent::Result(response.clone()));
    assert_codec!(
        StreamEvent,
        StreamEvent::Error {
            status: 408,
            body: error.clone()
        }
    );

    let listing = service.cache_entries();
    assert_eq!(listing.len(), 1);
    assert_codec!(Vec<CacheEntryInfo>, listing);
    let inspect = service.inspect(response.fingerprint);
    assert_codec!(InspectResponse, inspect);
    let slim = inspect.entries[0].clone();
    assert!(slim.canonical_placement.is_none());
    assert_codec!(WireSearchEntry, slim);
    let full = WireSearchEntry {
        canonical_placement: Some(batch.requests[0].placement.clone()),
        ..slim
    };
    assert_codec!(WireSearchEntry, full);
    assert_codec!(
        CacheExchange,
        CacheExchange {
            fingerprint: response.fingerprint,
            entries: vec![full]
        }
    );
    assert_codec!(
        ReplicationAck,
        ReplicationAck {
            accepted: 1,
            rejected: 0
        }
    );

    let peer = PeerStatusInfo {
        node_id: "b".into(),
        addr: "127.0.0.1:7701".into(),
        healthy: false,
        circuit_open: true,
        consecutive_failures: 3,
        last_error: Some("connection refused".into()),
        clock_offset_ms: Some(-12),
    };
    assert_codec!(PeerStatusInfo, peer);
    let owner = OwnerInfo {
        fingerprint: Fingerprint::parse("00000000000000ff").unwrap(),
        is_local: true,
        node: "a".into(),
    };
    assert_codec!(OwnerInfo, owner);
    assert_codec!(
        ClusterStatusResponse,
        ClusterStatusResponse {
            node_id: "a".into(),
            vnodes: 64,
            nodes: vec!["a".into(), "b".into()],
            peers: vec![
                peer.clone(),
                PeerStatusInfo {
                    last_error: None,
                    clock_offset_ms: None,
                    ..peer
                }
            ],
            owner: Some(owner),
        }
    );

    // In-process searches (not batches) leave flight records.
    assert!(service.search(&batch.requests[0]).unwrap().cached);
    let recorded: DebugRequestsResponse = service.debug_requests();
    assert!(!recorded.recent.is_empty());
    assert_codec!(DebugRequestsResponse, recorded);
    assert_codec!(FlightRecordInfo, recorded.recent[0].clone());
    assert_codec!(StageTimingInfo, recorded.recent[0].stages[0].clone());
    let waiting = InflightInfo {
        trace_id: "00112233445566778899aabbccddeeff".into(),
        method: "POST".into(),
        path: "/v1/search?stream=1".into(),
        peer: Some("127.0.0.1".into()),
        stage: "solve".into(),
        elapsed_ms: 12,
        deadline_remaining_ms: None,
        nodes: 1 << 40,
        incumbent: Some(9),
        incumbents: 2,
        steals: 0,
        memo_drops: 5,
        worker_depths: vec![3, 0, 17],
    };
    assert_codec!(InflightInfo, waiting);
    assert_codec!(
        InflightResponse,
        InflightResponse {
            inflight: vec![waiting]
        }
    );
    let series = SeriesWindowInfo {
        name: "requests_per_s".into(),
        samples: vec![0.0, 6976.25, 1e15, 1.5e-7],
        last: 1.5e-7,
        min: 0.0,
        max: 1e15,
        avg: 250_000_000_001_744.06,
        p50: 6976.25,
        p95: 1e15,
    };
    assert_codec!(SeriesWindowInfo, series);
    assert_codec!(
        TimeseriesResponse,
        TimeseriesResponse {
            interval_ms: 1000,
            ticks: 4,
            latest_unix_ms: 1_790_000_000_000,
            series: vec![series]
        }
    );
    let span = TraceSpanInfo {
        node: "a".into(),
        name: "cache_lookup".into(),
        start_unix_ms: 1_790_000_000_000,
        micros: 0,
        method: "POST".into(),
        path: "/v1/search".into(),
        status: 200,
    };
    assert_codec!(TraceSpanInfo, span);
    assert_codec!(
        TraceAssemblyResponse,
        TraceAssemblyResponse {
            trace_id: "00112233445566778899aabbccddeeff".into(),
            nodes: vec!["a".into()],
            unreachable: vec![],
            spans: vec![span]
        }
    );
    assert_codec!(
        LogLevelBody,
        LogLevelBody {
            level: "debug".into()
        }
    );
}

// ---------------------------------------------------------------------------
// Bytes written by the previous commit's binary
// ---------------------------------------------------------------------------

/// The five answers `tessel-client search --shape {v4,x4,m4,k4,nn4}
/// --micro-batches 4` printed against the previous commit's daemon. Reading
/// each and writing it again gives the same bytes: field order, number
/// formats and escapes are where they were.
#[test]
fn answers_written_by_the_previous_commit_come_back_byte_identical() {
    let answers = include_str!("golden/parent_responses.jsonl");
    assert_eq!(answers.lines().count(), 5);
    for line in answers.lines() {
        let response: SearchResponse = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&response).unwrap(), line);
        assert_reference_text(line, None, "answer of the previous commit");
    }
}

/// The journal the previous commit's daemon wrote while answering those five
/// searches (`--cache-file`). It replays into a cache, a service restored
/// from it answers the same searches from the cache, and compacting it
/// rewrites every line as it was.
#[test]
fn a_journal_written_by_the_previous_commit_restores_and_rewrites_identically() {
    let original = include_str!("golden/parent_journal.jsonl");
    let dir = std::env::temp_dir().join(format!("tessel-json-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let replayed = dir.join("replayed.jsonl");
    std::fs::write(&replayed, original).unwrap();
    let cache = ShardedCache::new(&CacheConfig::default());
    let journal = CacheJournal::new(replayed.clone(), 64);
    assert_eq!(journal.replay(&cache).unwrap(), 5);
    journal.compact(&cache).unwrap();
    let rewritten = std::fs::read_to_string(&replayed).unwrap();
    let sorted = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    assert_eq!(sorted(&rewritten), sorted(original));
    for line in rewritten.lines() {
        assert_reference_text(line, None, "journal line");
    }

    let restored = dir.join("restored.jsonl");
    std::fs::write(&restored, original).unwrap();
    let service = ScheduleService::new(ServiceConfig {
        cache_path: Some(restored),
        ..ServiceConfig::default()
    })
    .unwrap();
    let answers = include_str!("golden/parent_responses.jsonl");
    for (kind, line) in ShapeKind::all().into_iter().zip(answers.lines()) {
        let before: SearchResponse = serde_json::from_str(line).unwrap();
        let now = service.search(&request(kind, 4)).unwrap();
        assert!(now.cached, "{kind:?} was searched again");
        assert_eq!(
            (now.fingerprint, now.period, &now.schedule),
            (before.fingerprint, before.period, &before.schedule),
            "{kind:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Allocations
// ---------------------------------------------------------------------------

/// Encoding an answer allocates its output buffer and nothing else, however
/// many blocks the schedule has: V4 at 8 and at 32 micro-batches make the
/// same number of fresh allocations, and the longer text only costs the
/// buffer's own doublings.
#[test]
fn encoding_an_answer_allocates_nothing_per_block() {
    let service = service();
    let small = service.search(&request(ShapeKind::V, 8)).unwrap();
    let large = service.search(&request(ShapeKind::V, 32)).unwrap();
    assert_eq!(
        large.schedule.blocks().len(),
        4 * small.schedule.blocks().len()
    );

    let (small_text, (small_allocs, small_reallocs)) =
        counting(|| serde_json::to_string(&small).unwrap());
    let (large_text, (large_allocs, large_reallocs)) =
        counting(|| serde_json::to_string(&large).unwrap());
    assert!(large_text.len() > 3 * small_text.len());
    assert_eq!(
        (small_allocs, large_allocs),
        (1, 1),
        "the output buffer only"
    );
    let doublings = (large_text.len() / small_text.len()).ilog2() as u64 + 1;
    assert!(
        large_reallocs <= small_reallocs + doublings,
        "{small_reallocs} reallocations for {} bytes, {large_reallocs} for {}",
        small_text.len(),
        large_text.len()
    );
    // The tree route this replaced made several allocations per block.
    assert!(small_reallocs + large_reallocs < 8);
}
