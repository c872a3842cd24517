//! The JSON codec under the daemon's own types, both directions.
//!
//! Out: values write themselves straight into the output buffer
//! (`serde::Writer`), and this suite holds that text to the tree printer it
//! replaced — byte for byte, compact and pretty — for the `/v1/search` answer
//! of the five built-in shapes, every wire type, and a cache journal; checks
//! that everything written reads back equal; restores a journal written by
//! the previous commit's binary; and counts allocations to show that encoding
//! a response makes none per scheduled block.
//!
//! The answer writer: the `/v1/search` body the daemon writes straight from a
//! cache entry (`service::answer`) is byte-identical to the owned response
//! the translation it replaced built, on random placements under random
//! relabelings, as a miss, a hit and a coalesced answer; streamed results
//! equal that response too; and answering a hit allocates nothing per
//! scheduled block.
//!
//! In: the pull decoder agrees with the tree decoder it replaced on mutated
//! documents of every wire type, and decoding a request allocates only what
//! the request owns. (Seeded random documents, the parser's accept/reject
//! table, the nesting cap and the parser-level fuzzers live next to the
//! parser, in `crates/compat/serde_json/src/tests.rs`.)
//!
//! The two fuzzers here take `TESSEL_FUZZ_SEED` (pinned in CI) and print it
//! with every failure; their `#[ignore]`d long forms run in the
//! `fingerprint-stress` CI job.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;
use tessel::core::fingerprint::{CanonicalPlacement, DEFAULT_NODE_BUDGET};
use tessel::core::ir::{BlockKind, BlockSpec, PlacementSpec};
use tessel::core::schedule::{scheduled_block, Schedule};
use tessel::placement::{synthetic_placement, ShapeKind};
use tessel::service::answer::Answer;
use tessel::service::wire::{
    CacheEntryInfo, DebugRequestsResponse, ErrorBody, FlightRecordInfo, InflightInfo,
    InflightResponse, InspectResponse, LogLevelBody, SearchRequest, SearchResponse, SeriesWindow,
    StageTimingInfo, StreamEvent, TimeSeriesWindow, TraceAssemblyResponse, TraceSpanInfo,
    WireSearchEntry,
};
use tessel::service::{
    http_call_streaming, CacheConfig, CacheJournal, CachedSearch, HttpClient, HttpServer,
    ScheduleService, ServerConfig, ServiceConfig, ShardedCache,
};

/// The tree printer `serde_json` had before values wrote themselves.
#[path = "../crates/compat/serde_json/src/reference.rs"]
mod reference;

/// The tree decoder `serde_json` had before values read themselves.
#[path = "../crates/compat/serde_json/src/reference_decode.rs"]
mod reference_decode;

/// The JSON fuzzers' randomness and mutation operators.
#[path = "../crates/compat/serde_json/src/mutation.rs"]
#[allow(dead_code)]
mod mutation;

use mutation::{mutate, Rng};

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
/// printer, reads both back to an equal `$ty`, and runs the decoder
/// differential on `$mutants` mutations of the two texts.
macro_rules! assert_codec {
    ($ty:ty, $value:expr, $mutants:expr) => {{
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
        decoders_agree_on_mutants::<$ty>(what, &[compact.clone(), pretty], $mutants);
        compact
    }};
}

/// Mutated documents per value and text in tier-1; the `#[ignore]`d long
/// forms run [`LONG_MUTANTS`].
const MUTANTS: usize = 40;
const LONG_MUTANTS: usize = 2_000;

/// The fuzz seed: `TESSEL_FUZZ_SEED` (decimal or 0x-hex), else a pinned one.
fn fuzz_seed() -> u64 {
    std::env::var("TESSEL_FUZZ_SEED")
        .ok()
        .and_then(|raw| {
            let raw = raw.trim();
            match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            }
        })
        .unwrap_or(0xf16e_4a44)
}

/// The decoder differential on one wire type: on `mutants` mutations of
/// `texts`, the pull decoder refuses exactly the documents the tree decoder
/// it replaced refuses, and otherwise returns the `T` that tree means — read
/// from the tree's own text with every map's first occurrence of a key kept,
/// the rule the tree's typed half applied. (A tree whose floats do not read
/// back exactly cannot stand in for its text and is skipped.)
fn decoders_agree_on_mutants<T>(what: &str, texts: &[String], mutants: usize)
where
    T: serde::Deserialize + serde::Serialize + PartialEq + Debug,
{
    let seed = fuzz_seed();
    let salt = what.bytes().fold(texts[0].len() as u64, |h, b| {
        h.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(b)
    });
    let mut rng = Rng(seed ^ salt | 1);
    for case in 0..mutants * texts.len() {
        let text = mutate(&mut rng, texts);
        let context = || format!("TESSEL_FUZZ_SEED={seed:#x} {what} mutant {case}: {text:?}");
        let pulled = serde_json::from_str::<T>(&text);
        let Ok(tree) = reference_decode::parse(&text) else {
            assert!(
                pulled.is_err(),
                "the tree decoder refused it — {}",
                context()
            );
            continue;
        };
        let tree = reference_decode::first_wins(&tree);
        if !reference_decode::reads_back_exactly(&tree) {
            continue;
        }
        let meant = serde_json::from_str::<T>(&serde_json::to_string(&tree).unwrap());
        assert_eq!(pulled.ok(), meant.ok(), "{}", context());
    }
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
    let mutants = MUTANTS;
    for kind in ShapeKind::all() {
        let request = request(kind, 8);
        assert_codec!(SearchRequest, request, mutants);
        let response = service.search(&request).unwrap();
        let text = assert_codec!(SearchResponse, response, mutants);
        // What the benchmark greps every payload for.
        assert!(text.starts_with(&format!(
            "{{\"fingerprint\":\"{}\",\"cached\":false,",
            response.fingerprint
        )));
        assert!(text.contains(&format!("\"period\":{},", response.period)));
    }
}

/// One value of every type in `wire.rs`, fed by a service that has answered
/// a few searches.
#[test]
fn every_wire_type_matches_the_reference_printer() {
    every_wire_type_round_trips(MUTANTS);
}

/// The decoder differential's long run on every wire type:
/// `TESSEL_FUZZ_SEED=<seed> cargo test --release --test json_codec -- --ignored`.
#[test]
#[ignore = "2k mutations per wire value; run explicitly or via the fingerprint-stress CI job"]
fn every_wire_type_decodes_like_the_tree_decoder_on_many_mutants() {
    every_wire_type_round_trips(LONG_MUTANTS);
}

fn every_wire_type_round_trips(mutants: usize) {
    let service = service();
    let solved = request(ShapeKind::V, 4);
    let refused = SearchRequest {
        max_repetend_micro_batches: Some(99),
        deadline_ms: Some(250),
        priority: Some(-3),
        ..request(ShapeKind::M, 4)
    };
    assert_codec!(SearchRequest, refused, mutants);
    let response = service.search(&solved).unwrap();
    assert_codec!(SearchResponse, response, mutants);
    let refusal = service.search(&refused).unwrap_err();
    let refusal = ErrorBody {
        kind: refusal.kind().into(),
        error: refusal.to_string(),
    };
    assert_codec!(ErrorBody, refusal, mutants);
    let error = ErrorBody {
        kind: "bad_request".into(),
        error: "line\nbreak, \"quotes\", back\\slash, tab\t, bell\u{7}, é and \u{1f600}".into(),
    };
    assert_codec!(ErrorBody, error, mutants);
    assert_codec!(
        StreamEvent,
        StreamEvent::Incumbent {
            value: 7,
            elapsed_us: u64::MAX
        },
        mutants
    );
    assert_codec!(StreamEvent, StreamEvent::Result(response.clone()), mutants);
    assert_codec!(
        StreamEvent,
        StreamEvent::Error {
            status: 408,
            body: error.clone()
        },
        mutants
    );

    let listing = service.cache_entries();
    assert_eq!(listing.len(), 1);
    assert_codec!(Vec<CacheEntryInfo>, listing, mutants);
    let inspect = service.inspect(response.fingerprint);
    assert_codec!(InspectResponse, inspect, mutants);
    assert_codec!(WireSearchEntry, inspect.entries[0].clone(), mutants);

    // In-process searches leave flight records.
    assert!(service.search(&solved).unwrap().cached);
    let recorded: DebugRequestsResponse = service.debug_requests();
    assert!(!recorded.recent.is_empty());
    assert_codec!(DebugRequestsResponse, recorded, mutants);
    assert_codec!(FlightRecordInfo, recorded.recent[0].clone(), mutants);
    assert_codec!(
        StageTimingInfo,
        recorded.recent[0].stages[0].clone(),
        mutants
    );
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
        memo_drops: 5,
        depth: Some(17),
    };
    assert_codec!(InflightInfo, waiting, mutants);
    assert_codec!(
        InflightResponse,
        InflightResponse {
            inflight: vec![waiting]
        },
        mutants
    );
    let series = SeriesWindow {
        name: "requests_per_s".into(),
        samples: vec![0.0, 6976.25, 1e15, 1.5e-7],
        last: 1.5e-7,
        min: 0.0,
        max: 1e15,
        avg: 250_000_000_001_744.06,
        p50: 6976.25,
        p95: 1e15,
    };
    assert_codec!(SeriesWindow, series, mutants);
    assert_codec!(
        TimeSeriesWindow,
        TimeSeriesWindow {
            interval_ms: 1000,
            ticks: 4,
            latest_unix_ms: 1_790_000_000_000,
            series: vec![series]
        },
        mutants
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
    assert_codec!(TraceSpanInfo, span, mutants);
    assert_codec!(
        TraceAssemblyResponse,
        TraceAssemblyResponse {
            trace_id: "00112233445566778899aabbccddeeff".into(),
            nodes: vec!["a".into()],
            spans: vec![span]
        },
        mutants
    );
    assert_codec!(
        LogLevelBody,
        LogLevelBody {
            level: "debug".into()
        },
        mutants
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

/// Decoding a request allocates exactly the buffers the decoded request
/// owns — its name, its block list, and each block's name, devices and deps
/// when not empty — and nothing else: no key, no tree, no scratch. Growing a
/// list is a reallocation of the list's own buffer, not a fresh allocation.
#[test]
fn decoding_a_request_allocates_only_what_it_owns() {
    fn owned_buffers(request: &SearchRequest) -> u64 {
        let placement = &request.placement;
        let owned = |len: usize| u64::from(len > 0);
        owned(placement.name().len())
            + owned(placement.num_blocks())
            + placement
                .blocks()
                .iter()
                .map(|b| owned(b.name.len()) + owned(b.devices.len()) + owned(b.deps.len()))
                .sum::<u64>()
    }
    for kind in ShapeKind::all() {
        let request = request(kind, 8);
        for text in [
            serde_json::to_string(&request).unwrap(),
            serde_json::to_string_pretty(&request).unwrap(),
        ] {
            let (decoded, (allocs, _)) =
                counting(|| serde_json::from_str::<SearchRequest>(&text).unwrap());
            assert_eq!(decoded, request);
            assert_eq!(allocs, owned_buffers(&decoded), "{kind:?}");
        }
    }
}

/// Answering a cache hit — canonical labeling, lookup, translation and the
/// written body — makes the same number of fresh allocations for V4 at 8 and
/// at 32 micro-batches, and the longer body only costs its buffer's
/// doublings. The translation it replaced cloned every block's device list.
#[test]
fn answering_a_hit_allocates_nothing_per_block() {
    let service = service();
    let answer_hit = |request: &SearchRequest| {
        counting(|| {
            let answer = service.answer(request).unwrap();
            let mut body = String::new();
            answer.write_json(&mut body);
            body
        })
    };
    let small = request(ShapeKind::V, 8);
    let large = request(ShapeKind::V, 32);
    for request in [&small, &large] {
        assert!(!service.search(request).unwrap().cached);
        // Warm whatever the daemon sizes on first use.
        answer_hit(request);
    }
    let (small_body, (small_allocs, small_reallocs)) = answer_hit(&small);
    let (large_body, (large_allocs, large_reallocs)) = answer_hit(&large);
    assert!(small_body.contains("\"cached\":true"));
    assert!(large_body.len() > 3 * small_body.len());
    assert_eq!(small_allocs, large_allocs, "fresh allocations");
    let doublings = (large_body.len() / small_body.len()).ilog2() as u64 + 1;
    assert!(
        large_reallocs <= small_reallocs + doublings,
        "{small_reallocs} reallocations for {} bytes, {large_reallocs} for {}",
        small_body.len(),
        large_body.len()
    );
}

// ---------------------------------------------------------------------------
// The answer writer against the translation it replaced
// ---------------------------------------------------------------------------

/// The translation the daemon ran before `service::answer`, verbatim: every
/// block cloned out of the entry under the request's stage numbering and
/// sorted by `Schedule::new`, the utilization rows re-indexed to the
/// request's devices.
fn replaced_translation(
    entry: &CachedSearch,
    canon: &CanonicalPlacement,
    original: &PlacementSpec,
    cached: bool,
    coalesced: bool,
) -> SearchResponse {
    let inv_block = canon.inverse_block_perm();
    let blocks = entry
        .schedule
        .blocks()
        .iter()
        .map(|b| scheduled_block(original, inv_block[b.stage], b.micro_batch, b.start))
        .collect();
    let mut schedule = Schedule::new(
        original.num_devices(),
        entry.schedule.num_micro_batches(),
        blocks,
    );
    if let Some(span) = entry.schedule.repetend() {
        schedule = schedule.with_repetend(span);
    }
    let mut utilization = entry.utilization.clone();
    let mut devices = Vec::with_capacity(utilization.devices.len());
    for (original_device, &canonical_device) in canon.device_perm.iter().enumerate() {
        if let Some(row) = entry.utilization.devices.get(canonical_device) {
            let mut row = row.clone();
            row.device = original_device;
            devices.push(row);
        }
    }
    utilization.devices = devices;
    SearchResponse {
        fingerprint: entry.fingerprint,
        cached,
        coalesced,
        num_micro_batches: entry.schedule.num_micro_batches(),
        period: entry.period,
        repetend_micro_batches: entry.repetend_micro_batches,
        bubble_rate: entry.bubble_rate,
        schedule,
        utilization,
        search_millis: if cached { 0 } else { entry.search_millis },
    }
}

/// A random valid placement: one to four devices, one to eight blocks of
/// either kind on one or two devices, each depending on up to two earlier
/// blocks.
fn random_placement(rng: &mut Rng, tag: usize) -> PlacementSpec {
    let devices = 1 + rng.below(4);
    let mut b = PlacementSpec::builder(format!("random-{tag}"), devices);
    if rng.below(3) == 0 {
        b.set_memory_capacity(Some(rng.below(16) as i64));
    }
    for i in 0..1 + rng.below(8) {
        let kind = *rng.pick(&[BlockKind::Forward, BlockKind::Backward]);
        let mut on = vec![rng.below(devices)];
        let other = rng.below(devices);
        if rng.below(3) == 0 && !on.contains(&other) {
            on.push(other);
        }
        let mut deps = Vec::new();
        for _ in 0..if i == 0 { 0 } else { rng.below(3) } {
            let dep = rng.below(i);
            if !deps.contains(&dep) {
                deps.push(dep);
            }
        }
        let memory = rng.below(5) as i64 - 2;
        let time = 1 + rng.below(9) as u64;
        b.push_block(
            BlockSpec::new(format!("b{i}"), kind, on, time, memory)
                .with_deps(deps)
                .with_flops(rng.below(5) as f64 * 1e9)
                .with_output_bytes(rng.below(4) as u64 * 512),
        )
        .unwrap();
    }
    b.build().unwrap()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn random_perm(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

/// A random topological order of the placement's blocks.
fn random_topo_order(rng: &mut Rng, placement: &PlacementSpec) -> Vec<usize> {
    let mut indegree: Vec<usize> = placement.blocks().iter().map(|b| b.deps.len()).collect();
    let mut ready: Vec<usize> = (0..indegree.len()).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(indegree.len());
    while !ready.is_empty() {
        let block = ready.swap_remove(rng.below(ready.len()));
        order.push(block);
        for dependent in placement.dependents(block) {
            indegree[dependent] -= 1;
            if indegree[dependent] == 0 {
                ready.push(dependent);
            }
        }
    }
    order
}

/// A float with an awkward decimal expansion, now and then a large one.
fn random_float(rng: &mut Rng) -> f64 {
    let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    if rng.below(8) == 0 {
        unit * 1e17
    } else {
        unit
    }
}

/// A cache entry for `placement` with a random schedule in canonical
/// labeling. Starts are drawn from a short horizon, so many blocks share one
/// and the answer's block order is decided by the `(stage, micro_batch)`
/// tie-break under the request's own numbering. Now and then the last
/// device has no utilization row, and there is no repetend.
fn random_entry(rng: &mut Rng, placement: &PlacementSpec) -> CachedSearch {
    use tessel::core::schedule::RepetendSpan;
    use tessel::runtime::metrics::{DeviceUtilization, UtilizationSummary};
    let canon = placement.canonicalize();
    let canonical = canon.placement;
    let micro_batches = 1 + rng.below(4);
    let horizon = 1 + rng.below(2 * canonical.num_blocks()) as u64;
    let mut blocks = Vec::new();
    for micro_batch in 0..micro_batches {
        for stage in 0..canonical.num_blocks() {
            let start = rng.next() % horizon;
            blocks.push(scheduled_block(&canonical, stage, micro_batch, start));
        }
    }
    let mut schedule = Schedule::new(canonical.num_devices(), micro_batches, blocks);
    if rng.below(4) != 0 {
        schedule = schedule.with_repetend(RepetendSpan {
            start: rng.below(5) as u64,
            period: 1 + rng.below(20) as u64,
            copies: rng.below(4),
        });
    }
    let rows = canonical.num_devices() - usize::from(rng.below(5) == 0);
    let devices = (0..rows)
        .map(|device| DeviceUtilization {
            device,
            busy: rng.below(100) as u64,
            comm: rng.below(10) as u64,
            wait: rng.below(100) as u64,
            busy_fraction: random_float(rng),
            comm_fraction: random_float(rng),
            wait_fraction: random_float(rng),
            peak_memory: rng.below(40) as i64 - 20,
        })
        .collect();
    CachedSearch {
        fingerprint: canon.fingerprint,
        params: tessel::service::cache::CacheParams {
            num_micro_batches: micro_batches,
            max_repetend_micro_batches: 1 + rng.below(micro_batches),
        },
        canonical_placement: canonical,
        schedule,
        period: 1 + rng.below(50) as u64,
        repetend_micro_batches: 1 + rng.below(micro_batches),
        bubble_rate: random_float(rng),
        utilization: UtilizationSummary {
            makespan: rng.below(500) as u64,
            num_micro_batches: micro_batches,
            mean_busy_fraction: random_float(rng),
            max_wait_fraction: random_float(rng),
            devices,
        },
        solver: Default::default(),
        search_millis: 1 + rng.below(1000) as u64,
    }
}

/// The answer oracle: `cases` requests, each a random relabeling (devices
/// and topological block order) of one of sixteen random placements whose
/// random entries a daemon restored from its journal. For every request:
///
/// * the request's canonical placement is the entry's — the comparison a
///   cache hit trusts the fingerprint for;
/// * the answer written straight from the entry is byte for byte
///   `serde_json::to_string` of the response the replaced translation built,
///   and `Answer::to_response` is that response — as a miss, a hit and a
///   coalesced answer;
/// * the daemon's `/v1/search` body, over HTTP, is those bytes for a hit;
/// * every tenth request's streamed result is that response too.
///
/// Real searches answered as a miss and then as a hit of a relabeling go the
/// same way: each of the five shapes once.
fn answers_match_the_replaced_translation(cases: usize) {
    let seed = fuzz_seed();
    eprintln!("answer oracle seed: {seed:#x}");
    let mut rng = Rng(seed ^ 0xa45e_0b1e | 1);
    let cache = ShardedCache::new(&CacheConfig::default());
    let mut pool: Vec<(PlacementSpec, Arc<CachedSearch>)> = Vec::new();
    while pool.len() < 16 {
        let placement = random_placement(&mut rng, pool.len());
        let entry = Arc::new(random_entry(&mut rng, &placement));
        let key = tessel::service::cache::CacheKey::new(entry.fingerprint, &entry.params);
        if cache.get(key).is_none() {
            cache.insert(key, entry.clone());
            pool.push((placement, entry));
        }
    }
    let dir = std::env::temp_dir().join(format!("tessel-answer-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    cache.save(&journal).unwrap();
    let service = Arc::new(
        ScheduleService::new(ServiceConfig {
            cache_path: Some(journal),
            default_max_repetend: 2,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    assert_eq!(service.cache_entries().len(), pool.len(), "journal replay");
    let server = HttpServer::serve(
        service.clone(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            sample_interval_ms: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(&addr).unwrap();
    let mut post = |request: &SearchRequest| {
        let body = serde_json::to_string(request).unwrap();
        client.call("POST", "/v1/search", Some(&body)).unwrap()
    };

    for case in 0..cases {
        let (placement, entry) = rng.pick(&pool).clone();
        let devices = random_perm(&mut rng, placement.num_devices());
        let order = random_topo_order(&mut rng, &placement);
        let request = SearchRequest {
            num_micro_batches: Some(entry.params.num_micro_batches),
            max_repetend_micro_batches: Some(entry.params.max_repetend_micro_batches),
            ..SearchRequest::for_placement(placement.permuted(&devices, &order).unwrap())
        };
        let context = format!(
            "TESSEL_FUZZ_SEED={seed:#x} case {case}: {}",
            serde_json::to_string(&request).unwrap()
        );
        let canon = request.placement.canonicalize();
        assert_eq!(canon.placement, entry.canonical_placement, "{context}");
        let expected = |cached, coalesced| {
            replaced_translation(&entry, &canon, &request.placement, cached, coalesced)
        };
        for (cached, coalesced) in [(false, false), (true, false), (false, true)] {
            let (labeling, _) = request
                .placement
                .canonical_labeling_budgeted(DEFAULT_NODE_BUDGET);
            let answer = Answer::new(
                entry.clone(),
                labeling,
                &request.placement,
                cached,
                coalesced,
            );
            let mut body = String::new();
            answer.write_json(&mut body);
            let owned = expected(cached, coalesced);
            assert_eq!(
                body,
                serde_json::to_string(&owned).unwrap(),
                "cached {cached}, coalesced {coalesced} — {context}"
            );
            assert_eq!(answer.to_response(), owned, "{context}");
        }
        let hit = expected(true, false);
        let (status, body) = post(&request);
        assert_eq!(status, 200, "{body} — {context}");
        assert_eq!(body, serde_json::to_string(&hit).unwrap(), "{context}");
        if case % 10 == 0 {
            assert_eq!(streamed(&addr, &request), hit, "streamed — {context}");
        }
    }

    for kind in ShapeKind::all() {
        let miss = request(kind, 3);
        let (status, body) = post(&miss);
        assert_eq!(status, 200, "{kind:?}: {body}");
        let canon = miss.placement.canonicalize();
        let wire = service.inspect(canon.fingerprint).entries[0].clone();
        let entry = CachedSearch {
            fingerprint: wire.fingerprint,
            params: wire.params,
            canonical_placement: canon.placement.clone(),
            schedule: wire.schedule,
            period: wire.period,
            repetend_micro_batches: wire.repetend_micro_batches,
            bubble_rate: wire.bubble_rate,
            utilization: wire.utilization,
            solver: wire.solver,
            search_millis: wire.search_millis,
        };
        let owned = replaced_translation(&entry, &canon, &miss.placement, false, false);
        assert_eq!(
            body,
            serde_json::to_string(&owned).unwrap(),
            "{kind:?} miss"
        );

        let devices = random_perm(&mut rng, miss.placement.num_devices());
        let order = random_topo_order(&mut rng, &miss.placement);
        let relabeled = SearchRequest {
            placement: miss.placement.permuted(&devices, &order).unwrap(),
            ..miss
        };
        let canon = relabeled.placement.canonicalize();
        assert_eq!(canon.placement, entry.canonical_placement, "{kind:?}");
        let hit = replaced_translation(&entry, &canon, &relabeled.placement, true, false);
        let (status, body) = post(&relabeled);
        assert_eq!(status, 200, "{kind:?}: {body}");
        assert_eq!(body, serde_json::to_string(&hit).unwrap(), "{kind:?} hit");
    }
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The response a streamed search of `request` ends with.
fn streamed(addr: &str, request: &SearchRequest) -> SearchResponse {
    let body = serde_json::to_string(request).unwrap();
    let (status, last) = http_call_streaming(addr, "/v1/search?stream=1", &body, |_| {}).unwrap();
    assert_eq!(status, 200, "{last}");
    match serde_json::from_str(&last).unwrap() {
        StreamEvent::Result(response) => response,
        other => panic!("stream ended with {other:?}"),
    }
}

#[test]
fn answer_oracle_on_300_relabelings() {
    answers_match_the_replaced_translation(300);
}

/// `TESSEL_FUZZ_SEED=<seed> cargo test --release --test json_codec answer_oracle -- --ignored`.
#[test]
#[ignore = "10k-request answer oracle; run explicitly or via the fingerprint-stress CI job"]
fn answer_oracle_on_10k_relabelings() {
    answers_match_the_replaced_translation(10_000);
}
