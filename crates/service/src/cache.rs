//! Sharded, lock-striped LRU result cache with append-only journal
//! persistence.
//!
//! Keys combine the canonical placement [`Fingerprint`] with the search
//! parameters, so the same placement searched for different micro-batch
//! counts occupies distinct entries. The key space is striped across
//! independently locked shards: concurrent requests for different placements
//! never contend on the same mutex, and the per-shard LRU bookkeeping stays
//! trivial.
//!
//! Persistence is an **append-only journal** ([`CacheJournal`]): every insert
//! appends one JSON record (one line) instead of rewriting the whole cache,
//! and every [`CacheJournal::compact_every`] appends the journal is compacted
//! back to one record per live entry (atomically: temp file + rename). Replay
//! tolerates a truncated tail — a daemon killed mid-append recovers every
//! complete record and drops only the torn last line — while a file whose
//! *first* record is unreadable is treated as an incompatible snapshot from
//! an older daemon (cold start, not crash loop).
//!
//! An entry's JSON is rendered **once**. The append encodes the entry it is
//! handed and the cache keeps that text next to the value (the entry's
//! *body*); compaction then writes each live entry as its key, its hit count
//! and the body it already holds, so rewriting the journal copies bytes
//! instead of cloning and re-encoding every entry. Entries that arrive
//! without an append (replay) are encoded by the first
//! compaction that meets them and keep the result. The bodies cost memory
//! the size of the journal's live records (about 12 KB per entry for a
//! 4-device placement at 8 micro-batches).

use crate::wire::CacheEntryInfo;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tessel_core::fingerprint::Fingerprint;
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::Schedule;
use tessel_runtime::metrics::UtilizationSummary;
use tessel_solver::SolverTotals;

/// The search parameters that participate in cache identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Micro-batches the composed schedule covers.
    pub num_micro_batches: usize,
    /// `NR` cap the search ran with.
    pub max_repetend_micro_batches: usize,
}

/// A cache key: canonical fingerprint plus parameter hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Builds the key for `fingerprint` searched under `params`.
    #[must_use]
    pub fn new(fingerprint: Fingerprint, params: &CacheParams) -> Self {
        let mut h = fingerprint.0 ^ 0x5ca1_ab1e_0000_0001;
        for v in [
            params.num_micro_batches as u64,
            params.max_repetend_micro_batches as u64,
        ] {
            h ^= v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 32;
        }
        CacheKey(h)
    }

    /// The raw 64-bit key (used by persistence).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One cached search result, stored in **canonical** labeling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedSearch {
    /// Canonical fingerprint of the placement.
    pub fingerprint: Fingerprint,
    /// Parameters the search ran with.
    pub params: CacheParams,
    /// The canonical placement. Kept to re-check a journaled entry's
    /// fingerprint on replay and to size the entry in cache listings; the
    /// exact canonical labeling makes fingerprint equality trustworthy, so
    /// lookups never compare it and the inspect endpoint does not serve it
    /// (see [`crate::wire::WireSearchEntry`]).
    pub canonical_placement: PlacementSpec,
    /// The composed schedule, in canonical labeling.
    pub schedule: Schedule,
    /// Winning repetend period `t_R`.
    pub period: u64,
    /// `NR` of the winning repetend.
    pub repetend_micro_batches: usize,
    /// Steady-state bubble rate of the repetend.
    pub bubble_rate: f64,
    /// Simulated per-device utilization, in canonical labeling.
    pub utilization: UtilizationSummary,
    /// Aggregate solver effort of the original search (nodes, prunes, and
    /// the work-stealing steal/shared-memo counters), served by the inspect
    /// endpoint.
    pub solver: SolverTotals,
    /// Wall-clock milliseconds the search took.
    pub search_millis: u64,
}

#[derive(Debug)]
struct Entry {
    value: Arc<CachedSearch>,
    /// `value` as compact JSON, once the journal has rendered it.
    body: Option<Arc<str>>,
    last_used: u64,
    hits: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// Configuration of the [`ShardedCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to at least 1).
    pub shards: usize,
    /// Maximum number of entries per shard before LRU eviction kicks in.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity_per_shard: 128,
        }
    }
}

/// The sharded, lock-striped LRU cache.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    evictions: AtomicU64,
}

/// One journal record as replay reads it. Records are written by
/// [`write_record`], which produces the bytes this type's derived encoding
/// would.
#[derive(Debug, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
struct PersistedEntry {
    key: u64,
    hits: u64,
    entry: CachedSearch,
}

/// Writes one journal line, `{"key":K,"hits":H,"entry":BODY}` and a newline,
/// where `body` is the entry's compact JSON.
fn write_record(out: &mut impl Write, key: u64, hits: u64, body: &str) -> std::io::Result<()> {
    write!(out, "{{\"key\":{key},\"hits\":{hits},\"entry\":")?;
    out.write_all(body.as_bytes())?;
    out.write_all(b"}\n")
}

/// `entry` as compact JSON, ready to be kept as an entry's body.
fn render(entry: &CachedSearch) -> Arc<str> {
    serde_json::to_string(entry)
        .expect("encoding never fails")
        .into()
}

impl ShardedCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: config.capacity_per_shard.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard> {
        // High bits: the low bits already went into shard-local hashing.
        let index = (key.raw() >> 48) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Looks up `key`, bumping its LRU position and hit count.
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<Arc<CachedSearch>> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.entries.get_mut(&key.raw())?;
        entry.last_used = tick;
        entry.hits += 1;
        Some(entry.value.clone())
    }

    /// Inserts (or replaces) `value` under `key`, evicting the least recently
    /// used entry of the shard if it is full.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedSearch>) {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.entries.contains_key(&key.raw()) && shard.entries.len() >= self.capacity_per_shard
        {
            if let Some((&lru, _)) = shard
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
            {
                shard.entries.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(
            key.raw(),
            Entry {
                value,
                body: None,
                last_used: tick,
                hits: 0,
            },
        );
    }

    /// Number of entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").entries.len())
            .sum()
    }

    /// `true` if no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total LRU evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Summary rows for every cached entry, most recently used first.
    #[must_use]
    pub fn list(&self) -> Vec<CacheEntryInfo> {
        let mut rows: Vec<(u64, CacheEntryInfo)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            for entry in shard.entries.values() {
                let v = &entry.value;
                rows.push((
                    entry.last_used,
                    CacheEntryInfo {
                        fingerprint: v.fingerprint,
                        num_micro_batches: v.params.num_micro_batches,
                        max_repetend_micro_batches: v.params.max_repetend_micro_batches,
                        period: v.period,
                        bubble_rate: v.bubble_rate,
                        num_devices: v.canonical_placement.num_devices(),
                        num_blocks: v.canonical_placement.num_blocks(),
                        hits: entry.hits,
                        search_millis: v.search_millis,
                    },
                ));
            }
        }
        rows.sort_by(|(ta, a), (tb, b)| {
            tb.cmp(ta)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
                .then_with(|| a.num_micro_batches.cmp(&b.num_micro_batches))
        });
        rows.into_iter().map(|(_, info)| info).collect()
    }

    /// Every cached entry for `fingerprint`, most recently used first.
    #[must_use]
    pub fn entries_for(&self, fingerprint: Fingerprint) -> Vec<Arc<CachedSearch>> {
        let mut rows: Vec<(u64, Arc<CachedSearch>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            for entry in shard.entries.values() {
                if entry.value.fingerprint == fingerprint {
                    rows.push((entry.last_used, entry.value.clone()));
                }
            }
        }
        rows.sort_by_key(|(t, _)| std::cmp::Reverse(*t));
        rows.into_iter().map(|(_, v)| v).collect()
    }

    /// Keeps `body`, the JSON of `value`, with the entry under `key` — if
    /// that entry still holds this very `value` (it may have been replaced or
    /// evicted since).
    fn keep_body(&self, key: CacheKey, value: &CachedSearch, body: Arc<str>) {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        if let Some(entry) = shard.entries.get_mut(&key.raw()) {
            if std::ptr::eq(Arc::as_ptr(&entry.value), value) {
                entry.body = Some(body);
            }
        }
    }

    /// Writes the whole cache as a compacted journal to `path` (one JSON
    /// record per line, sorted by key; atomically: temp file + rename).
    ///
    /// The shard locks are held only to take references to each entry; the
    /// lines are then written from the kept bodies, and an entry without one
    /// is encoded here and keeps the result.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut records = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            for (&key, entry) in &shard.entries {
                records.push((key, entry.hits, entry.body.clone(), entry.value.clone()));
            }
        }
        records.sort_unstable_by_key(|&(key, ..)| key);
        let tmp = path.with_extension("tmp");
        let mut file = std::io::BufWriter::with_capacity(64 * 1024, std::fs::File::create(&tmp)?);
        for (key, hits, body, value) in records {
            let body = body.unwrap_or_else(|| {
                let body = render(&value);
                self.keep_body(CacheKey(key), &value, body.clone());
                body
            });
            write_record(&mut file, key, hits, &body)?;
        }
        file.flush()?;
        drop(file);
        std::fs::rename(&tmp, path)
    }

    /// Replays a journal previously written by [`ShardedCache::save`] and
    /// [`CacheJournal::append`]. Returns the number of records restored; a
    /// missing file restores nothing and is not an error.
    ///
    /// Later records win over earlier ones for the same key (appends are
    /// newer than the compacted prefix). A torn or corrupt **tail** — the
    /// signature of a crash mid-append — stops the replay at the last good
    /// record with a warning instead of failing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "not found". A journal whose
    /// *first* record is unreadable fails with `InvalidData` (an incompatible
    /// format, e.g. a pre-journal whole-file snapshot).
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        let outcome = self.load_filtered(path, &mut |_| true)?;
        Ok(outcome.restored)
    }

    /// As [`ShardedCache::load`], but each decoded record is offered to
    /// `keep` before insertion; records it rejects are counted in
    /// [`LoadOutcome::dropped`] instead of restored. Rejected records still
    /// count as "good" for torn-tail detection — a stale entry is a valid
    /// record we choose not to trust, not corruption.
    ///
    /// # Errors
    ///
    /// As [`ShardedCache::load`].
    pub fn load_filtered(
        &self,
        path: &Path,
        keep: &mut dyn FnMut(&CachedSearch) -> bool,
    ) -> std::io::Result<LoadOutcome> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadOutcome::default()),
            Err(e) => return Err(e),
        };
        let mut outcome = LoadOutcome::default();
        let mut decoded = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let record: PersistedEntry = match serde_json::from_str(line) {
                Ok(record) => record,
                Err(e) if decoded == 0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unreadable journal record: {e}"),
                    ));
                }
                Err(_) => {
                    tessel_obs::warn(
                        "cache",
                        "cache journal has a torn tail; stopping at the last good record",
                        &[
                            ("path", &path.display().to_string()),
                            ("recovered", &decoded.to_string()),
                        ],
                    );
                    break;
                }
            };
            decoded += 1;
            if !keep(&record.entry) {
                outcome.dropped += 1;
                continue;
            }
            let key = CacheKey(record.key);
            self.insert(key, Arc::new(record.entry));
            let mut shard = self.shard(key).lock().expect("cache shard lock");
            if let Some(entry) = shard.entries.get_mut(&record.key) {
                entry.hits = record.hits;
            }
            outcome.restored += 1;
        }
        Ok(outcome)
    }
}

/// What [`ShardedCache::load_filtered`] restored and rejected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Records inserted into the cache.
    pub restored: usize,
    /// Valid records rejected by the caller's filter.
    pub dropped: usize,
}

/// Append-only journal persistence for a [`ShardedCache`].
///
/// Each insert appends one record ([`CacheJournal::append`], O(entry) I/O)
/// instead of rewriting the whole cache; after
/// [`CacheJournal::compact_every`] appends the journal is rewritten to one
/// record per live entry. Hit counts persist at compaction time (appends
/// record an entry's hits as of its insert).
#[derive(Debug)]
pub struct CacheJournal {
    path: PathBuf,
    compact_every: usize,
    appends_since_compact: Mutex<usize>,
}

impl CacheJournal {
    /// A journal at `path`, compacting after every `compact_every` appends
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(path: PathBuf, compact_every: usize) -> Self {
        CacheJournal {
            path,
            compact_every: compact_every.max(1),
            appends_since_compact: Mutex::new(0),
        }
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends after which [`CacheJournal::append`] triggers a compaction.
    #[must_use]
    pub fn compact_every(&self) -> usize {
        self.compact_every
    }

    /// Replays the journal into `cache` (see [`ShardedCache::load`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedCache::load`].
    pub fn replay(&self, cache: &ShardedCache) -> std::io::Result<usize> {
        cache.load(&self.path)
    }

    /// Replays the journal into `cache`, dropping records rejected by `keep`
    /// (see [`ShardedCache::load_filtered`]). Used at startup to shed
    /// dead-weight entries whose stored fingerprint no longer matches what
    /// re-canonicalization produces — e.g. keys minted by an older labeling
    /// scheme.
    ///
    /// # Errors
    ///
    /// As [`ShardedCache::load`].
    pub fn replay_filtered(
        &self,
        cache: &ShardedCache,
        keep: &mut dyn FnMut(&CachedSearch) -> bool,
    ) -> std::io::Result<LoadOutcome> {
        cache.load_filtered(&self.path, keep)
    }

    /// Appends one freshly inserted entry, compacting from `cache` when the
    /// append budget is used up. Returns `true` when this call compacted.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(
        &self,
        cache: &ShardedCache,
        key: CacheKey,
        entry: &CachedSearch,
    ) -> std::io::Result<bool> {
        let body = render(entry);
        let mut line = Vec::with_capacity(body.len() + 64);
        write_record(&mut line, key.raw(), 0, &body)?;
        cache.keep_body(key, entry, body);
        // The append counter doubles as the serialization point: concurrent
        // appenders write whole lines one at a time.
        let mut appends = self
            .appends_since_compact
            .lock()
            .expect("journal append lock");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(&line)?;
        *appends += 1;
        if *appends >= self.compact_every {
            // The budget restarts whether or not the compaction succeeds: the
            // record above already landed, and a compaction that cannot write
            // its temp file must not be retried on every later append.
            *appends = 0;
            cache.save(&self.path)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Compacts the journal to one record per live entry now.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(&self, cache: &ShardedCache) -> std::io::Result<()> {
        let mut appends = self
            .appends_since_compact
            .lock()
            .expect("journal append lock");
        cache.save(&self.path)?;
        *appends = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_core::ir::BlockKind;

    fn sample(fp: u64, n: usize) -> Arc<CachedSearch> {
        let mut b = PlacementSpec::builder("p", 1);
        b.add_block("f0", BlockKind::Forward, [0], 1, 0, [])
            .unwrap();
        let placement = b.build().unwrap();
        let schedule = Schedule::new(
            1,
            1,
            vec![tessel_core::schedule::scheduled_block(&placement, 0, 0, 0)],
        );
        Arc::new(CachedSearch {
            fingerprint: Fingerprint(fp),
            params: CacheParams {
                num_micro_batches: n,
                max_repetend_micro_batches: 2,
            },
            canonical_placement: placement,
            schedule,
            period: 1,
            repetend_micro_batches: 1,
            bubble_rate: 0.0,
            utilization: UtilizationSummary {
                makespan: 1,
                num_micro_batches: 1,
                mean_busy_fraction: 1.0,
                max_wait_fraction: 0.0,
                devices: Vec::new(),
            },
            solver: SolverTotals::default(),
            search_millis: 5,
        })
    }

    fn key(fp: u64, n: usize) -> CacheKey {
        CacheKey::new(
            Fingerprint(fp),
            &CacheParams {
                num_micro_batches: n,
                max_repetend_micro_batches: 2,
            },
        )
    }

    #[test]
    fn get_put_and_hit_counting() {
        let cache = ShardedCache::new(&CacheConfig::default());
        assert!(cache.is_empty());
        assert!(cache.get(key(1, 8)).is_none());
        cache.insert(key(1, 8), sample(1, 8));
        cache.insert(key(2, 8), sample(2, 8));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(key(1, 8)).unwrap().fingerprint, Fingerprint(1));
        assert_eq!(cache.get(key(1, 8)).unwrap().fingerprint, Fingerprint(1));
        let rows = cache.list();
        assert_eq!(rows.len(), 2);
        let row1 = rows
            .iter()
            .find(|r| r.fingerprint == Fingerprint(1))
            .unwrap();
        assert_eq!(row1.hits, 2);
        // Distinct parameters are distinct entries.
        cache.insert(key(1, 4), sample(1, 4));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.entries_for(Fingerprint(1)).len(), 2);
    }

    #[test]
    fn lru_eviction_per_shard() {
        let cache = ShardedCache::new(&CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
        });
        cache.insert(key(1, 8), sample(1, 8));
        cache.insert(key(2, 8), sample(2, 8));
        // Touch 1 so 2 becomes the LRU victim.
        let _ = cache.get(key(1, 8));
        cache.insert(key(3, 8), sample(3, 8));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(key(1, 8)).is_some());
        assert!(cache.get(key(2, 8)).is_none());
        assert!(cache.get(key(3, 8)).is_some());
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("snapshot-{}.json", std::process::id()));
        let cache = ShardedCache::new(&CacheConfig::default());
        cache.insert(key(7, 8), sample(7, 8));
        let _ = cache.get(key(7, 8));
        cache.save(&path).unwrap();

        let warm = ShardedCache::new(&CacheConfig::default());
        assert_eq!(warm.load(&path).unwrap(), 1);
        let entry = warm.get(key(7, 8)).expect("restored entry");
        assert_eq!(entry.fingerprint, Fingerprint(7));
        // Hit counts survive the restart (the restore itself is not a hit).
        let row = &warm.list()[0];
        assert_eq!(row.hits, 2);

        // A missing snapshot restores nothing.
        let cold = ShardedCache::new(&CacheConfig::default());
        assert_eq!(cold.load(&dir.join("absent.json")).unwrap(), 0);
        let _ = std::fs::remove_file(&path);
    }

    fn journal_dir() -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_appends_do_not_rewrite_and_replay_in_order() {
        let path = journal_dir().join(format!("journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ShardedCache::new(&CacheConfig::default());
        let journal = CacheJournal::new(path.clone(), 100);
        for fp in 1..=3u64 {
            cache.insert(key(fp, 8), sample(fp, 8));
            assert!(!journal.append(&cache, key(fp, 8), &sample(fp, 8)).unwrap());
        }
        // Three appends → three lines; no compaction rewrote the file.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);

        let warm = ShardedCache::new(&CacheConfig::default());
        assert_eq!(warm.load(&path).unwrap(), 3);
        for fp in 1..=3u64 {
            assert_eq!(warm.get(key(fp, 8)).unwrap().fingerprint, Fingerprint(fp));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_compacts_after_the_append_budget() {
        let path = journal_dir().join(format!("compact-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ShardedCache::new(&CacheConfig::default());
        let journal = CacheJournal::new(path.clone(), 2);
        cache.insert(key(1, 8), sample(1, 8));
        assert!(!journal.append(&cache, key(1, 8), &sample(1, 8)).unwrap());
        // Re-inserting the same key twice would leave duplicate journal
        // lines; the second append hits the budget and compacts back to one
        // line per live entry.
        cache.insert(key(1, 8), sample(1, 8));
        assert!(journal.append(&cache, key(1, 8), &sample(1, 8)).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_after_replay_repairs_a_torn_journal() {
        let path = journal_dir().join(format!("repair-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ShardedCache::new(&CacheConfig::default());
        let journal = CacheJournal::new(path.clone(), 100);
        for fp in 1..=2u64 {
            cache.insert(key(fp, 8), sample(fp, 8));
            journal.append(&cache, key(fp, 8), &sample(fp, 8)).unwrap();
        }
        // Crash mid-append: the last line is torn and has no newline.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 30]).unwrap();

        // Restart sequence: replay, compact (the repair), then append more.
        // Without the compaction the new record would concatenate onto the
        // torn line and be lost (with everything after it) on the NEXT
        // replay.
        let recovered = ShardedCache::new(&CacheConfig::default());
        let journal = CacheJournal::new(path.clone(), 100);
        assert_eq!(journal.replay(&recovered).unwrap(), 1);
        journal.compact(&recovered).unwrap();
        recovered.insert(key(3, 8), sample(3, 8));
        journal
            .append(&recovered, key(3, 8), &sample(3, 8))
            .unwrap();

        let next = ShardedCache::new(&CacheConfig::default());
        assert_eq!(next.load(&path).unwrap(), 2, "nothing silently dropped");
        assert!(next.get(key(1, 8)).is_some());
        assert!(next.get(key(3, 8)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incompatible_journal_head_is_invalid_data() {
        let path = journal_dir().join(format!("old-format-{}.json", std::process::id()));
        // A pre-journal whole-file snapshot (JSON array) must read as an
        // incompatible format, which the service turns into a warned cold
        // start.
        std::fs::write(&path, "[\n  {\"key\": 1}\n]\n").unwrap();
        let cache = ShardedCache::new(&CacheConfig::default());
        let err = cache.load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    /// Compaction as it was before entries kept their bodies: every live
    /// entry deep-cloned under its shard lock and encoded through the derived
    /// [`PersistedEntry`] encoding. [`ShardedCache::save`] must write the
    /// same bytes.
    fn reference_save(cache: &ShardedCache, path: &Path) {
        let mut records: Vec<PersistedEntry> = Vec::new();
        for shard in &cache.shards {
            let shard = shard.lock().unwrap();
            for (&key, entry) in &shard.entries {
                records.push(PersistedEntry {
                    key,
                    hits: entry.hits,
                    entry: (*entry.value).clone(),
                });
            }
        }
        records.sort_by_key(|r| r.key);
        let mut out = String::new();
        for record in &records {
            out.push_str(&serde_json::to_string(record).unwrap());
            out.push('\n');
        }
        std::fs::write(path, out).unwrap();
    }

    /// xorshift64*: the pinned random sequence of the differential below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        }
    }

    /// A random run of inserts (with and without an append), lookups,
    /// evictions, stale appends and compactions on a small cache: every
    /// appended line is the derived encoding of its record, and every
    /// compacted journal is the reference compaction's file byte for byte.
    #[test]
    fn kept_bodies_write_the_reference_bytes() {
        let dir = journal_dir();
        let path = dir.join(format!("differential-{}.jsonl", std::process::id()));
        let reference = dir.join(format!("differential-ref-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ShardedCache::new(&CacheConfig {
            shards: 2,
            capacity_per_shard: 3,
        });
        let journal = CacheJournal::new(path.clone(), 5);
        let mut rng = Rng(0x0005_eed5_ca1e);
        let (mut compactions, mut stale) = (0, 0);
        let mut check_compacted = || {
            reference_save(&cache, &reference);
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                std::fs::read_to_string(&reference).unwrap()
            );
            compactions += 1;
        };
        for _ in 0..600 {
            let (fp, n) = (rng.below(12), 2 + rng.below(3) as usize);
            let k = key(fp, n);
            match rng.below(10) {
                // The service path: insert, then journal the same value.
                0..=3 => {
                    let value = sample(fp, n);
                    cache.insert(k, value.clone());
                    let before = std::fs::read_to_string(&path).unwrap_or_default();
                    if journal.append(&cache, k, &value).unwrap() {
                        check_compacted();
                    } else {
                        let after = std::fs::read_to_string(&path).unwrap();
                        let line = serde_json::to_string(&PersistedEntry {
                            key: k.raw(),
                            hits: 0,
                            entry: (*value).clone(),
                        })
                        .unwrap();
                        assert_eq!(after, format!("{before}{line}\n"));
                    }
                }
                // An insert no append follows (replay).
                4 => cache.insert(k, sample(fp, n)),
                // An append of a value that is not the live one under `k`:
                // its body must not stand in for the live entry's.
                5 => {
                    let mut other = (*sample(fp, n)).clone();
                    other.search_millis = 1000 + rng.below(1000);
                    cache.insert(k, sample(fp, n));
                    stale += 1;
                    if journal.append(&cache, k, &other).unwrap() {
                        check_compacted();
                    }
                }
                6..=8 => {
                    let _ = cache.get(k);
                }
                _ => {
                    journal.compact(&cache).unwrap();
                    check_compacted();
                }
            }
        }
        assert!(compactions > 50 && stale > 20 && cache.evictions() > 50);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&reference);
    }

    /// A compaction that cannot write its temp file fails the append that
    /// triggered it, once per budget, and never loses an appended record.
    #[test]
    fn a_failing_compaction_is_not_retried_on_every_append() {
        let dir = journal_dir();
        let path = dir.join(format!("blocked-{}.jsonl", std::process::id()));
        let tmp = path.with_extension("tmp");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&tmp);
        std::fs::create_dir(&tmp).unwrap();
        let cache = ShardedCache::new(&CacheConfig::default());
        let journal = CacheJournal::new(path.clone(), 4);
        let mut failed = Vec::new();
        for fp in 1..=12u64 {
            cache.insert(key(fp, 8), sample(fp, 8));
            if journal.append(&cache, key(fp, 8), &sample(fp, 8)).is_err() {
                failed.push(fp);
            }
        }
        assert_eq!(failed, [4, 8, 12]);
        let warm = ShardedCache::new(&CacheConfig::default());
        assert_eq!(warm.load(&path).unwrap(), 12);
        std::fs::remove_dir(&tmp).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Every `(key, hits, value)` in `cache`, by key.
    fn contents(cache: &ShardedCache) -> Vec<(u64, u64, CachedSearch)> {
        let mut rows: Vec<_> = cache
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.lock().unwrap();
                shard
                    .entries
                    .iter()
                    .map(|(&key, entry)| (key, entry.hits, (*entry.value).clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort_by_key(|&(key, ..)| key);
        rows
    }

    /// The journal cut at every byte offset: a cut inside the first record
    /// is the incompatible-head cold start, and any other cut restores
    /// exactly the records whose text is complete — compacted and appended
    /// lines alike, hit counts included.
    #[test]
    fn a_journal_cut_at_every_byte_restores_its_complete_records() {
        let dir = journal_dir();
        let path = dir.join(format!("every-cut-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ShardedCache::new(&CacheConfig::default());
        let journal = CacheJournal::new(path.clone(), 100);
        let mut originals = Vec::new();
        for (fp, hits) in [(1u64, 2u64), (2, 0), (3, 0)] {
            if fp == 3 {
                // Records 1 and 2 are rewritten by the compaction, with the
                // hits record 1 has by then; record 3 is a plain append.
                journal.compact(&cache).unwrap();
            }
            cache.insert(key(fp, 8), sample(fp, 8));
            journal.append(&cache, key(fp, 8), &sample(fp, 8)).unwrap();
            for _ in 0..hits {
                let _ = cache.get(key(fp, 8));
            }
            originals.push((key(fp, 8).raw(), hits, (*sample(fp, 8)).clone()));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // The byte after each record's closing brace, in file order.
        let mut ends = Vec::new();
        let mut in_file_order = Vec::new();
        for line in text.lines() {
            ends.push(line.as_ptr() as usize - text.as_ptr() as usize + line.len());
            let record: PersistedEntry = serde_json::from_str(line).unwrap();
            in_file_order.push(
                originals
                    .iter()
                    .find(|(key, ..)| *key == record.key)
                    .unwrap()
                    .clone(),
            );
        }
        assert_eq!(ends.len(), 3);
        assert_eq!(in_file_order[2].0, key(3, 8).raw(), "the append comes last");
        for cut in 0..=text.len() {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            let replayed = ShardedCache::new(&CacheConfig::default());
            match replayed.load(&path) {
                Err(e) => {
                    assert!(cut > 0 && complete == 0, "cut {cut}: {e}");
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
                }
                Ok(restored) => {
                    assert!(cut == 0 || complete > 0, "cut {cut} restored {restored}");
                    assert_eq!(restored, complete, "cut {cut}");
                    let mut expected = in_file_order[..complete].to_vec();
                    expected.sort_by_key(|&(key, ..)| key);
                    assert!(contents(&replayed) == expected, "cut {cut}");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
