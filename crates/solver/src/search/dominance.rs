//! Dominance memoisation: the private per-search flat table and the
//! lock-free shared table parallel workers prune against.
//!
//! Two partial schedules covering the same set of tasks are compared by their
//! per-device finish-time vectors; the componentwise-worse one cannot lead to
//! a better completion and is pruned. The single-threaded search keeps one
//! private [`DominanceTable`]; the work-stealing parallel search shares one
//! [`SharedDominanceTable`] so a state explored by any worker prunes the
//! re-exploration every other worker would otherwise pay.
//!
//! # The lock-free shared table
//!
//! The shared table is open-addressing over fixed slots, each one atomic
//! seqlock word plus a packed record of `u64` words
//! (`[owner, mask_lo, mask_hi, f_0 .. f_{D-1}]`). The seqlock word encodes
//! the slot's lifecycle: `0` is free, an odd value means a writer is mid-
//! publication, an even value `≥ 2` means the record is published at that
//! version. Writers claim a slot by CAS (`0 → 1` for a fresh insert, an even
//! version `v → v + 1` to *upgrade* a record their vector strictly
//! dominates), fill the record with relaxed stores, then publish with a
//! release store of the next even version. An upgrade writer additionally
//! issues a **release fence between winning the CAS and rewriting the
//! payload**: the CAS orders nothing after its own store, so without the
//! fence a weakly-ordered machine could make the new payload words visible
//! to a reader whose version words still read `v` on both sides of its
//! copy. Readers load the word with acquire ordering, copy the record out,
//! then re-load the word behind an acquire fence: if the version moved, a
//! concurrent upgrade may have torn the copy, and the reader simply
//! discards it. The two fences pair fence-to-fence — a reader whose copy
//! includes any store sequenced after the writer's release fence must, after
//! its own acquire fence, observe the version at `v + 1` or later and
//! discard — so a copy that *validates* is never torn. This gives the two
//! properties the search leans on:
//!
//! * **Scan termination** — probing stops at the bounded window's end; an
//!   odd word means some record is mid-publication and is simply skipped.
//!   A slot, once taken, never returns to free, so a reader can trust the
//!   key it sees (the mask words are written once and never change; only
//!   the owner and finish-vector words are rewritten by upgrades).
//! * **Prune-only safety** — the only races a reader can lose are *missing*
//!   a record (one being published right now, or one it raced past) and
//!   *discarding* a copy whose version moved mid-read. Either way the search
//!   merely forfeits one pruning opportunity and (re)explores the subtree
//!   exactly as a cold cache would have. Conversely a copy that validates
//!   was fully published (release/acquire on the version word), so every
//!   prune decision is based on a complete finish vector. Identical proved
//!   makespans at every thread count follow.
//!
//! Insertion is bounded-probe: if every slot in the window is taken by an
//! incomparable record the vector is simply not memoised
//! (`memo_drops` counts these). The table never blocks, never
//! reallocates a slot array concurrently, and stores finish vectors inline
//! in the slot record — contiguous with the key words, so a dominance check
//! touches one cache line for typical device counts. The in-place upgrade
//! is what keeps the bounded window honest over long solves: branch-and-
//! bound revisits the same task mask with steadily better finish vectors,
//! and without replacement those generations of superseded records would
//! pile up until every window is full and memoisation collapses (an early
//! monotone FREE→CLAIMED→READY design did exactly that — a 4-thread mb6
//! solve exploded past 20× the serial node count on dropped memos). A lost
//! upgrade CAS is counted in `cas_retries` and degrades to "don't memoise",
//! never to waiting.
//!
//! Slot storage is carved into lazily-built segments: the segment directory
//! is pre-sized at construction, and each segment's slots are allocated and
//! zeroed by the first writer that CASes the segment's state from `ABSENT`
//! to `BUILDING`. Losers of that race skip the segment (degrading to "don't
//! memoise", never waiting), so construction stays O(directory) even with
//! multi-million-slot capacities while small solves never touch most
//! segments.

use super::simd;
use crate::stats::SolveStats;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// End of a slot's chain of overflow records.
const EMPTY_HEAD: u32 = u32::MAX;

/// One cache line of the serial table.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Line([u64; LINE_WORDS]);

const LINE_WORDS: usize = 8;
// Words of a slot's first line: the two halves of the scheduled-task mask,
// the slot's state (`0` free, else `OCCUPIED` plus the head of its overflow
// chain in the low 32 bits), then the first lanes of the finish vector the
// slot stores itself.
const MASK_LO: usize = 0;
const MASK_HI: usize = 1;
const META: usize = 2;
const INLINE: usize = 3;
const OCCUPIED: u64 = 1 << 32;

/// Slots a table starts with, allocated on its first probe.
const INITIAL_SLOTS: usize = 64;

/// Dominance memo keyed by the scheduled-task bitmask.
///
/// An open-addressing table whose slots are whole cache lines:
/// `[mask_lo, mask_hi, meta, f_0 .. f_{D-1}]` in `⌈(3 + D) / 8⌉` 64-byte
/// aligned lines, probed linearly. Key and first finish vector share a
/// line, so the common lookup — one vector stored under the mask — is
/// answered from the line the probe loaded anyway (the hot loop even starts
/// that load early, see [`DominanceTable::touch`]). Further pairwise
/// incomparable vectors of the same mask are chained from `meta` through
/// `[next, f_0 .. f_{D-1}]` records packed in one arena `Vec<u64>` with a
/// free list, so lookups, insertions and removals touch no allocator once
/// the table has warmed up. The table allocates nothing until its first
/// probe and doubles from [`INITIAL_SLOTS`]: Tessel's repetend enumeration
/// issues thousands of solves that never branch or branch a few dozen times,
/// and zeroing a table sized for the large ones used to cost more than the
/// solve.
///
/// The stored vectors of a mask form an antichain: a lookup prunes iff one of
/// them is componentwise `<=` the current vector, drops the ones the current
/// vector dominates, and records the current vector while fewer than `limit`
/// are stored (a refused insert counts in `memo_drops`).
///
/// This single-owner table is the *reference semantics* for the lock-free
/// [`SharedDominanceTable`]: the serial search uses it directly, and the
/// equivalence property tests assert the lock-free table makes the same
/// prune decisions.
#[derive(Debug, Clone)]
pub(super) struct DominanceTable {
    lines: Vec<Line>,
    /// Lines per slot.
    stride: usize,
    occupied: usize,
    arena: Vec<u64>,
    free_head: u32,
    devices: usize,
    stored: usize,
    limit: usize,
}

impl DominanceTable {
    pub(super) fn new(devices: usize, limit: usize) -> Self {
        DominanceTable {
            lines: Vec::new(),
            stride: (INLINE + devices).div_ceil(LINE_WORDS),
            occupied: 0,
            arena: Vec::new(),
            free_head: EMPTY_HEAD,
            devices,
            stored: 0,
            limit,
        }
    }

    pub(super) fn hash(mask: u128) -> u64 {
        let mut h = (mask as u64) ^ ((mask >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn slots(&self) -> usize {
        self.lines.len() / self.stride
    }

    /// First line of the slot holding `mask`, or of the free slot where its
    /// probe sequence ends (the table always keeps free slots).
    fn find_slot(&self, mask: u128) -> usize {
        let wrap = self.slots() - 1;
        let mut slot = (Self::hash(mask) as usize) & wrap;
        loop {
            let head = &self.lines[slot * self.stride].0;
            if head[META] == 0
                || (head[MASK_LO] == mask as u64 && head[MASK_HI] == (mask >> 64) as u64)
            {
                return slot * self.stride;
            }
            slot = (slot + 1) & wrap;
        }
    }

    /// Reads the first line of `mask`'s home slot and discards it, so the
    /// line is on its way from memory by the time the lookup that follows
    /// needs it. `black_box` keeps the otherwise dead load alive; nothing
    /// waits on its value, so several touches in a row miss in parallel.
    #[inline]
    pub(super) fn touch(&self, mask: u128) {
        if !self.lines.is_empty() {
            let slot = (Self::hash(mask) as usize) & (self.slots() - 1);
            std::hint::black_box(self.lines[slot * self.stride].0[MASK_LO]);
        }
    }

    fn grow(&mut self) {
        let doubled = (self.slots() * 2).max(INITIAL_SLOTS);
        let stride = self.stride;
        let old = std::mem::replace(
            &mut self.lines,
            vec![Line([0; LINE_WORDS]); doubled * stride],
        );
        for slot in old.chunks_exact(stride).filter(|slot| slot[0].0[META] != 0) {
            let head = &slot[0].0;
            let mask = u128::from(head[MASK_LO]) | u128::from(head[MASK_HI]) << 64;
            let base = self.find_slot(mask);
            self.lines[base..base + stride].copy_from_slice(slot);
        }
    }

    /// Compares the finish vector stored in `slot` itself — the lanes after
    /// the key in its first line, whole lines after that — with `finishes`:
    /// `(stored <= finishes, finishes <= stored)` componentwise.
    #[inline]
    fn compare_inline(slot: &[Line], finishes: &[u64]) -> (bool, bool) {
        let head = finishes.len().min(LINE_WORDS - INLINE);
        let (mut stored_le, mut current_le) =
            simd::compare_le(&slot[0].0[INLINE..INLINE + head], &finishes[..head]);
        for (line, lanes) in slot[1..].iter().zip(finishes[head..].chunks(LINE_WORDS)) {
            let (s, c) = simd::compare_le(&line.0[..lanes.len()], lanes);
            stored_le &= s;
            current_le &= c;
        }
        (stored_le, current_le)
    }

    /// Overwrites the finish vector stored in `slot` itself with `finishes`.
    #[inline]
    fn store_inline(slot: &mut [Line], finishes: &[u64]) {
        let head = finishes.len().min(LINE_WORDS - INLINE);
        slot[0].0[INLINE..INLINE + head].copy_from_slice(&finishes[..head]);
        for (line, lanes) in slot[1..]
            .iter_mut()
            .zip(finishes[head..].chunks(LINE_WORDS))
        {
            line.0[..lanes.len()].copy_from_slice(lanes);
        }
    }

    /// Arena record layout: `[next, f_0 .. f_{D-1}]`.
    fn rec_size(&self) -> usize {
        self.devices + 1
    }

    fn alloc_record(&mut self) -> u32 {
        if self.free_head != EMPTY_HEAD {
            let r = self.free_head;
            self.free_head = self.arena[r as usize * self.rec_size()] as u32;
            return r;
        }
        let r = (self.arena.len() / self.rec_size()) as u32;
        self.arena.resize(self.arena.len() + self.rec_size(), 0);
        r
    }

    /// Checks the current `finishes` vector against every vector stored for
    /// `mask`. Returns `true` if a stored vector dominates it (the caller
    /// should prune); otherwise removes the stored vectors it dominates and,
    /// capacity permitting, records it — a vector refused for capacity counts
    /// in `stats.memo_drops`.
    pub(super) fn check_and_insert(
        &mut self,
        mask: u128,
        finishes: &[u64],
        stats: &mut SolveStats,
    ) -> bool {
        if self.lines.is_empty() {
            self.grow();
        }
        let stride = self.stride;
        let mut base = self.find_slot(mask);
        if self.lines[base].0[META] == 0 {
            if self.stored >= self.limit {
                stats.memo_drops += 1;
                return false;
            }
            // Keep the probe sequences short: grow at 70% occupancy.
            if (self.occupied + 1) * 10 > self.slots() * 7 {
                self.grow();
                base = self.find_slot(mask);
            }
            let head = &mut self.lines[base].0;
            head[MASK_LO] = mask as u64;
            head[MASK_HI] = (mask >> 64) as u64;
            head[META] = OCCUPIED | u64::from(EMPTY_HEAD);
            Self::store_inline(&mut self.lines[base..base + stride], finishes);
            self.occupied += 1;
            self.stored += 1;
            return false;
        }

        let (stored_le, current_le) =
            Self::compare_inline(&self.lines[base..base + stride], finishes);
        if stored_le {
            // An at-least-as-good state was already explored.
            return true;
        }
        // A strictly worse inline vector is overwritten once the chain has
        // shown that nothing stored dominates the current one.
        let replace_inline = current_le;

        let rec = self.rec_size();
        let mut r = self.lines[base].0[META] as u32;
        let mut prev = EMPTY_HEAD;
        while r != EMPTY_HEAD {
            let at = r as usize * rec;
            let next = self.arena[at] as u32;
            let (stored_le, current_le) = simd::compare_le(&self.arena[at + 1..at + rec], finishes);
            if stored_le {
                return true;
            }
            if current_le {
                // The stored state is strictly worse: unlink and recycle it.
                if prev == EMPTY_HEAD {
                    self.lines[base].0[META] = OCCUPIED | u64::from(next);
                } else {
                    self.arena[prev as usize * rec] = u64::from(next);
                }
                self.arena[at] = u64::from(self.free_head);
                self.free_head = r;
                self.stored -= 1;
                r = next;
                continue;
            }
            prev = r;
            r = next;
        }

        if replace_inline {
            Self::store_inline(&mut self.lines[base..base + stride], finishes);
        } else if self.stored < self.limit {
            let new = self.alloc_record();
            let at = new as usize * rec;
            self.arena[at] = self.lines[base].0[META] & u64::from(u32::MAX);
            self.arena[at + 1..at + rec].copy_from_slice(finishes);
            self.lines[base].0[META] = OCCUPIED | u64::from(new);
            self.stored += 1;
        } else {
            stats.memo_drops += 1;
        }
        false
    }
}

/// Seqlock values of a slot's version word. `SLOT_FREE` is the initial
/// state; the first publisher CASes it to the odd `SLOT_CLAIMED`, writes the
/// record, and publishes `SLOT_READY` (the first even version). Upgrades CAS
/// an even version `v → v + 1`, rewrite the owner/finish words, and publish
/// `v + 2`. Odd always means "writer active"; a slot never returns to free.
const SLOT_FREE: u32 = 0;
const SLOT_CLAIMED: u32 = 1;
const SLOT_READY: u32 = 2;

/// Segment directory states. Monotonic (`ABSENT → BUILDING → READY`): scan
/// termination and prune-only safety rest on never going backwards.
const SEG_ABSENT: u8 = 0;
const SEG_BUILDING: u8 = 1;
const SEG_READY: u8 = 2;

/// Linear-probe window of the lock-free table. Insertion beyond the window
/// degrades to "don't memoise" rather than probing further: a bounded scan
/// keeps the worst-case lookup cost flat and the drop is prune-only.
pub(super) const PROBE_WINDOW: usize = 16;

/// Slots per lazily-built segment. Small enough that a segment's zeroing cost
/// (~a few hundred KiB) is negligible against any solve that needs it; large
/// enough that big solves touch few directory entries.
const SEGMENT_SLOTS: usize = 1 << 13;

/// One lazily-allocated stripe of slots: a seqlock version word per slot
/// plus the packed `u64` records `[owner, mask_lo, mask_hi, f_0 .. f_{D-1}]`.
#[derive(Debug)]
struct Segment {
    meta: Vec<AtomicU32>,
    data: Vec<AtomicU64>,
}

#[derive(Debug)]
struct SegmentCell {
    state: AtomicU8,
    segment: OnceLock<Segment>,
}

/// The lock-free shared dominance table of the work-stealing parallel search.
///
/// See the module docs for the full design and the memory-ordering argument.
/// Sharing is what makes parallel search cheap: with per-worker private memos
/// the same `(scheduled set, finish vector)` state reached in two workers'
/// subtrees is explored twice; with the shared table the second worker prunes
/// immediately. Soundness is unchanged — dominance is a property of the
/// *state*, not of which worker explored it — and a search that runs to
/// completion (no budget/deadline stop) still proves optimality exactly.
#[derive(Debug)]
pub(super) struct SharedDominanceTable {
    segments: Vec<SegmentCell>,
    slot_mask: u64,
    seg_shift: u32,
    seg_mask: usize,
    /// Words per slot record: `3 + devices`.
    stride: usize,
    devices: usize,
}

impl SharedDominanceTable {
    /// Creates a table with capacity for roughly `limit` finish vectors (one
    /// per slot, rounded up to a power of two). Only the segment directory is
    /// allocated here; slot storage materialises on first touch.
    pub(super) fn new(devices: usize, limit: usize) -> Self {
        let slots = limit.next_power_of_two().clamp(1024, 1 << 26);
        let seg_slots = SEGMENT_SLOTS.min(slots);
        SharedDominanceTable {
            segments: (0..slots / seg_slots)
                .map(|_| SegmentCell {
                    state: AtomicU8::new(SEG_ABSENT),
                    segment: OnceLock::new(),
                })
                .collect(),
            slot_mask: slots as u64 - 1,
            seg_shift: seg_slots.trailing_zeros(),
            seg_mask: seg_slots - 1,
            stride: 3 + devices,
            devices,
        }
    }

    /// The segment holding `slot`, if some writer already built it.
    fn segment(&self, slot: usize) -> Option<&Segment> {
        let cell = &self.segments[slot >> self.seg_shift];
        if cell.state.load(Ordering::Acquire) == SEG_READY {
            cell.segment.get()
        } else {
            None
        }
    }

    /// The segment holding `slot`, building it if nobody has. Returns `None`
    /// — *without waiting* — when another writer is mid-build; the caller
    /// skips the slot (prune-only safe) and counts the lost race.
    fn ensure_segment(&self, slot: usize, stats: &mut SolveStats) -> Option<&Segment> {
        let cell = &self.segments[slot >> self.seg_shift];
        match cell.state.compare_exchange(
            SEG_ABSENT,
            SEG_BUILDING,
            Ordering::Acquire,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                let slots = self.seg_mask + 1;
                let built = Segment {
                    meta: (0..slots).map(|_| AtomicU32::new(SLOT_FREE)).collect(),
                    data: (0..slots * self.stride)
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                };
                // We won the CAS, so we are the only `set` caller ever.
                let _ = cell.segment.set(built);
                cell.state.store(SEG_READY, Ordering::Release);
                cell.segment.get()
            }
            Err(SEG_READY) => cell.segment.get(),
            Err(_) => {
                // Another worker is zeroing the segment right now. Waiting
                // would re-introduce blocking; skipping only costs a memo.
                stats.cas_retries += 1;
                None
            }
        }
    }

    /// Checks `finishes` against every vector published for `mask` inside
    /// the probe window; returns `Some(owner)` if a published vector
    /// dominates it. Otherwise it records `(mask, finishes)` under `owner` —
    /// upgrading a strictly-dominated record of the same mask in place, or
    /// claiming a free slot of the window — counting lost CAS races and
    /// discarded torn reads in `stats.cas_retries` and a full window in
    /// `stats.memo_drops`.
    ///
    /// `scratch` is a caller-owned buffer the candidate record is copied
    /// into before comparing — the copy turns per-word atomic loads into a
    /// plain slice compare ([`simd::compare_le`]) and is also what the
    /// seqlock validation protects: a copy whose slot version moved mid-read
    /// is discarded, never compared.
    pub(super) fn check_and_insert(
        &self,
        mask: u128,
        finishes: &[u64],
        owner: u32,
        scratch: &mut Vec<u64>,
        stats: &mut SolveStats,
    ) -> Option<u32> {
        let start = DominanceTable::hash(mask) & self.slot_mask;
        let mask_lo = mask as u64;
        let mask_hi = (mask >> 64) as u64;
        let devices = self.devices;
        let mut free = [0usize; PROBE_WINDOW];
        let mut free_count = 0usize;

        for p in 0..PROBE_WINDOW as u64 {
            let idx = ((start + p) & self.slot_mask) as usize;
            let Some(seg) = self.segment(idx) else {
                // Untouched (or mid-build) segment: every slot in it is
                // free from this reader's point of view.
                free[free_count] = idx;
                free_count += 1;
                continue;
            };
            let off = idx & self.seg_mask;
            let version = seg.meta[off].load(Ordering::Acquire);
            if version == SLOT_FREE {
                free[free_count] = idx;
                free_count += 1;
                continue;
            }
            if version & 1 == 1 {
                // A writer is mid-publication; skipping it is a race a
                // reader is allowed to lose (prune-only).
                continue;
            }
            let base = off * self.stride;
            // The mask words are written exactly once, before the slot's
            // first even version, so the acquire load above fixes them.
            if seg.data[base + 1].load(Ordering::Relaxed) != mask_lo
                || seg.data[base + 2].load(Ordering::Relaxed) != mask_hi
            {
                continue;
            }
            let rec_owner = seg.data[base].load(Ordering::Relaxed);
            scratch.clear();
            scratch.extend(
                seg.data[base + 3..base + 3 + devices]
                    .iter()
                    .map(|w| w.load(Ordering::Relaxed)),
            );
            // Seqlock validation: the fence orders the copy above before
            // the version re-load; a moved version means a concurrent
            // upgrade may have torn the copy, so discard it (prune-only).
            fence(Ordering::Acquire);
            if seg.meta[off].load(Ordering::Relaxed) != version {
                stats.cas_retries += 1;
                continue;
            }
            let (stored_le, current_le) = simd::compare_le(scratch, finishes);
            if stored_le {
                // An at-least-as-good state was already explored.
                return Some(rec_owner as u32);
            }
            if current_le {
                // Our vector strictly dominates the record: upgrade it in
                // place so superseded generations don't clog the bounded
                // window (branch-and-bound revisits the same mask with
                // steadily better vectors; without replacement the window
                // fills and memoisation collapses).
                match seg.meta[off].compare_exchange(
                    version,
                    version + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Release fence before the payload rewrite: the CAS
                        // above orders nothing *after* its own store, so
                        // without this fence a weakly-ordered machine may
                        // make the relaxed stores below visible while a
                        // reader's revalidation still observes `version` —
                        // a torn copy that validates. The fence pairs with
                        // the reader's acquire fence (see the module docs).
                        fence(Ordering::Release);
                        seg.data[base].store(u64::from(owner), Ordering::Relaxed);
                        for (word, &f) in
                            seg.data[base + 3..base + 3 + devices].iter().zip(finishes)
                        {
                            word.store(f, Ordering::Relaxed);
                        }
                        seg.meta[off].store(version + 2, Ordering::Release);
                        return None;
                    }
                    Err(_) => {
                        // Another worker got to this record first; don't
                        // wait for it, keep probing.
                        stats.cas_retries += 1;
                    }
                }
            }
        }

        // Not dominated: publish into the first free slot we can claim.
        for &idx in &free[..free_count] {
            let Some(seg) = self.ensure_segment(idx, stats) else {
                continue;
            };
            let off = idx & self.seg_mask;
            match seg.meta[off].compare_exchange(
                SLOT_FREE,
                SLOT_CLAIMED,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let base = off * self.stride;
                    seg.data[base].store(u64::from(owner), Ordering::Relaxed);
                    seg.data[base + 1].store(mask_lo, Ordering::Relaxed);
                    seg.data[base + 2].store(mask_hi, Ordering::Relaxed);
                    for (word, &f) in seg.data[base + 3..base + 3 + devices].iter().zip(finishes) {
                        word.store(f, Ordering::Relaxed);
                    }
                    // Publish: readers acquiring READY see every store above.
                    seg.meta[off].store(SLOT_READY, Ordering::Release);
                    return None;
                }
                Err(_) => {
                    // Another worker claimed the slot between our scan and
                    // our CAS; try the next free slot of the window.
                    stats.cas_retries += 1;
                }
            }
        }

        // Window exhausted: don't memoise. The search stays exact, this
        // state just won't prune a future revisit.
        stats.memo_drops += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Convenience driver for the serial table in tests that ignore drops.
    fn check(table: &mut DominanceTable, mask: u128, finishes: &[u64]) -> bool {
        table.check_and_insert(mask, finishes, &mut SolveStats::default())
    }

    #[test]
    fn dominance_table_detects_and_replaces() {
        let mut table = DominanceTable::new(2, 1024);
        // First sighting of a mask: recorded, not pruned.
        assert!(!check(&mut table, 0b11, &[3, 4]));
        // Dominated by the stored [3, 4]: pruned.
        assert!(check(&mut table, 0b11, &[3, 5]));
        assert!(check(&mut table, 0b11, &[3, 4]));
        // Strictly better on one device: replaces the stored vector...
        assert!(!check(&mut table, 0b11, &[2, 4]));
        // ...so the old vector now reads as dominated.
        assert!(check(&mut table, 0b11, &[3, 4]));
        assert_eq!(table.stored, 1);
        // A different mask is tracked independently.
        assert!(!check(&mut table, 0b101, &[3, 4]));
        // Incomparable vectors coexist.
        assert!(!check(&mut table, 0b11, &[1, 9]));
        assert!(check(&mut table, 0b11, &[2, 9]));
        // The empty mask (the root) is a key like any other.
        assert!(!check(&mut table, 0, &[0, 0]));
        assert!(check(&mut table, 0, &[0, 0]));
    }

    #[test]
    fn dominance_table_is_lazy_and_grows_from_its_initial_size() {
        let mut table = DominanceTable::new(1, 1 << 16);
        // Nothing is allocated until the first probe; touching is a no-op.
        assert!(table.lines.is_empty());
        table.touch(0b1);
        assert!(table.lines.is_empty());
        assert!(!check(&mut table, 0, &[0]));
        assert_eq!(table.slots(), INITIAL_SLOTS);
        for i in 0..5000u64 {
            // All distinct masks: forces many doublings.
            assert!(!check(&mut table, u128::from(i) << 1 | 1, &[i]));
            table.touch(u128::from(i) << 1 | 1);
        }
        assert!(table.slots() * 7 >= 5001 * 10 && table.slots() > INITIAL_SLOTS);
        assert!(table.slots().is_power_of_two());
        for i in 0..5000u64 {
            assert!(check(&mut table, u128::from(i) << 1 | 1, &[i + 1]));
        }
        // Masks that differ only in the high half are different keys.
        assert!(!check(&mut table, 1u128 << 100 | 1, &[0]));
    }

    #[test]
    fn dominance_table_respects_capacity_and_counts_drops() {
        let mut table = DominanceTable::new(1, 2);
        let mut stats = SolveStats::default();
        assert!(!table.check_and_insert(0b1, &[5], &mut stats));
        assert!(!table.check_and_insert(0b10, &[5], &mut stats));
        assert_eq!(stats.memo_drops, 0);
        // Capacity reached: the vector is not recorded...
        assert!(!table.check_and_insert(0b100, &[5], &mut stats));
        assert_eq!(stats.memo_drops, 1);
        // ...so an identical state is not pruned either.
        assert!(!table.check_and_insert(0b100, &[5], &mut stats));
        // An incomparable vector under a stored mask is refused the same way.
        let mut wide = DominanceTable::new(2, 1);
        assert!(!wide.check_and_insert(0b1, &[1, 9], &mut stats));
        assert_eq!(stats.memo_drops, 2);
        assert!(!wide.check_and_insert(0b1, &[9, 1], &mut stats));
        assert_eq!(stats.memo_drops, 3);
        // A dominating vector replaces instead of adding: never a drop.
        assert!(!wide.check_and_insert(0b1, &[1, 8], &mut stats));
        assert_eq!(stats.memo_drops, 3);
        assert!(wide.check_and_insert(0b1, &[1, 9], &mut stats));
    }

    #[test]
    fn a_dominated_inline_vector_is_replaced_while_its_chain_survives() {
        let mut table = DominanceTable::new(2, 1024);
        // [5, 5] sits in the slot, [1, 9] and [9, 1] behind it in the chain.
        for v in [[5, 5], [1, 9], [9, 1]] {
            assert!(!check(&mut table, 0b1, &v));
        }
        assert_eq!(table.stored, 3);
        // [4, 4] dominates only the inline vector and takes its place.
        assert!(!check(&mut table, 0b1, &[4, 4]));
        assert_eq!(table.stored, 3);
        assert!(check(&mut table, 0b1, &[5, 5]));
        assert!(check(&mut table, 0b1, &[4, 4]));
        assert!(check(&mut table, 0b1, &[1, 9]));
        assert!(check(&mut table, 0b1, &[9, 2]));
        assert!(!check(&mut table, 0b1, &[3, 8]));
        // [0, 0] dominates everything: the chain is recycled, one vector
        // remains, and the freed records are reused by the next inserts.
        assert!(!check(&mut table, 0b1, &[0, 0]));
        assert_eq!(table.stored, 1);
        let arena = table.arena.len();
        assert!(check(&mut table, 0b1, &[1, 9]));
        assert!(!check(&mut table, 0b10, &[1, 9]));
        assert!(!check(&mut table, 0b10, &[9, 1]));
        assert_eq!(table.arena.len(), arena);
    }

    #[test]
    fn slots_span_as_many_lines_as_the_devices_need() {
        // 1 and 5 devices fit the key's line, 6 and 13 spill into a second,
        // 16 into a third; every lane must take part in the comparison.
        for (devices, lines) in [(1, 1), (5, 1), (6, 2), (13, 2), (16, 3)] {
            let mut table = DominanceTable::new(devices, 1 << 12);
            assert_eq!(table.stride, lines, "{devices} devices");
            let base = vec![10u64; devices];
            for mask in 1..200u128 {
                assert!(!check(&mut table, mask, &base));
            }
            for mask in 1..200u128 {
                for lane in 0..devices {
                    // Worse in one lane only: dominated by the stored vector.
                    let mut worse = base.clone();
                    worse[lane] += 1;
                    assert!(check(&mut table, mask, &worse), "{devices}/{lane}");
                    // Better in one lane, worse in the next: incomparable
                    // (with one device there is no next lane).
                    if devices > 1 {
                        let mut mixed = worse.clone();
                        mixed[(lane + 1) % devices] -= 2;
                        assert!(!check(&mut table, mask, &mixed), "{devices}/{lane}");
                        assert!(check(&mut table, mask, &mixed), "{devices}/{lane}");
                    }
                }
                // Better in the last lane only: replaces the inline vector and
                // sweeps the chain vectors it dominates.
                let mut better = base.clone();
                better[devices - 1] -= 1;
                assert!(!check(&mut table, mask, &better), "{devices}");
                assert!(check(&mut table, mask, &base), "{devices}");
            }
        }
    }

    /// Convenience driver for the lock-free table in single-threaded tests.
    fn shared_check(
        table: &SharedDominanceTable,
        mask: u128,
        finishes: &[u64],
        owner: u32,
        stats: &mut SolveStats,
    ) -> Option<u32> {
        let mut scratch = Vec::new();
        table.check_and_insert(mask, finishes, owner, &mut scratch, stats)
    }

    #[test]
    fn shared_table_attributes_cross_worker_hits() {
        let shared = SharedDominanceTable::new(2, 1 << 10);
        let mut stats = SolveStats::default();
        assert!(shared_check(&shared, 0b11, &[3, 4], 0, &mut stats).is_none());
        // Worker 1 revisits worker 0's state: pruned, attributed to 0.
        assert_eq!(shared_check(&shared, 0b11, &[3, 4], 1, &mut stats), Some(0));
        // Worker 0 revisiting its own state is a same-worker hit.
        assert_eq!(shared_check(&shared, 0b11, &[4, 4], 0, &mut stats), Some(0));
        // No contention in a single-threaded test.
        assert_eq!(stats.cas_retries, 0);
        assert_eq!(stats.memo_drops, 0);
    }

    #[test]
    fn shared_table_drops_memos_when_the_window_fills() {
        // Pairwise-incomparable vectors under one mask all probe the same
        // window; once its PROBE_WINDOW slots hold records, further inserts
        // are dropped (counted, not blocked) and stay unpruned on revisit.
        let shared = SharedDominanceTable::new(2, 1 << 10);
        let mut stats = SolveStats::default();
        for i in 0..PROBE_WINDOW as u64 {
            assert!(shared_check(&shared, 0b1, &[i, 100 - i], 0, &mut stats).is_none());
        }
        assert_eq!(stats.memo_drops, 0);
        let overflow = PROBE_WINDOW as u64;
        assert!(shared_check(&shared, 0b1, &[overflow, 100 - overflow], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 1);
        // The dropped vector was not memoised: an identical revisit is not
        // pruned (and drops again).
        assert!(shared_check(&shared, 0b1, &[overflow, 100 - overflow], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 2);
        // A vector dominated by a *stored* record still prunes.
        assert_eq!(
            shared_check(&shared, 0b1, &[0, 101], 1, &mut stats),
            Some(0)
        );
    }

    #[test]
    fn shared_table_upgrades_dominated_records_in_place() {
        // A strictly-better vector for an already-stored mask rewrites the
        // record through the slot seqlock instead of consuming a fresh slot
        // — the bounded probe window must not fill up with superseded
        // generations of the same state.
        let shared = SharedDominanceTable::new(2, 1 << 10);
        let mut stats = SolveStats::default();
        assert!(shared_check(&shared, 0b11, &[5, 5], 0, &mut stats).is_none());
        // Worker 1's strictly better vector upgrades worker 0's record.
        assert!(shared_check(&shared, 0b11, &[4, 4], 1, &mut stats).is_none());
        // The superseded [5, 5] is gone: revisiting it prunes against the
        // upgraded record and is attributed to worker 1.
        assert_eq!(shared_check(&shared, 0b11, &[5, 5], 0, &mut stats), Some(1));
        assert_eq!(shared_check(&shared, 0b11, &[4, 5], 0, &mut stats), Some(1));
        // The window still has room for a genuinely incomparable vector.
        assert!(shared_check(&shared, 0b11, &[1, 9], 0, &mut stats).is_none());
        assert_eq!(shared_check(&shared, 0b11, &[2, 9], 1, &mut stats), Some(0));
        // Single-threaded: every upgrade CAS wins first try.
        assert_eq!(stats.cas_retries, 0);
        assert_eq!(stats.memo_drops, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Single-threaded equivalence: on any operation sequence, the
        /// lock-free table and the locked reference make identical prune
        /// decisions (until a capacity drop, after which the lock-free
        /// table is allowed to prune strictly less — never more).
        #[test]
        fn lock_free_matches_locked_reference(
            ops in proptest::collection::vec(
                (0u64..24, proptest::collection::vec(0u64..12, 3)),
                1..80,
            )
        ) {
            let mut reference = DominanceTable::new(3, 1 << 12);
            let shared = SharedDominanceTable::new(3, 1 << 12);
            let mut scratch = Vec::new();
            let mut stats = SolveStats::default();
            for (mask, finishes) in &ops {
                let mask = u128::from(*mask);
                let locked = reference.check_and_insert(mask, finishes, &mut stats);
                let lock_free = shared
                    .check_and_insert(mask, finishes, 0, &mut scratch, &mut stats);
                prop_assert_eq!(
                    locked,
                    lock_free.is_some(),
                    "prune decision diverged for mask {} finishes {:?}",
                    mask,
                    finishes
                );
                if stats.memo_drops > 0 {
                    // A dropped memo is the one sanctioned divergence; the
                    // decision that *caused* the drop was still identical
                    // (asserted above), later ones may legitimately differ.
                    break;
                }
            }
            prop_assert_eq!(stats.cas_retries, 0);
        }
    }
}
