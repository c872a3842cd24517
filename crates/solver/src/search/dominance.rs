//! Dominance memoisation: one flat table, private to the serial search and
//! striped behind locks for the parallel workers.
//!
//! Two partial schedules covering the same set of tasks are compared by their
//! per-device finish-time vectors; the componentwise-worse one cannot lead to
//! a better completion and is pruned. The single-threaded search keeps one
//! private [`DominanceTable`]. The work-stealing parallel search shares one
//! [`SharedDominanceTable`], so a state explored by any worker prunes the
//! re-exploration every other worker would otherwise pay: [`STRIPES`] of the
//! same tables, each behind its own mutex, the high bits of the mask's hash
//! picking the stripe. A worker that finds its stripe held waits for it and
//! counts the wait in `cas_retries`; on the benchmark's `solve_parallel`
//! (two threads) that happens ~150 k times in ~24 M nodes.
//!
//! Every stored vector carries the id of the worker that stored it, in bits
//! the layout leaves free, so a prune can tell a cross-worker hit from a
//! worker's own (`shared_memo_hits`). The serial search stores worker 0.

use super::simd;
use crate::stats::SolveStats;
use std::sync::{Mutex, TryLockError};

/// End of a slot's chain of overflow records.
const EMPTY_HEAD: u32 = u32::MAX;

/// One cache line of the serial table.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Line([u64; LINE_WORDS]);

const LINE_WORDS: usize = 8;
// Words of a slot's first line: the two halves of the scheduled-task mask,
// the slot's state (`0` free, else `OCCUPIED` plus the head of its overflow
// chain in the low 32 bits and the owner of the inline vector from bit
// `META_OWNER` up), then the first lanes of the finish vector the slot
// stores itself.
const MASK_LO: usize = 0;
const MASK_HI: usize = 1;
const META: usize = 2;
const INLINE: usize = 3;
const OCCUPIED: u64 = 1 << 32;
const META_OWNER: u32 = 33;
/// The chain link in the low half of `meta` and of a record's link word.
const LINK: u64 = u32::MAX as u64;

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
/// `[owner << 32 | next, f_0 .. f_{D-1}]` records packed in one arena
/// `Vec<u64>` with a free list, so lookups, insertions and removals touch no
/// allocator once the table has warmed up. The table allocates nothing until
/// its first probe and doubles from [`INITIAL_SLOTS`]: Tessel's repetend
/// enumeration issues thousands of solves that never branch or branch a few
/// dozen times, and zeroing a table sized for the large ones used to cost
/// more than the solve.
///
/// The stored vectors of a mask form an antichain: a lookup prunes iff one of
/// them is componentwise `<=` the current vector, drops the ones the current
/// vector dominates, and records the current vector while fewer than `limit`
/// are stored (a refused insert counts in `memo_drops`).
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

    fn hash(mask: u128) -> u64 {
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

    /// Arena record layout: `[owner << 32 | next, f_0 .. f_{D-1}]`.
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
    /// `mask`. Returns the owner of a stored vector that dominates it (the
    /// caller should prune); otherwise removes the stored vectors it
    /// dominates and, capacity permitting, records it under `owner` — a
    /// vector refused for capacity counts in `stats.memo_drops`.
    pub(super) fn check_and_insert(
        &mut self,
        mask: u128,
        finishes: &[u64],
        owner: u32,
        stats: &mut SolveStats,
    ) -> Option<u32> {
        debug_assert!(owner < 1 << (64 - META_OWNER), "owner overflows meta");
        if self.lines.is_empty() {
            self.grow();
        }
        let stride = self.stride;
        let mut base = self.find_slot(mask);
        if self.lines[base].0[META] == 0 {
            if self.stored >= self.limit {
                stats.memo_drops += 1;
                return None;
            }
            // Keep the probe sequences short: grow at 70% occupancy.
            if (self.occupied + 1) * 10 > self.slots() * 7 {
                self.grow();
                base = self.find_slot(mask);
            }
            let head = &mut self.lines[base].0;
            head[MASK_LO] = mask as u64;
            head[MASK_HI] = (mask >> 64) as u64;
            head[META] = u64::from(owner) << META_OWNER | OCCUPIED | u64::from(EMPTY_HEAD);
            Self::store_inline(&mut self.lines[base..base + stride], finishes);
            self.occupied += 1;
            self.stored += 1;
            return None;
        }

        let (stored_le, current_le) =
            Self::compare_inline(&self.lines[base..base + stride], finishes);
        if stored_le {
            // An at-least-as-good state was already explored.
            return Some((self.lines[base].0[META] >> META_OWNER) as u32);
        }
        // A strictly worse inline vector is overwritten once the chain has
        // shown that nothing stored dominates the current one.
        let replace_inline = current_le;

        let rec = self.rec_size();
        let mut r = self.lines[base].0[META] as u32;
        let mut prev = EMPTY_HEAD;
        while r != EMPTY_HEAD {
            let at = r as usize * rec;
            let link = self.arena[at];
            let next = link as u32;
            let (stored_le, current_le) = simd::compare_le(&self.arena[at + 1..at + rec], finishes);
            if stored_le {
                return Some((link >> 32) as u32);
            }
            if current_le {
                // The stored state is strictly worse: unlink and recycle it,
                // leaving the owner in the word that pointed at it.
                let pointer = if prev == EMPTY_HEAD {
                    &mut self.lines[base].0[META]
                } else {
                    &mut self.arena[prev as usize * rec]
                };
                *pointer = (*pointer & !LINK) | u64::from(next);
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
            let meta = &mut self.lines[base].0[META];
            *meta = u64::from(owner) << META_OWNER | OCCUPIED | (*meta & LINK);
        } else if self.stored < self.limit {
            let new = self.alloc_record();
            let at = new as usize * rec;
            let meta = self.lines[base].0[META];
            self.arena[at] = u64::from(owner) << 32 | (meta & LINK);
            self.arena[at + 1..at + rec].copy_from_slice(finishes);
            self.lines[base].0[META] = (meta & !LINK) | u64::from(new);
            self.stored += 1;
        } else {
            stats.memo_drops += 1;
        }
        None
    }
}

/// Stripes of the shared table. Each is a whole [`DominanceTable`] with its
/// own lock; the top bits of [`DominanceTable::hash`] pick one, so the
/// stripe's table still spreads its slots over the low bits.
const STRIPES: usize = 64;

/// A stripe lock is only ever poisoned by a worker that is already panicking.
const POISONED: &str = "a solver worker panicked while holding a dominance stripe";

/// The dominance memo the work-stealing parallel search shares.
///
/// Sharing is what makes parallel search cheap: with per-worker private memos
/// the same `(scheduled set, finish vector)` state reached in two workers'
/// subtrees is explored twice; with the shared table the second worker prunes
/// immediately. A mask always maps to the same stripe, so each stripe makes
/// exactly the decisions one [`DominanceTable`] would, and a search that runs
/// to completion (no budget/deadline stop) still proves optimality exactly.
#[derive(Debug)]
pub(super) struct SharedDominanceTable {
    stripes: Vec<Mutex<DominanceTable>>,
}

impl SharedDominanceTable {
    /// A table holding up to about `limit` finish vectors, split evenly
    /// over the stripes.
    pub(super) fn new(devices: usize, limit: usize) -> Self {
        let per_stripe = limit.div_ceil(STRIPES);
        SharedDominanceTable {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(DominanceTable::new(devices, per_stripe)))
                .collect(),
        }
    }

    /// [`DominanceTable::check_and_insert`] on the stripe holding `mask`. A
    /// stripe found held is waited for and counted in `stats.cas_retries`.
    pub(super) fn check_and_insert(
        &self,
        mask: u128,
        finishes: &[u64],
        owner: u32,
        stats: &mut SolveStats,
    ) -> Option<u32> {
        let top = DominanceTable::hash(mask) >> (64 - STRIPES.trailing_zeros());
        let stripe = &self.stripes[top as usize];
        let mut table = match stripe.try_lock() {
            Ok(table) => table,
            Err(TryLockError::WouldBlock) => {
                stats.cas_retries += 1;
                stripe.lock().expect(POISONED)
            }
            Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
        };
        table.check_and_insert(mask, finishes, owner, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Barrier;

    /// Convenience helper for the serial table in tests that ignore drops
    /// and owners: does the table prune this state?
    fn check(table: &mut DominanceTable, mask: u128, finishes: &[u64]) -> bool {
        owner(table, mask, finishes, 0).is_some()
    }

    /// The owner a prune names, with `stored_by` as the owner of an insert.
    fn owner(
        table: &mut DominanceTable,
        mask: u128,
        finishes: &[u64],
        stored_by: u32,
    ) -> Option<u32> {
        table.check_and_insert(mask, finishes, stored_by, &mut SolveStats::default())
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
        // Even when every probe sequence passes over others with the same
        // low half.
        let mut high = DominanceTable::new(1, 1 << 12);
        for i in 0..2000u64 {
            assert!(
                !check(&mut high, u128::from(i) << 64, &[i]),
                "mask {i} << 64"
            );
        }
    }

    #[test]
    fn dominance_table_respects_capacity_and_counts_drops() {
        let mut table = DominanceTable::new(1, 2);
        let mut stats = SolveStats::default();
        assert!(table.check_and_insert(0b1, &[5], 0, &mut stats).is_none());
        assert!(table.check_and_insert(0b10, &[5], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 0);
        // Capacity reached: the vector is not recorded...
        assert!(table.check_and_insert(0b100, &[5], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 1);
        // ...so an identical state is not pruned either.
        assert!(table.check_and_insert(0b100, &[5], 0, &mut stats).is_none());
        // An incomparable vector under a stored mask is refused the same way.
        let mut wide = DominanceTable::new(2, 1);
        assert!(wide.check_and_insert(0b1, &[1, 9], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 2);
        assert!(wide.check_and_insert(0b1, &[9, 1], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 3);
        // A dominating vector replaces instead of adding: never a drop.
        assert!(wide.check_and_insert(0b1, &[1, 8], 0, &mut stats).is_none());
        assert_eq!(stats.memo_drops, 3);
        assert!(wide.check_and_insert(0b1, &[1, 9], 0, &mut stats).is_some());
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

    #[test]
    fn a_prune_names_the_owner_of_the_dominating_vector() {
        let mut table = DominanceTable::new(2, 1 << 12);
        // Owner 1's [5, 5] sits in the slot; owner 2's [1, 9] and owner 3's
        // [9, 1] are chained behind it, newest first.
        assert_eq!(owner(&mut table, 0b1, &[5, 5], 1), None);
        assert_eq!(owner(&mut table, 0b1, &[1, 9], 2), None);
        assert_eq!(owner(&mut table, 0b1, &[9, 1], 3), None);
        let chained = |table: &mut DominanceTable, inline| {
            assert_eq!(owner(table, 0b1, &[5, 6], 9), Some(inline));
            assert_eq!(owner(table, 0b1, &[2, 9], 9), Some(2));
            assert_eq!(owner(table, 0b1, &[9, 2], 9), Some(3));
        };
        chained(&mut table, 1);

        // Distinct masks force several doublings; every tag moves with its
        // line, and the chain keeps its own.
        for m in 1..2000u64 {
            assert_eq!(
                owner(&mut table, u128::from(m) << 1, &[m, m], (m % 7) as u32),
                None
            );
        }
        assert!(table.slots() >= 2048);
        for m in 1..2000u64 {
            let got = owner(&mut table, u128::from(m) << 1, &[m, m + 1], 9);
            assert_eq!(got, Some((m % 7) as u32), "mask {m}");
        }
        chained(&mut table, 1);

        // Owner 4's [4, 4] dominates only the inline vector and takes its
        // place and its tag; the chain's tags stay.
        assert_eq!(owner(&mut table, 0b1, &[4, 4], 4), None);
        chained(&mut table, 4);

        // Owner 5's [1, 8] dominates the last record, [1, 9]: it is unlinked
        // from behind [9, 1] (whose link word keeps owner 3) and recycled as
        // the record that now stores [1, 8] under owner 5.
        let arena = table.arena.len();
        assert_eq!(owner(&mut table, 0b1, &[1, 8], 5), None);
        assert_eq!(table.arena.len(), arena);
        assert_eq!(owner(&mut table, 0b1, &[1, 9], 9), Some(5));
        assert_eq!(owner(&mut table, 0b1, &[9, 2], 9), Some(3));
        assert_eq!(owner(&mut table, 0b1, &[5, 6], 9), Some(4));

        // Owner 6's [1, 7] dominates the chain's head, [1, 8]: unlinking it
        // rewrites the link half of `meta`, not the inline vector's owner.
        assert_eq!(owner(&mut table, 0b1, &[1, 7], 6), None);
        assert_eq!(table.arena.len(), arena);
        assert_eq!(owner(&mut table, 0b1, &[1, 8], 9), Some(6));
        assert_eq!(owner(&mut table, 0b1, &[9, 2], 9), Some(3));
        assert_eq!(owner(&mut table, 0b1, &[5, 6], 9), Some(4));
        assert_eq!(table.stored, 1999 + 3);
    }

    #[test]
    fn shared_table_attributes_cross_worker_hits() {
        let shared = SharedDominanceTable::new(2, 1 << 10);
        let mut stats = SolveStats::default();
        let mut probe =
            |finishes: &[u64], owner| shared.check_and_insert(0b11, finishes, owner, &mut stats);
        assert_eq!(probe(&[3, 4], 0), None);
        // Worker 1 revisits worker 0's state: pruned, attributed to 0.
        assert_eq!(probe(&[3, 4], 1), Some(0));
        // Worker 0 revisiting its own state is a same-worker hit.
        assert_eq!(probe(&[4, 4], 0), Some(0));
        // No contention in a single-threaded test.
        assert_eq!(stats.cas_retries, 0);
        assert_eq!(stats.memo_drops, 0);
    }

    #[test]
    fn shared_table_upgrades_dominated_records_in_place() {
        // A strictly-better vector for an already-stored mask replaces the
        // stored one and takes over its owner tag.
        let shared = SharedDominanceTable::new(2, 1 << 10);
        let mut stats = SolveStats::default();
        let mut probe =
            |finishes: &[u64], owner| shared.check_and_insert(0b11, finishes, owner, &mut stats);
        assert_eq!(probe(&[5, 5], 0), None);
        // Worker 1's strictly better vector replaces worker 0's.
        assert_eq!(probe(&[4, 4], 1), None);
        // The superseded [5, 5] is gone: revisiting it prunes against the
        // replacement and is attributed to worker 1.
        assert_eq!(probe(&[5, 5], 0), Some(1));
        assert_eq!(probe(&[4, 5], 0), Some(1));
        // An incomparable vector is stored beside it.
        assert_eq!(probe(&[1, 9], 0), None);
        assert_eq!(probe(&[2, 9], 1), Some(0));
        assert_eq!(stats.cas_retries, 0);
        assert_eq!(stats.memo_drops, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Single-threaded equivalence: on any operation sequence, the
        /// striped table makes the same decisions as one `DominanceTable`
        /// of the same limit — the same prunes, naming the same owners —
        /// up to the first drop on either side, after which the per-stripe
        /// limits may legitimately differ from the one global limit.
        #[test]
        fn striped_table_matches_one_table(
            ops in proptest::collection::vec(
                (0u64..24, proptest::collection::vec(0u64..12, 3), 0u32..4),
                1..80,
            ),
            limit_bits in 6usize..13,
        ) {
            let mut reference = DominanceTable::new(3, 1 << limit_bits);
            let shared = SharedDominanceTable::new(3, 1 << limit_bits);
            let (mut one, mut striped) = (SolveStats::default(), SolveStats::default());
            for (mask, finishes, owner) in &ops {
                let mask = u128::from(*mask);
                let expected = reference.check_and_insert(mask, finishes, *owner, &mut one);
                let got = shared.check_and_insert(mask, finishes, *owner, &mut striped);
                if one.memo_drops + striped.memo_drops > 0 {
                    break;
                }
                prop_assert_eq!(
                    expected,
                    got,
                    "decision diverged for mask {} finishes {:?}",
                    mask,
                    finishes
                );
            }
            prop_assert_eq!(striped.cas_retries, 0);
        }
    }

    /// `TESSEL_FUZZ_SEED` (decimal or 0x-hex), or the pinned default.
    fn fuzz_seed() -> u64 {
        let raw = std::env::var("TESSEL_FUZZ_SEED").ok();
        let parsed = raw
            .as_deref()
            .map(str::trim)
            .and_then(|raw| match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            });
        parsed.unwrap_or(0xd0a1_4a7e)
    }

    /// Deterministic splitmix64 (no external RNG in the solver crate).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One worker's operations on the shared table and what each returned.
    type Log = Vec<(u128, Vec<u64>, Option<u32>)>;

    /// Four workers issue `ops` random operations each on one shared table,
    /// concurrently. Afterwards every prune must be justified: the owner it
    /// names issued, under the same mask, a vector that was not pruned and is
    /// componentwise `<=` the pruned one (earlier in its own log, when the
    /// owner is the pruned worker itself).
    fn concurrent_prunes_are_justified(ops: usize) {
        const WORKERS: u32 = 4;
        const DEVICES: usize = 3;
        let seed = fuzz_seed();
        let table = SharedDominanceTable::new(DEVICES, 1 << 16);
        // All four start together, so their operations overlap.
        let start = Barrier::new(WORKERS as usize);
        let logs: Vec<Log> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let (table, start) = (&table, &start);
                    scope.spawn(move || {
                        let mut state = seed ^ u64::from(worker) << 56;
                        let mut stats = SolveStats::default();
                        start.wait();
                        (0..ops)
                            .map(|_| {
                                // 64 masks, half of them in the mask's high word.
                                let key = next(&mut state) % 64;
                                let mask = u128::from(key) << (key % 2 * 64);
                                let finishes: Vec<u64> =
                                    (0..DEVICES).map(|_| next(&mut state) % 16).collect();
                                let got =
                                    table.check_and_insert(mask, &finishes, worker, &mut stats);
                                (mask, finishes, got)
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // What each worker offered under each mask and was not pruned for.
        let mut offered = HashMap::<_, Vec<_>>::new();
        for (worker, log) in logs.iter().enumerate() {
            for (op, (mask, finishes, got)) in log.iter().enumerate() {
                if got.is_none() {
                    offered
                        .entry((worker, *mask))
                        .or_default()
                        .push((op, finishes));
                }
            }
        }
        let (mut prunes, mut cross) = (0, 0);
        for (worker, log) in logs.iter().enumerate() {
            for (op, (mask, pruned, got)) in log.iter().enumerate() {
                let Some(owner) = *got else { continue };
                let at = format!(
                    "TESSEL_FUZZ_SEED={seed:#x} worker {worker} op {op}: mask {mask:#x} \
                     finishes {pruned:?} pruned, naming owner {owner}"
                );
                let owner = owner as usize;
                assert!(owner < logs.len(), "{at}: no such worker");
                let justified = offered.get(&(owner, *mask)).is_some_and(|stored| {
                    stored.iter().any(|&(at_op, stored)| {
                        (owner != worker || at_op < op)
                            && stored.iter().zip(pruned).all(|(s, p)| s <= p)
                    })
                });
                assert!(justified, "{at}, who stored nothing that dominates it");
                prunes += 1;
                cross += usize::from(owner != worker);
            }
        }
        assert!(
            prunes > 0 && cross > 0,
            "TESSEL_FUZZ_SEED={seed:#x}: {prunes} prunes, {cross} cross"
        );
    }

    /// Reproduce a failure with `TESSEL_FUZZ_SEED=<seed> cargo test --release
    /// -p tessel-solver --lib concurrent_prunes -- --include-ignored`.
    #[test]
    fn concurrent_prunes_are_justified_2k() {
        concurrent_prunes_are_justified(2_000);
    }

    #[test]
    #[ignore = "200k operations per worker; CI's solver-stress job runs it in release"]
    fn concurrent_prunes_are_justified_200k() {
        concurrent_prunes_are_justified(200_000);
    }
}
