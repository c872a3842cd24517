//! Live solve-progress publication.
//!
//! A [`ProgressBoard`] is a shared bundle of relaxed atomics a running solve
//! writes into at its existing node-batch boundaries, so an observer (the
//! daemon's `/v1/debug/inflight` endpoint) can watch a long solve *while it
//! runs* — nodes explored, the current incumbent, the search depth — without
//! adding any lock or fence to the search hot path. Publication piggybacks
//! on the flush points the engine already has:
//!
//! * the node-count flush (every `FLUSH_INTERVAL` nodes) also adds the batch
//!   to the board and stamps the depth of the node being entered;
//! * an incumbent that wins the shared-bound CAS is stored on the board in
//!   the same breath it is reported to the incumbent sink.
//!
//! Everything is `Ordering::Relaxed`: the board is a monotone progress
//! indicator, not a synchronization point, and torn cross-field reads (nodes
//! from one batch, incumbent from the next) are harmless in a live view.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no incumbent yet" in the atomic incumbent slot.
const NO_INCUMBENT: u64 = u64::MAX;

/// Sentinel for "no depth published yet" in the atomic depth slot.
const NO_DEPTH: u64 = u64::MAX;

#[derive(Debug)]
struct BoardState {
    nodes: AtomicU64,
    incumbent: AtomicU64,
    incumbents: AtomicU64,
    memo_drops: AtomicU64,
    depth: AtomicU64,
}

/// Shared live-progress counters for one (or several sequential) solves.
///
/// Cloning shares the underlying board, like [`StatsSink`]; attach a clone
/// via [`SolverConfig::progress`] and poll [`ProgressBoard::snapshot`] from
/// any thread while the solve runs.
///
/// [`StatsSink`]: crate::StatsSink
/// [`SolverConfig::progress`]: crate::SolverConfig::progress
#[derive(Debug, Clone)]
pub struct ProgressBoard {
    state: Arc<BoardState>,
}

impl Default for ProgressBoard {
    fn default() -> Self {
        ProgressBoard {
            state: Arc::new(BoardState {
                nodes: AtomicU64::new(0),
                incumbent: AtomicU64::new(NO_INCUMBENT),
                incumbents: AtomicU64::new(0),
                memo_drops: AtomicU64::new(0),
                depth: AtomicU64::new(NO_DEPTH),
            }),
        }
    }
}

/// A point-in-time copy of a [`ProgressBoard`].
///
/// Fields are read independently with relaxed loads, so a snapshot taken
/// mid-flush can mix batches — each individual counter is still monotone
/// across snapshots (incumbent monotonically non-increasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Nodes expanded and published so far (trails the true count by at most
    /// one unflushed batch per worker).
    pub nodes: u64,
    /// Best makespan found so far, if any.
    pub incumbent: Option<u64>,
    /// Improving incumbents recorded so far.
    pub incumbents: u64,
    /// Finish vectors a full dominance memo declined to record so far; a
    /// count that keeps rising means the solve is re-exploring states it
    /// could no longer remember.
    pub memo_drops: u64,
    /// Search depth at the most recent node-count flush, once any solve
    /// has flushed.
    pub depth: Option<u64>,
}

impl ProgressBoard {
    /// Creates an empty board.
    #[must_use]
    pub fn new() -> Self {
        ProgressBoard::default()
    }

    /// Adds a flushed node batch to the published total.
    #[inline]
    pub fn add_nodes(&self, batch: u64) {
        if batch > 0 {
            self.state.nodes.fetch_add(batch, Ordering::Relaxed);
        }
    }

    /// Publishes an improving incumbent makespan. Only improvements are
    /// stored, so concurrent stale reports cannot move the value backwards.
    #[inline]
    pub fn record_incumbent(&self, makespan: u64) {
        let previous = self.state.incumbent.fetch_min(makespan, Ordering::Relaxed);
        if makespan < previous {
            self.state.incumbents.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds a flushed batch of dropped memo inserts to the published total.
    #[inline]
    pub fn add_memo_drops(&self, batch: u64) {
        if batch > 0 {
            self.state.memo_drops.fetch_add(batch, Ordering::Relaxed);
        }
    }

    /// Publishes the search depth of the node being entered at a flush.
    #[inline]
    pub fn set_depth(&self, depth: u64) {
        self.state.depth.store(depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of every published counter.
    #[must_use]
    pub fn snapshot(&self) -> ProgressSnapshot {
        let incumbent = self.state.incumbent.load(Ordering::Relaxed);
        let depth = self.state.depth.load(Ordering::Relaxed);
        ProgressSnapshot {
            nodes: self.state.nodes.load(Ordering::Relaxed),
            incumbent: (incumbent != NO_INCUMBENT).then_some(incumbent),
            incumbents: self.state.incumbents.load(Ordering::Relaxed),
            memo_drops: self.state.memo_drops.load(Ordering::Relaxed),
            depth: (depth != NO_DEPTH).then_some(depth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_board_snapshot_is_zeroed() {
        let board = ProgressBoard::new();
        let snap = board.snapshot();
        assert_eq!(snap.nodes, 0);
        assert_eq!(snap.incumbent, None);
        assert_eq!(snap.incumbents, 0);
        assert_eq!(snap.depth, None);
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let board = ProgressBoard::new();
        let clone = board.clone();
        board.add_nodes(100);
        clone.add_nodes(24);
        board.add_nodes(0); // no-op
        clone.add_memo_drops(2);
        board.add_memo_drops(3);
        let snap = board.snapshot();
        assert_eq!(snap.nodes, 124);
        assert_eq!(snap.memo_drops, 5);
    }

    #[test]
    fn incumbent_only_moves_down() {
        let board = ProgressBoard::new();
        board.record_incumbent(50);
        board.record_incumbent(70); // stale report: ignored
        board.record_incumbent(40);
        board.record_incumbent(40); // tie: not an improvement
        let snap = board.snapshot();
        assert_eq!(snap.incumbent, Some(40));
        assert_eq!(snap.incumbents, 2);
    }

    #[test]
    fn the_depth_is_the_last_one_published() {
        let board = ProgressBoard::new();
        board.set_depth(0); // depth 0 is a valid published depth
        assert_eq!(board.snapshot().depth, Some(0));
        board.clone().set_depth(17);
        assert_eq!(board.snapshot().depth, Some(17));
        board.set_depth(3);
        assert_eq!(board.snapshot().depth, Some(3));
    }

    #[test]
    fn concurrent_publication_is_monotone() {
        let board = ProgressBoard::new();
        let writers: Vec<_> = (0..4u32)
            .map(|_| {
                let board = board.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        board.add_nodes(3);
                        board.set_depth(i % 40);
                        if i % 100 == 0 {
                            board.record_incumbent(10_000 - i);
                        }
                    }
                })
            })
            .collect();
        let mut last_nodes = 0;
        for _ in 0..100 {
            let snap = board.snapshot();
            assert!(snap.nodes >= last_nodes);
            last_nodes = snap.nodes;
            std::thread::yield_now();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(board.snapshot().nodes, 12_000);
        assert_eq!(board.snapshot().incumbent, Some(9_100));
    }
}
