//! One search's observer.
//!
//! A [`ProgressBoard`] is the one handle a [`SolverConfig`] carries for
//! watching its solves, and a schedule search hands the same board to every
//! solver it runs. It holds three kinds of books:
//!
//! * live counters the solver writes at the node-batch boundaries it already
//!   has — nodes expanded, dominance-memo drops, the depth of the node being
//!   entered — with relaxed atomics only, so an observer (the daemon's
//!   `/v1/debug/inflight`) can watch a long solve while it runs without any
//!   lock or fence on the search's hot path;
//! * the [`SolverTotals`] of every solve that has finished, absorbed once per
//!   solve under a mutex far off the hot path;
//! * the incumbent: the best value the board's *owner* has recorded. The
//!   solver never records one — a schedule search records the period of each
//!   repetend that improves its answer — and one listener may be told of
//!   every strict improvement as it happens.
//!
//! Torn cross-field reads (nodes from one batch, incumbent from the next)
//! are harmless in a live view: each counter is monotone on its own.
//!
//! [`SolverConfig`]: crate::SolverConfig

use crate::stats::{SolveStats, SolverTotals};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sentinel for "no incumbent yet" in the atomic incumbent slot.
const NO_INCUMBENT: u64 = u64::MAX;

/// Sentinel for "no depth published yet" in the atomic depth slot.
const NO_DEPTH: u64 = u64::MAX;

/// Called with each strictly improving incumbent.
type Listener = Box<dyn Fn(u64) + Send + Sync>;

struct BoardState {
    nodes: AtomicU64,
    incumbent: AtomicU64,
    incumbents: AtomicU64,
    memo_drops: AtomicU64,
    depth: AtomicU64,
    totals: Mutex<SolverTotals>,
    listener: OnceLock<Listener>,
}

/// The shared books of one search: live progress, finished solves'
/// totals and the incumbent (see the module docs).
///
/// Cloning shares the underlying board; attach a clone via
/// [`SolverConfig::progress`] and poll [`ProgressBoard::snapshot`] from any
/// thread while the solves run. A board watches one search: its totals and
/// incumbent run over every solve it was attached to.
///
/// [`SolverConfig::progress`]: crate::SolverConfig::progress
#[derive(Clone)]
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
                totals: Mutex::new(SolverTotals::default()),
                listener: OnceLock::new(),
            }),
        }
    }
}

impl std::fmt::Debug for ProgressBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProgressBoard")
            .field(&self.snapshot())
            .finish()
    }
}

/// A point-in-time copy of a [`ProgressBoard`]'s live counters.
///
/// Fields are read independently with relaxed loads, so a snapshot taken
/// mid-flush can mix batches — each individual counter is still monotone
/// across snapshots (incumbent monotonically non-increasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Nodes expanded and published so far (trails the true count by at most
    /// one unflushed batch per worker; equals the finished solves' node
    /// total once none is running).
    pub nodes: u64,
    /// Best incumbent recorded so far, if any.
    pub incumbent: Option<u64>,
    /// Strict improvements of the incumbent recorded so far.
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

    /// Records an incumbent. Only strict improvements move the value (so a
    /// stale report cannot move it backwards), count, and reach the
    /// listener.
    pub fn record_incumbent(&self, value: u64) {
        let previous = self.state.incumbent.fetch_min(value, Ordering::Relaxed);
        if value < previous {
            self.state.incumbents.fetch_add(1, Ordering::Relaxed);
            if let Some(listener) = self.state.listener.get() {
                listener(value);
            }
        }
    }

    /// Calls `listener` with every strictly improving incumbent recorded
    /// from now on, on the recording thread: keep it non-blocking.
    ///
    /// # Panics
    ///
    /// If the board already has a listener.
    pub fn listen(&self, listener: impl Fn(u64) + Send + Sync + 'static) {
        assert!(
            self.state.listener.set(Box::new(listener)).is_ok(),
            "a progress board has one listener"
        );
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

    /// Folds one finished solve's statistics into the board's totals (the
    /// solver calls it once per solve).
    pub fn absorb(&self, stats: &SolveStats) {
        self.state
            .totals
            .lock()
            .expect("board totals lock")
            .absorb(stats);
    }

    /// The totals of every solve finished on this board so far.
    #[must_use]
    pub fn totals(&self) -> SolverTotals {
        *self.state.totals.lock().expect("board totals lock")
    }

    /// A point-in-time copy of every live counter.
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
        let heard = Arc::new(Mutex::new(Vec::new()));
        {
            let heard = Arc::clone(&heard);
            board.listen(move |value| heard.lock().unwrap().push(value));
        }
        board.record_incumbent(50);
        board.record_incumbent(70); // stale report: ignored
        board.clone().record_incumbent(40);
        board.record_incumbent(40); // tie: not an improvement
        let snap = board.snapshot();
        assert_eq!(snap.incumbent, Some(40));
        assert_eq!(snap.incumbents, 2);
        assert_eq!(*heard.lock().unwrap(), vec![50, 40]);
        // Debug prints the counters, not the closure.
        assert!(format!("{board:?}").contains("incumbent: Some(40)"));
    }

    #[test]
    #[should_panic(expected = "one listener")]
    fn a_second_listener_is_refused() {
        let board = ProgressBoard::new();
        board.listen(|_| {});
        board.clone().listen(|_| {});
    }

    #[test]
    fn totals_absorb_every_finished_solve_across_clones() {
        let board = ProgressBoard::new();
        board.clone().absorb(&SolveStats {
            nodes: 10,
            pruned_bound: 2,
            memo_drops: 8,
            ..SolveStats::default()
        });
        board.absorb(&SolveStats {
            nodes: 5,
            ..SolveStats::default()
        });
        let totals = board.totals();
        assert_eq!(totals.solves, 2);
        assert_eq!(totals.nodes, 15);
        assert_eq!(totals.pruned_bound, 2);
        assert_eq!(totals.memo_drops, 8);
        // The live counters are the solver's to publish, not the totals'.
        assert_eq!(board.snapshot().nodes, 0);
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
