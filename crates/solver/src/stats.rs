//! Search statistics reported by the solver.

use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Statistics describing one solver invocation.
///
/// Tessel's evaluation (Figs. 3, 9 and 10 of the paper) reports search *cost*;
/// these statistics are what the benchmark harness aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Number of branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Number of nodes pruned by the makespan lower bound.
    pub pruned_bound: u64,
    /// Number of nodes pruned by state dominance.
    pub pruned_dominance: u64,
    /// Number of improving incumbent solutions found.
    pub incumbents: u64,
    /// Number of subtree tasks this solve's workers stole from another
    /// worker's queue (0 for single-threaded solves).
    pub steals: u64,
    /// Number of dominance prunes whose dominating record was inserted by a
    /// *different* worker — the exploration the shared dominance table
    /// deduplicated across threads (0 for single-threaded solves).
    pub shared_memo_hits: u64,
    /// Number of contention events in the lock-free shared dominance table:
    /// compare-and-swap attempts that lost a race (dominance-slot claims and
    /// in-place upgrades beaten by another worker), seqlock record copies
    /// discarded because the slot version moved mid-read, and slot segments
    /// skipped while another worker was still zeroing them. High values
    /// relative to `nodes` indicate genuine many-core contention (0 for
    /// single-threaded solves).
    #[serde(default)]
    pub cas_retries: u64,
    /// Number of steal attempts that found the victim's deque held by its
    /// owner or by another thief (a failed `try_lock`; the thief moves on to
    /// the next victim instead of waiting). 0 for single-threaded solves.
    #[serde(default)]
    pub steal_failures: u64,
    /// Number of finish vectors a dominance memo declined to record: the
    /// serial table once [`dominance_memo_limit`] vectors are stored, the
    /// lock-free shared table when its bounded probe window is exhausted.
    /// The search stays exact — a dropped memo only forfeits future pruning
    /// — but a count that is large against `nodes` says the node count is
    /// what it is because the memo was too small.
    ///
    /// [`dominance_memo_limit`]: crate::SolverConfig::dominance_memo_limit
    #[serde(default)]
    pub memo_drops: u64,
    /// Wall-clock microseconds spent in the bounded serial warm-start probe
    /// that runs before the worker pool spins up (0 for single-threaded
    /// solves, which have no probe phase).
    #[serde(default)]
    pub warmstart_micros: u64,
    /// Wall-clock microseconds spent in the parallel search phase proper —
    /// pool spin-up through the last worker joining (0 for single-threaded
    /// solves and for probes that finish the search serially).
    #[serde(default)]
    pub parallel_micros: u64,
    /// Wall-clock time spent in the search.
    #[serde(with = "duration_serde")]
    pub elapsed: Duration,
    /// `true` if the search space was exhausted (the result is proved optimal
    /// or proved infeasible), `false` if a node/time limit stopped it early.
    pub complete: bool,
}

impl SolveStats {
    /// Total number of pruned nodes.
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.pruned_bound + self.pruned_dominance
    }
}

/// Aggregate solver effort across many solve calls.
///
/// A higher-level search (Tessel's repetend enumeration, the schedule-search
/// daemon) issues dozens to thousands of solver invocations per run; these
/// totals summarise them for observability endpoints without keeping every
/// individual [`SolveStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverTotals {
    /// Solver invocations recorded.
    pub solves: u64,
    /// Branch-and-bound nodes expanded across all solves.
    pub nodes: u64,
    /// Nodes pruned by the makespan lower bound.
    pub pruned_bound: u64,
    /// Nodes pruned by state dominance.
    pub pruned_dominance: u64,
    /// Subtree tasks stolen between parallel workers.
    pub steals: u64,
    /// Dominance prunes served by a record another worker inserted.
    pub shared_memo_hits: u64,
    /// Contention events — lost CAS races, discarded seqlock reads, skipped
    /// mid-build segments — in the lock-free shared dominance table (see
    /// [`SolveStats::cas_retries`]).
    #[serde(default)]
    pub cas_retries: u64,
    /// Steal attempts that found the victim's deque held (see
    /// [`SolveStats::steal_failures`]).
    #[serde(default)]
    pub steal_failures: u64,
    /// Finish vectors a full dominance memo declined to record (see
    /// [`SolveStats::memo_drops`]).
    #[serde(default)]
    pub memo_drops: u64,
    /// Microseconds spent in serial warm-start probes (see
    /// [`SolveStats::warmstart_micros`]).
    #[serde(default)]
    pub warmstart_micros: u64,
    /// Microseconds spent in parallel search phases (see
    /// [`SolveStats::parallel_micros`]).
    #[serde(default)]
    pub parallel_micros: u64,
}

impl SolverTotals {
    /// Folds one solve's statistics into the totals.
    pub fn absorb(&mut self, stats: &SolveStats) {
        self.solves += 1;
        self.nodes += stats.nodes;
        self.pruned_bound += stats.pruned_bound;
        self.pruned_dominance += stats.pruned_dominance;
        self.steals += stats.steals;
        self.shared_memo_hits += stats.shared_memo_hits;
        self.cas_retries += stats.cas_retries;
        self.steal_failures += stats.steal_failures;
        self.memo_drops += stats.memo_drops;
        self.warmstart_micros += stats.warmstart_micros;
        self.parallel_micros += stats.parallel_micros;
    }

    /// Adds another totals record (e.g. from a different search run).
    pub fn merge(&mut self, other: &SolverTotals) {
        self.solves += other.solves;
        self.nodes += other.nodes;
        self.pruned_bound += other.pruned_bound;
        self.pruned_dominance += other.pruned_dominance;
        self.steals += other.steals;
        self.shared_memo_hits += other.shared_memo_hits;
        self.cas_retries += other.cas_retries;
        self.steal_failures += other.steal_failures;
        self.memo_drops += other.memo_drops;
        self.warmstart_micros += other.warmstart_micros;
        self.parallel_micros += other.parallel_micros;
    }
}

/// Shareable accumulator of [`SolverTotals`] across solver invocations.
///
/// Attach a clone via [`SolverConfig::stats_sink`] and every solve records its
/// final [`SolveStats`] into the shared totals on completion — including
/// solves issued concurrently from several threads (the portfolio search).
/// Cloning shares the underlying accumulator, like [`CancelToken`].
///
/// [`SolverConfig::stats_sink`]: crate::SolverConfig::stats_sink
/// [`CancelToken`]: crate::CancelToken
#[derive(Debug, Clone, Default)]
pub struct StatsSink {
    totals: Arc<Mutex<SolverTotals>>,
}

impl StatsSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// Records one completed solve (called by the solver; once per solve, so
    /// the mutex is far off the hot path).
    pub fn record(&self, stats: &SolveStats) {
        self.totals.lock().expect("stats sink lock").absorb(stats);
    }

    /// A copy of the totals accumulated so far.
    #[must_use]
    pub fn totals(&self) -> SolverTotals {
        *self.totals.lock().expect("stats sink lock")
    }
}

/// Callback invoked whenever a solve records a strictly improving incumbent.
///
/// Attach a clone via [`SolverConfig::incumbent_sink`] and the solver reports
/// every genuine improvement of its best-known makespan — the greedy seeds at
/// the root and each incumbent the branch loop records. In the work-stealing
/// parallel search only improvements that win the shared atomic-bound
/// compare-and-swap are reported, so callbacks observe a strictly decreasing
/// makespan sequence per solve rather than per-worker noise. The callback runs
/// on the solver thread that found the incumbent: keep it non-blocking (push
/// into a bounded channel, update an atomic) — incumbents are rare relative
/// to node expansions, but a slow callback still stalls that worker.
///
/// Like [`StatsSink`], cloning shares the underlying callback.
///
/// [`SolverConfig::incumbent_sink`]: crate::SolverConfig::incumbent_sink
#[derive(Clone)]
pub struct IncumbentSink {
    callback: Arc<dyn Fn(u64) + Send + Sync>,
}

impl IncumbentSink {
    /// Wraps a callback receiving each improving makespan.
    pub fn new(callback: impl Fn(u64) + Send + Sync + 'static) -> Self {
        IncumbentSink {
            callback: Arc::new(callback),
        }
    }

    /// Reports one improving incumbent makespan.
    pub fn report(&self, makespan: u64) {
        (self.callback)(makespan);
    }
}

impl std::fmt::Debug for IncumbentSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncumbentSink").finish_non_exhaustive()
    }
}

mod duration_serde {
    use serde::{Deserialize, Error, Value, Writer};
    use std::time::Duration;

    pub fn serialize(d: &Duration, writer: &mut Writer<'_>) {
        writer.f64(d.as_secs_f64());
    }

    pub fn deserialize(value: &Value) -> Result<Duration, Error> {
        let secs = f64::from_value(value)?;
        Ok(Duration::from_secs_f64(secs.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_sums_both_sources() {
        let stats = SolveStats {
            pruned_bound: 3,
            pruned_dominance: 4,
            ..SolveStats::default()
        };
        assert_eq!(stats.pruned(), 7);
    }

    #[test]
    fn stats_serialize_round_trip() {
        let stats = SolveStats {
            nodes: 10,
            pruned_bound: 1,
            pruned_dominance: 2,
            incumbents: 3,
            steals: 6,
            shared_memo_hits: 5,
            cas_retries: 9,
            steal_failures: 8,
            memo_drops: 7,
            warmstart_micros: 120,
            parallel_micros: 4500,
            elapsed: Duration::from_millis(1500),
            complete: true,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: SolveStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes, 10);
        assert_eq!(back.steals, 6);
        assert_eq!(back.shared_memo_hits, 5);
        assert_eq!(back.cas_retries, 9);
        assert_eq!(back.steal_failures, 8);
        assert_eq!(back.memo_drops, 7);
        assert_eq!(back.warmstart_micros, 120);
        assert_eq!(back.parallel_micros, 4500);
        assert!(back.complete);
        assert!((back.elapsed.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn contention_counters_default_when_absent() {
        // Documents persisted before the lock-free counters existed (daemon
        // journals, cached bench sections) must keep deserializing, with the
        // new counters defaulting to zero.
        let json = r#"{"solves":2,"nodes":100,"pruned_bound":10,
                       "pruned_dominance":20,"steals":3,"shared_memo_hits":7}"#;
        let back: SolverTotals = serde_json::from_str(json).unwrap();
        assert_eq!(back.nodes, 100);
        assert_eq!(back.cas_retries, 0);
        assert_eq!(back.steal_failures, 0);
        assert_eq!(back.memo_drops, 0);
        assert_eq!(back.warmstart_micros, 0);
        assert_eq!(back.parallel_micros, 0);
    }

    #[test]
    fn default_is_empty() {
        let stats = SolveStats::default();
        assert_eq!(stats.nodes, 0);
        assert!(!stats.complete);
        assert_eq!(stats.elapsed, Duration::ZERO);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.shared_memo_hits, 0);
    }

    #[test]
    fn sink_accumulates_across_clones() {
        let sink = StatsSink::new();
        let clone = sink.clone();
        clone.record(&SolveStats {
            nodes: 10,
            pruned_bound: 2,
            pruned_dominance: 3,
            steals: 4,
            shared_memo_hits: 1,
            cas_retries: 6,
            steal_failures: 7,
            memo_drops: 8,
            ..SolveStats::default()
        });
        sink.record(&SolveStats {
            nodes: 5,
            ..SolveStats::default()
        });
        let totals = sink.totals();
        assert_eq!(totals.solves, 2);
        assert_eq!(totals.nodes, 15);
        assert_eq!(totals.pruned_bound, 2);
        assert_eq!(totals.pruned_dominance, 3);
        assert_eq!(totals.steals, 4);
        assert_eq!(totals.shared_memo_hits, 1);
        assert_eq!(totals.cas_retries, 6);
        assert_eq!(totals.steal_failures, 7);
        assert_eq!(totals.memo_drops, 8);

        let mut merged = SolverTotals::default();
        merged.merge(&totals);
        merged.merge(&totals);
        assert_eq!(merged.solves, 4);
        assert_eq!(merged.nodes, 30);
        assert_eq!(merged.cas_retries, 12);
        assert_eq!(merged.steal_failures, 14);
        assert_eq!(merged.memo_drops, 16);
    }

    #[test]
    fn incumbent_sink_shares_the_callback_across_clones() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            IncumbentSink::new(move |m| seen.lock().unwrap().push(m))
        };
        let clone = sink.clone();
        sink.report(10);
        clone.report(7);
        assert_eq!(*seen.lock().unwrap(), vec![10, 7]);
        // Debug must not try to print the closure.
        assert!(format!("{sink:?}").contains("IncumbentSink"));
    }

    #[test]
    fn totals_serialize_round_trip() {
        let totals = SolverTotals {
            solves: 2,
            nodes: 100,
            pruned_bound: 10,
            pruned_dominance: 20,
            steals: 3,
            shared_memo_hits: 7,
            cas_retries: 1,
            steal_failures: 2,
            memo_drops: 3,
            warmstart_micros: 4,
            parallel_micros: 5,
        };
        let json = serde_json::to_string(&totals).unwrap();
        let back: SolverTotals = serde_json::from_str(&json).unwrap();
        assert_eq!(back, totals);
    }
}
