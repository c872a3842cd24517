//! The live board tells the truth: a search wired the way the daemon wires
//! a request's search (`ScheduleService::run_search`: one solver thread, the
//! request's board on `SearchConfig::progress`) ends with
//!
//! * the board's incumbent equal to the period it returns,
//! * one recorded incumbent per improving repetend, and
//! * the board's live node count equal to the run's solver totals,
//!
//! across the five synthetic shapes, 2–4 devices, six memory caps, three
//! micro-batch counts and three `NR` limits: 810 searches, under a second
//! in a debug build.

use tessel::core::search::{SearchConfig, TesselSearch};
use tessel::core::CoreError;
use tessel::placement::shapes::{synthetic_placement, ShapeKind};
use tessel::solver::ProgressBoard;

/// One search of the sweep; what its board got wrong, if anything.
fn check(kind: ShapeKind, devices: usize, cap: Option<i64>, n: usize, nr: usize) -> Option<String> {
    let placement = synthetic_placement(kind, devices)
        .expect("placement")
        .with_memory_capacity(cap);
    let board = ProgressBoard::new();
    let config = SearchConfig {
        progress: Some(board.clone()),
        ..SearchConfig::default()
            .with_micro_batches(n)
            .with_max_repetend_micro_batches(nr)
            .with_solver_threads(1)
    };
    let case = format!("{kind}/{devices} cap {cap:?} N {n} NR {nr}");
    let failure = match TesselSearch::new(config).run(&placement) {
        Ok(outcome) => {
            let snap = board.snapshot();
            let (stats, period) = (&outcome.stats, outcome.repetend.period);
            let truthful = snap.incumbent == Some(period)
                && snap.incumbents == stats.improving_repetends as u64
                && snap.nodes == stats.solver.nodes;
            if truthful {
                return None;
            }
            format!(
                "{case}: board {snap:?}, period {period}, improving {}, solver nodes {}",
                stats.improving_repetends, stats.solver.nodes
            )
        }
        // No repetend fits: nothing may have been recorded as found.
        Err(CoreError::NoFeasibleRepetend) => {
            let snap = board.snapshot();
            if snap.incumbent.is_none() && snap.incumbents == 0 {
                return None;
            }
            format!("{case}: no repetend, yet the board shows {snap:?}")
        }
        Err(e) => format!("{case}: {e}"),
    };
    Some(failure)
}

#[test]
fn the_board_tells_the_truth() {
    let mut searches = 0;
    let mut failures = Vec::new();
    for kind in ShapeKind::all() {
        for devices in [2, 3, 4] {
            for cap in [None, Some(2), Some(3), Some(4), Some(6), Some(8)] {
                for n in [4, 6, 8] {
                    for nr in [2, 3, 4] {
                        searches += 1;
                        failures.extend(check(kind, devices, cap, n, nr));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {searches} boards disagree with their search:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
