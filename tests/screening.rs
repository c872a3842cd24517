//! The candidate screen changes how fast the search rejects a candidate, never
//! what the search returns.
//!
//! The oracle here is Algorithm 1's candidate loop (serial, lazy) with no
//! screen in front of `solve_repetend`, written out over `core`'s public
//! functions. It is the only unscreened loop in the repository. The searches
//! under test must return its winner exactly — candidate, start times,
//! period, `chosen_nr`, `early_exit` — and account for every candidate it
//! pulled as either screened or solved.

use tessel::core::completion::{
    cooldown_blocks, cooldown_entry_memory, probe_phase, warmup_blocks,
};
use tessel::core::ir::{BlockKind, PlacementSpec};
use tessel::core::repetend::{candidate_iter, solve_repetend, Repetend};
use tessel::core::search::{SearchConfig, SearchOutcome, TesselSearch};
use tessel::core::CoreError;
use tessel::placement::shapes::{synthetic_placement, ShapeKind};
use tessel::solver::{Solver, SolverConfig};

/// Serial search with every thread count explicit, so `TESSEL_TEST_THREADS`
/// cannot change which of several equally short schedules a solve returns.
fn config(micro_batches: usize, max_repetend: usize) -> SearchConfig {
    SearchConfig::default()
        .with_micro_batches(micro_batches)
        .with_max_repetend_micro_batches(max_repetend)
        .with_portfolio_threads(1)
        .with_solver_threads(1)
}

/// What the unscreened loop found.
struct Reference {
    repetend: Repetend,
    chosen_nr: usize,
    early_exit: bool,
}

/// Lines 1-19 of Algorithm 1 without the screen. Returns the winner (if any)
/// and the number of candidates pulled.
fn unscreened_reference(
    placement: &PlacementSpec,
    config: &SearchConfig,
) -> (Option<Reference>, usize) {
    let repetend_solver = Solver::new(config.repetend_solver.clone());
    let probe_solver = Solver::new(SolverConfig::probe().with_threads(1));
    let n = config.num_micro_batches;
    let mut optimal = placement.total_block_time() + 1;
    let lower_bound = placement.repetend_lower_bound();
    let inflights = placement
        .max_inflight_micro_batches(config.max_repetend_micro_batches)
        .min(config.max_repetend_micro_batches)
        .min(n)
        .max(1);
    let mut best = None;
    let mut pulled = 0;
    for nr in 1..=inflights {
        let limit = config.candidate_limit.unwrap_or(usize::MAX);
        for candidate in candidate_iter(placement, nr).take(limit) {
            pulled += 1;
            let solved = solve_repetend(placement, &candidate, &repetend_solver, optimal).unwrap();
            let Some(repetend) = solved.filter(|r| r.period < optimal) else {
                continue;
            };
            let copies = n.max(nr) - nr + 1;
            let feasible = probe_phase(
                placement,
                &warmup_blocks(&repetend.candidate),
                vec![0; placement.num_devices()],
                &probe_solver,
            )
            .unwrap()
                && probe_phase(
                    placement,
                    &cooldown_blocks(&repetend.candidate),
                    cooldown_entry_memory(placement, &repetend.candidate, copies),
                    &probe_solver,
                )
                .unwrap();
            if !feasible {
                continue;
            }
            optimal = repetend.period;
            let early_exit = optimal <= lower_bound;
            best = Some(Reference {
                repetend,
                chosen_nr: nr,
                early_exit,
            });
            if early_exit {
                return (best, pulled);
            }
        }
    }
    (best, pulled)
}

/// Runs the screened search serially and with two portfolio workers and holds
/// both against the unscreened reference.
fn assert_matches_reference(what: &str, placement: &PlacementSpec, config: &SearchConfig) {
    let (reference, pulled) = unscreened_reference(placement, config);
    let serial = TesselSearch::new(config.clone()).run(placement);
    let portfolio = TesselSearch::new(config.clone().with_portfolio_threads(2)).run(placement);
    let Some(reference) = reference else {
        assert!(
            matches!(serial, Err(CoreError::NoFeasibleRepetend)),
            "{what}: {serial:?}"
        );
        assert!(
            matches!(portfolio, Err(CoreError::NoFeasibleRepetend)),
            "{what}: {portfolio:?}"
        );
        return;
    };
    let serial: SearchOutcome = serial.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(serial.repetend, reference.repetend, "{what}");
    assert_eq!(serial.stats.chosen_nr, reference.chosen_nr, "{what}");
    assert_eq!(serial.stats.early_exit, reference.early_exit, "{what}");
    assert_eq!(serial.stats.candidates_considered, pulled, "{what}");
    assert_eq!(
        serial.stats.candidates_screened + serial.stats.repetend_solves,
        pulled,
        "{what}"
    );
    serial.schedule.validate(placement).unwrap();

    let portfolio = portfolio.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        portfolio.repetend.period, reference.repetend.period,
        "{what}"
    );
    assert_eq!(
        portfolio.stats.candidates_considered,
        portfolio.stats.candidates_screened + portfolio.stats.repetend_solves,
        "{what}"
    );
    portfolio.schedule.validate(placement).unwrap();
}

#[test]
fn screened_search_matches_the_unscreened_reference_on_every_shape() {
    for shape in ShapeKind::all() {
        let placement = synthetic_placement(shape, 4).unwrap();
        assert_matches_reference(&format!("{shape:?}4"), &placement, &config(8, 6));
    }
}

/// A seeded random placement: 2-4 devices, a forward half and a backward half
/// of 2-4 blocks each (block `i` of the backward half releases what block `i`
/// of the forward half allocated, on the same devices), random edges inside
/// the forward half mirrored in the backward half, times 1-4, occasional
/// two-device blocks, and on some seeds a memory capacity.
fn random_placement(seed: u64) -> PlacementSpec {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x005c_7ee4;
    let mut below = move |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) % n
    };
    let devices = 2 + below(3) as usize;
    let half = 2 + below(3) as usize;
    let mut b = PlacementSpec::builder(format!("random-{seed}"), devices);
    if below(2) == 0 {
        b.set_memory_capacity(Some(2 + below(4) as i64));
    }
    let mut forward_devices = Vec::with_capacity(half);
    let mut forward_deps: Vec<Vec<usize>> = Vec::with_capacity(half);
    for i in 0..half {
        let mut devs = vec![below(devices as u64) as usize];
        if below(5) == 0 {
            devs.push((devs[0] + 1) % devices);
        }
        let deps: Vec<usize> = (0..i).filter(|_| below(2) == 0).collect();
        b.add_block(
            format!("f{i}"),
            BlockKind::Forward,
            devs.clone(),
            1 + below(4),
            1,
            deps.clone(),
        )
        .unwrap();
        forward_devices.push(devs);
        forward_deps.push(deps);
    }
    // Backward block of forward block `i` has index `2 * half - 1 - i`; it
    // waits for its forward block and for the backward blocks of everything
    // that consumed that forward block.
    for i in (0..half).rev() {
        let mut deps = vec![i];
        deps.extend(
            (i + 1..half)
                .filter(|&j| forward_deps[j].contains(&i))
                .map(|j| 2 * half - 1 - j),
        );
        b.add_block(
            format!("b{i}"),
            BlockKind::Backward,
            forward_devices[i].clone(),
            1 + below(4),
            -1,
            deps,
        )
        .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn screened_search_matches_the_unscreened_reference_on_random_placements() {
    let mut searched = 0;
    for seed in 0..40u64 {
        let placement = random_placement(seed);
        let (reference, _) = unscreened_reference(&placement, &config(6, 3));
        searched += usize::from(reference.is_some());
        assert_matches_reference(&format!("seed {seed}"), &placement, &config(6, 3));
    }
    assert!(
        searched >= 30,
        "only {searched} of 40 seeds were searchable"
    );
}

/// The counters that do not depend on the host, pinned exactly: the suite
/// entries of the benchmark's `search_cold` in identity labeling.
#[test]
fn search_counters_are_pinned() {
    // The lazy probes run `SolverConfig::probe()`, whose thread count (and so
    // node count) follows `TESSEL_TEST_THREADS`; the other three columns do
    // not depend on it.
    let nodes_are_exact = std::env::var_os("TESSEL_TEST_THREADS").is_none();
    // (shape, devices, NR cap) -> (considered, screened, solved), solver nodes
    let pins = [
        (ShapeKind::V, 4, 6, (500, 494, 6), 355),
        (ShapeKind::M, 4, 6, (1456, 1444, 12), 6_482),
        (ShapeKind::K, 8, 4, (13_700, 13_694, 6), 1_787),
    ];
    for (shape, devices, nr, candidates, nodes) in pins {
        let placement = synthetic_placement(shape, devices).unwrap();
        let stats = TesselSearch::new(config(8, nr))
            .run(&placement)
            .unwrap()
            .stats;
        assert_eq!(
            (
                stats.candidates_considered,
                stats.candidates_screened,
                stats.repetend_solves,
            ),
            candidates,
            "{shape:?}{devices}"
        );
        if nodes_are_exact {
            assert_eq!(stats.solver.nodes, nodes, "{shape:?}{devices}");
        }
    }
}
