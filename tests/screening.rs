//! The candidate screen, and the bound inside the enumeration, change how
//! fast the search rejects a candidate, never what the search returns.
//!
//! The oracle here is Algorithm 1's candidate loop (serial, lazy) over the
//! unpruned enumeration with no screen in front of `solve_repetend`, written
//! out over `core`'s public functions. It is the only such loop in the
//! repository. The searches under test must return its winner exactly —
//! candidate, start times, period, `chosen_nr`, `early_exit` — and account
//! for every candidate they were handed as either screened or solved. The
//! pruned enumeration on its own is held against the unpruned one: under
//! every bound the reference passes through, it skips exactly the candidates
//! the screen refutes by device load or critical path.

use tessel::core::completion::{
    cooldown_blocks, cooldown_entry_memory, probe_phase, warmup_blocks,
};
use tessel::core::ir::{BlockKind, PlacementSpec};
use tessel::core::repetend::{candidate_iter, solve_repetend, Repetend, RepetendCandidate};
use tessel::core::screen::{CandidateScreen, ScreenStage};
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
        .with_solver_threads(1)
}

/// The winner of the unscreened loop.
struct Winner {
    repetend: Repetend,
    chosen_nr: usize,
    early_exit: bool,
}

/// What the unscreened loop did.
struct Reference {
    winner: Option<Winner>,
    /// Candidates pulled from the unpruned enumeration.
    pulled: usize,
    /// Every value the bound took, from `total_block_time + 1` down to the
    /// winning period.
    bounds: Vec<u64>,
    /// The last `NR` level it enumerated.
    levels: usize,
}

/// Lines 1-19 of Algorithm 1 without the screen.
fn unscreened_reference(placement: &PlacementSpec, config: &SearchConfig) -> Reference {
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
    let mut reference = Reference {
        winner: None,
        pulled: 0,
        bounds: vec![optimal],
        levels: inflights,
    };
    for nr in 1..=inflights {
        let limit = config.candidate_limit.unwrap_or(usize::MAX);
        for candidate in candidate_iter(placement, nr).take(limit) {
            reference.pulled += 1;
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
            reference.bounds.push(optimal);
            let early_exit = optimal <= lower_bound;
            reference.winner = Some(Winner {
                repetend,
                chosen_nr: nr,
                early_exit,
            });
            if early_exit {
                reference.levels = nr;
                return reference;
            }
        }
    }
    reference
}

/// Runs the search and holds it against the unscreened reference. No
/// candidate limit: under one the pruned enumeration reaches further than the
/// reference does.
fn assert_matches_reference(what: &str, placement: &PlacementSpec, config: &SearchConfig) {
    assert_eq!(config.candidate_limit, None, "{what}");
    let reference = unscreened_reference(placement, config);
    let serial = TesselSearch::new(config.clone()).run(placement);
    let Some(winner) = reference.winner else {
        assert!(
            matches!(serial, Err(CoreError::NoFeasibleRepetend)),
            "{what}: {serial:?}"
        );
        return;
    };
    let serial: SearchOutcome = serial.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(serial.repetend, winner.repetend, "{what}");
    assert_eq!(serial.stats.chosen_nr, winner.chosen_nr, "{what}");
    assert_eq!(serial.stats.early_exit, winner.early_exit, "{what}");
    // Every candidate the reference pulled was handed to the candidate loop
    // or lies under a refuted prefix.
    assert!(
        serial.stats.candidates_considered <= reference.pulled,
        "{what}"
    );
    assert_eq!(
        serial.stats.candidates_considered,
        serial.stats.candidates_screened + serial.stats.repetend_solves,
        "{what}"
    );
    // The enumeration already refuted every prefix whose load-seeded chain
    // reaches the bound, and nothing lowers the bound between a pull and its
    // screen, so the screen's first two stages never refute.
    let by = serial.stats.screened_by;
    assert!(by.load == 0 && by.critical_path == 0, "{what}: {by:?}");
    serial.schedule.validate(placement).unwrap();
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
        let reference = unscreened_reference(&placement, &config(6, 3));
        searched += usize::from(reference.winner.is_some());
        assert_matches_reference(&format!("seed {seed}"), &placement, &config(6, 3));
    }
    assert!(
        searched >= 30,
        "only {searched} of 40 seeds were searchable"
    );
}

/// The head of every block of `candidate` over the edges it keeps, from the
/// definition: the longest kept chain ending just before the block.
fn reference_heads(placement: &PlacementSpec, candidate: &RepetendCandidate) -> Vec<u64> {
    let indices = &candidate.indices;
    let mut heads = vec![0; placement.num_blocks()];
    for stage in placement.topological_stages() {
        for &dep in &placement.block(stage).deps {
            if indices[dep] == indices[stage] {
                heads[stage] = heads[stage].max(heads[dep] + placement.block(dep).time);
            }
        }
    }
    heads
}

/// What a run of the pruned-stream oracle reached.
#[derive(Debug, Default)]
struct Reached {
    /// Candidates `next_below` returned and candidates it skipped.
    leaves: usize,
    skipped: usize,
    /// Prefixes it refuted to skip them.
    subtrees: usize,
}

/// Holds `next_below` at level `nr` against `all`, the unpruned enumeration
/// of that level: walking down `bounds` (one step every `leaves_per_bound`
/// leaves, then staying on the last), every candidate a call skips is one the
/// screen refutes below that call's bound by device load or critical path,
/// and the candidate it returns is not — so under one constant bound the
/// pruned stream is exactly the unpruned one filtered by those two stages.
fn assert_stream_skips_only_the_refuted(
    at: &str,
    placement: &PlacementSpec,
    nr: usize,
    all: &[RepetendCandidate],
    bounds: &[u64],
    leaves_per_bound: usize,
    reached: &mut Reached,
) {
    let mut screen = CandidateScreen::new(placement);
    let mut refuted = |candidate: &RepetendCandidate, below: u64| {
        matches!(
            screen.refutes(candidate, below),
            Some(ScreenStage::Load | ScreenStage::CriticalPath)
        )
    };
    let mut stream = candidate_iter(placement, nr);
    let mut unpruned = all.iter();
    let mut leaves = 0;
    loop {
        let below = bounds[(leaves / leaves_per_bound).min(bounds.len() - 1)];
        let at = format!("{at} nr {nr} below {below} after {leaves} leaves\n{placement:?}");
        let leaf = stream.next_below(below);
        let mut in_order = leaf.is_none();
        for candidate in unpruned.by_ref() {
            if Some(candidate) == leaf.as_ref() {
                in_order = true;
                break;
            }
            assert!(refuted(candidate, below), "skipped {candidate:?}: {at}");
            reached.skipped += 1;
        }
        assert!(in_order, "{leaf:?} is not next in the enumeration: {at}");
        let Some(leaf) = leaf else { break };
        assert!(!refuted(&leaf, below), "returned {leaf:?}: {at}");
        assert_eq!(stream.heads(), reference_heads(placement, &leaf), "{at}");
        leaves += 1;
    }
    reached.leaves += leaves;
    reached.subtrees += stream.subtrees_pruned();
}

/// The pruned-stream oracle on one placement: every level the unscreened
/// reference enumerates, under every bound it passes through and under none,
/// each held constant, and once tightening through all of them.
fn assert_pruned_stream_matches(
    at: &str,
    placement: &PlacementSpec,
    config: &SearchConfig,
    reached: &mut Reached,
) {
    let reference = unscreened_reference(placement, config);
    for nr in 1..=reference.levels {
        let all: Vec<RepetendCandidate> = candidate_iter(placement, nr).collect();
        for below in reference.bounds.iter().copied().chain([u64::MAX]) {
            assert_stream_skips_only_the_refuted(at, placement, nr, &all, &[below], 1, reached);
        }
        assert_stream_skips_only_the_refuted(
            at,
            placement,
            nr,
            &all,
            &reference.bounds,
            2,
            reached,
        );
    }
}

/// The first seed of the random half of the oracle: `TESSEL_FUZZ_SEED`
/// (decimal or 0x-hex), or the pinned default.
fn first_seed() -> u64 {
    let raw = std::env::var("TESSEL_FUZZ_SEED").ok();
    let parsed = raw
        .as_deref()
        .map(str::trim)
        .and_then(|raw| match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => raw.parse().ok(),
        });
    parsed.unwrap_or(0xf16e_4a44)
}

fn pruned_stream_oracle(seeds: u64) -> Reached {
    let mut reached = Reached::default();
    for shape in ShapeKind::all() {
        let placement = synthetic_placement(shape, 4).unwrap();
        assert_pruned_stream_matches(
            &format!("{shape:?}4"),
            &placement,
            &config(8, 6),
            &mut reached,
        );
    }
    let first = first_seed();
    for seed in first..first + seeds {
        let at = format!("TESSEL_FUZZ_SEED={seed:#x}");
        assert_pruned_stream_matches(&at, &random_placement(seed), &config(6, 3), &mut reached);
    }
    reached
}

#[test]
fn pruned_stream_is_the_enumeration_less_what_the_screen_refutes_first() {
    let reached = pruned_stream_oracle(300);
    // The oracle has to reach its subject: bounds that bind, in the tree.
    assert!(
        reached.leaves > 10_000 && reached.skipped > 10_000 && reached.subtrees > 5_000,
        "TESSEL_FUZZ_SEED={:#x}: {reached:?}",
        first_seed()
    );
}

/// Reproduce a failure with `TESSEL_FUZZ_SEED=<seed> cargo test --release
/// --test screening pruned_stream -- --include-ignored`.
#[test]
#[ignore = "2,000 placements; CI's fuzz job runs it in release"]
fn pruned_stream_matches_on_2000_seeds() {
    let reached = pruned_stream_oracle(2000);
    eprintln!("TESSEL_FUZZ_SEED={:#x}: {reached:?}", first_seed());
}

/// The counters that do not depend on the host, pinned exactly: the suite
/// entries of the benchmark's `search_cold` in identity labeling.
#[test]
fn search_counters_are_pinned() {
    // (shape, devices, NR cap) -> (considered, screened, solved, subtrees
    // pruned), solver nodes. Before the enumeration pruned, the first two
    // columns read 500 / 494, 1456 / 1444 and 13,700 / 13,694: every
    // candidate missing here the screen refuted at its critical-path stage.
    // The nodes are the repetend solves' and the final phases' only — 355,
    // 6,482 and 1,787 while the lazy probes still ran `satisfy`; without a
    // memory capacity a probe is answered by proof — so `TESSEL_TEST_THREADS`
    // cannot move them.
    let pins = [
        (ShapeKind::V, 4, 6, (9, 3, 6, 529), 257),
        (ShapeKind::M, 4, 6, (630, 618, 12, 1_088), 6_306),
        (ShapeKind::K, 8, 4, (1_302, 1_296, 6, 3_054), 1_615),
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
                stats.subtrees_pruned,
            ),
            candidates,
            "{shape:?}{devices}"
        );
        assert_eq!(stats.solver.nodes, nodes, "{shape:?}{devices}");
    }
}
