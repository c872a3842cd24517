//! Correctness battery for the exact individualisation-refinement canonical
//! labeling (`tessel::core::fingerprint`).
//!
//! Four layers of evidence, from cheapest to most adversarial:
//!
//! 1. **Exhaustive invariance** — every built-in shape at ≤ 6 devices is
//!    canonicalized under *all* `d!` device relabelings (and, where the count
//!    is enumerable, all topological block orders); every image must produce
//!    the byte-identical canonical placement.
//! 2. **Randomized invariance** — 500 LCG-generated placements with random
//!    DAGs and attributes, each compared against a random relabeling.
//! 3. **Refinement-strength separation** — WL-equivalent but non-isomorphic
//!    placement pairs (regular-graph gadgets the 1-WL colour refinement
//!    provably cannot split) collide under `wl_fingerprint()` and separate
//!    under the exact labeling, and the exact labeling never *merges* what
//!    WL distinguished.
//! 4. **Pruning soundness** — the automorphism-pruned search agrees with the
//!    unpruned search leaf-for-leaf on the winning canonical form while
//!    exploring strictly fewer leaves than the factorial bound.
//! 5. **The labeling alone** — `canonical_labeling_budgeted` decides exactly
//!    what `canonicalize()` does, the canonical placement built from it later
//!    is the eager one, and both still equal what `canonicalize()` returned
//!    before the two were split (a digest recorded then).
//!
//! The `#[ignore]`d 10k-instance fuzzes at the bottom are run by the
//! `fingerprint-stress` CI job with a pinned `TESSEL_FUZZ_SEED`; on failure
//! the seed and instance index are in the panic message for reproduction.

use tessel::core::fingerprint::{Fingerprint, DEFAULT_NODE_BUDGET};
use tessel::core::ir::{BlockKind, BlockSpec, PlacementSpec};
use tessel::placement::shapes::{synthetic_placement, ShapeKind};

// ---------------------------------------------------------------------------
// Deterministic randomness: a hand-rolled LCG so the suite needs no external
// crates and every failure reproduces from one printed seed.
// ---------------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixpoint of the multiplier-only path.
        Lcg(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        // Knuth's MMIX constants; the high bits are well mixed.
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn random_perm(rng: &mut Lcg, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A random topological order of the placement's blocks (Kahn's algorithm
/// with random tie-breaking).
fn random_topo_order(rng: &mut Lcg, placement: &PlacementSpec) -> Vec<usize> {
    let k = placement.num_blocks();
    let mut indegree: Vec<usize> = (0..k).map(|i| placement.block(i).deps.len()).collect();
    let mut ready: Vec<usize> = (0..k).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(k);
    while !ready.is_empty() {
        let pick = rng.below(ready.len() as u64) as usize;
        let block = ready.swap_remove(pick);
        order.push(block);
        for dependent in placement.dependents(block) {
            indegree[dependent] -= 1;
            if indegree[dependent] == 0 {
                ready.push(dependent);
            }
        }
    }
    assert_eq!(order.len(), k, "placement must be acyclic");
    order
}

/// All permutations of `0..n` (Heap's algorithm). Callers keep `n ≤ 6`.
fn all_perms(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap(n, &mut items, &mut out);
    out
}

/// All topological orders of the placement, or `None` once more than `cap`
/// would be produced (backtracking enumeration).
fn all_topo_orders(placement: &PlacementSpec, cap: usize) -> Option<Vec<Vec<usize>>> {
    fn go(
        placement: &PlacementSpec,
        indegree: &mut Vec<usize>,
        prefix: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
        cap: usize,
    ) -> bool {
        if prefix.len() == placement.num_blocks() {
            if out.len() == cap {
                return false;
            }
            out.push(prefix.clone());
            return true;
        }
        for i in 0..placement.num_blocks() {
            if used[i] || indegree[i] != 0 {
                continue;
            }
            used[i] = true;
            prefix.push(i);
            for dependent in placement.dependents(i) {
                indegree[dependent] -= 1;
            }
            let ok = go(placement, indegree, prefix, used, out, cap);
            for dependent in placement.dependents(i) {
                indegree[dependent] += 1;
            }
            prefix.pop();
            used[i] = false;
            if !ok {
                return false;
            }
        }
        true
    }
    let k = placement.num_blocks();
    let mut indegree: Vec<usize> = (0..k).map(|i| placement.block(i).deps.len()).collect();
    let mut out = Vec::new();
    go(
        placement,
        &mut indegree,
        &mut Vec::new(),
        &mut vec![false; k],
        &mut out,
        cap,
    )
    .then_some(out)
}

// ---------------------------------------------------------------------------
// Random placement instances.
// ---------------------------------------------------------------------------

/// A random connected-ish DAG placement: 2–5 devices, 3–12 blocks, each block
/// on 1–2 devices with random kind/time/memory/flops/output bytes and random
/// backward edges into earlier blocks.
fn random_instance(rng: &mut Lcg, tag: u64) -> PlacementSpec {
    let devices = 2 + rng.below(4) as usize;
    let blocks = 3 + rng.below(10) as usize;
    let mut b = PlacementSpec::builder(format!("lcg-{tag}"), devices);
    if rng.below(2) == 0 {
        b.set_memory_capacity(Some(4 + rng.below(12) as i64));
    }
    for i in 0..blocks {
        let kind = if rng.below(2) == 0 {
            BlockKind::Forward
        } else {
            BlockKind::Backward
        };
        let mut devs = vec![rng.below(devices as u64) as usize];
        if rng.below(3) == 0 {
            let other = rng.below(devices as u64) as usize;
            if !devs.contains(&other) {
                devs.push(other);
            }
        }
        let mut deps = Vec::new();
        if i > 0 {
            for _ in 0..rng.below(3) {
                let dep = rng.below(i as u64) as usize;
                if !deps.contains(&dep) {
                    deps.push(dep);
                }
            }
        }
        // Memory stays non-negative so any capacity bound is satisfiable.
        let spec = BlockSpec::new(format!("blk{i}"), kind, devs, 1 + rng.below(9), {
            rng.below(3) as i64
        })
        .with_deps(deps)
        .with_flops(rng.below(5) as f64 * 1e9)
        .with_output_bytes(rng.below(4) * 512);
        b.push_block(spec).unwrap();
    }
    b.build().unwrap()
}

/// Asserts that `placement` and one random `(device, block)` relabeling of it
/// agree on the exact fingerprint, the full canonical placement, and the WL
/// fingerprint. `context` lands in the panic message (seed + index).
fn assert_invariant_under_random_relabeling(
    rng: &mut Lcg,
    placement: &PlacementSpec,
    context: &str,
) {
    let device_perm = random_perm(rng, placement.num_devices());
    let block_order = random_topo_order(rng, placement);
    let permuted = placement.permuted(&device_perm, &block_order).unwrap();
    let canon = placement.canonicalize();
    let canon_permuted = permuted.canonicalize();
    assert_eq!(
        canon.fingerprint, canon_permuted.fingerprint,
        "{context}: fingerprint changed under relabeling"
    );
    assert_eq!(
        canon.placement, canon_permuted.placement,
        "{context}: canonical placement changed under relabeling"
    );
    assert_eq!(
        placement.wl_fingerprint(),
        permuted.wl_fingerprint(),
        "{context}: WL fingerprint changed under relabeling"
    );
}

// ---------------------------------------------------------------------------
// 1. Exhaustive invariance for the built-in shapes.
// ---------------------------------------------------------------------------

/// Every built-in shape at every device count ≤ 6, canonicalized under **all**
/// `d!` device relabelings: one canonical placement per shape instance.
#[test]
fn builtin_shapes_are_invariant_under_all_device_permutations() {
    for kind in ShapeKind::all() {
        for devices in 2usize..=6 {
            let placement = synthetic_placement(kind, devices).unwrap();
            let reference = placement.canonicalize();
            let identity_order: Vec<usize> = (0..placement.num_blocks()).collect();
            for perm in all_perms(devices) {
                let image = placement.permuted(&perm, &identity_order).unwrap();
                let canon = image.canonicalize();
                assert_eq!(
                    reference.fingerprint, canon.fingerprint,
                    "{kind}-{devices}: fingerprint changed under device perm {perm:?}"
                );
                assert_eq!(
                    reference.placement, canon.placement,
                    "{kind}-{devices}: canonical placement changed under device perm {perm:?}"
                );
            }
        }
    }
}

/// Where the number of topological block orders is enumerable (≤ 2000), walk
/// **all** of them — combined with a rotating device relabeling — otherwise
/// sample 50 random orders. Covers block-reordering invariance exhaustively
/// on the small instances and statistically on the big ones.
#[test]
fn builtin_shapes_are_invariant_under_block_reorderings() {
    let mut rng = Lcg::new(0x0b10_c0de);
    for kind in ShapeKind::all() {
        for devices in [2usize, 3] {
            let placement = synthetic_placement(kind, devices).unwrap();
            let reference = placement.canonicalize();
            let rotation: Vec<usize> = (0..devices).map(|d| (d + 1) % devices).collect();
            let orders: Vec<Vec<usize>> = match all_topo_orders(&placement, 2000) {
                Some(orders) => orders,
                None => (0..50)
                    .map(|_| random_topo_order(&mut rng, &placement))
                    .collect(),
            };
            for order in orders {
                let image = placement.permuted(&rotation, &order).unwrap();
                let canon = image.canonicalize();
                assert_eq!(
                    reference.fingerprint, canon.fingerprint,
                    "{kind}-{devices}: fingerprint changed under block order {order:?}"
                );
                assert_eq!(
                    reference.placement, canon.placement,
                    "{kind}-{devices}: canonical placement changed under block order {order:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Randomized invariance + 3. differential WL check, 500 instances.
// ---------------------------------------------------------------------------

/// 500 LCG-generated placements: each is invariant under a random relabeling,
/// and across the whole set the exact labeling never merges two placements
/// the WL fingerprint distinguished (WL-different ⇒ non-isomorphic ⇒ the
/// exact canonical forms must differ too).
#[test]
fn five_hundred_random_instances_are_invariant_and_never_wl_merged() {
    const SEED: u64 = 0x7e55_e1f1;
    let mut rng = Lcg::new(SEED);
    let mut seen: Vec<(Fingerprint, Fingerprint, PlacementSpec)> = Vec::new();
    for i in 0..500u64 {
        let placement = random_instance(&mut rng, i);
        assert_invariant_under_random_relabeling(
            &mut rng,
            &placement,
            &format!("seed {SEED:#x} instance {i}"),
        );
        let canon = placement.canonicalize();
        seen.push((
            placement.wl_fingerprint(),
            canon.fingerprint,
            canon.placement,
        ));
    }
    for (i, (wl_a, exact_a, canon_a)) in seen.iter().enumerate() {
        for (j, (wl_b, exact_b, canon_b)) in seen.iter().enumerate().skip(i + 1) {
            if wl_a != wl_b {
                // WL already separated the pair, so they are non-isomorphic:
                // the exact labeling must separate them as well. (Comparing
                // forms, not just 64-bit hashes, keeps the check honest.)
                assert_ne!(
                    canon_a, canon_b,
                    "instances {i} and {j}: exact labeling merged WL-distinct placements"
                );
                assert_ne!(
                    exact_a, exact_b,
                    "instances {i} and {j}: fingerprint hash collided on WL-distinct placements"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. WL-hardness: regular-graph gadgets 1-WL provably cannot split.
// ---------------------------------------------------------------------------

/// Encodes a plain graph as a placement: one device per vertex and one
/// attribute-uniform, dependency-free block per edge spanning its two
/// endpoints. Colour refinement on such a placement is exactly 1-WL on the
/// graph, so WL-equivalent graphs yield WL-equivalent placements.
fn edge_incidence_placement(
    name: &str,
    vertices: usize,
    edges: &[(usize, usize)],
) -> PlacementSpec {
    let mut b = PlacementSpec::builder(name, vertices);
    for (i, &(u, v)) in edges.iter().enumerate() {
        b.add_block(format!("e{i}"), BlockKind::Forward, [u, v], 1, 0, [])
            .unwrap();
    }
    b.build().unwrap()
}

/// C6 (one 6-cycle) vs 2×C3 (two triangles): both 2-regular on 6 vertices,
/// so 1-WL cannot split them — but one is connected and the other is not.
#[test]
fn wl_hard_pair_c6_vs_two_triangles_separates() {
    let c6 = edge_incidence_placement("c6", 6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let two_c3 =
        edge_incidence_placement("2xc3", 6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
    assert_eq!(
        c6.wl_fingerprint(),
        two_c3.wl_fingerprint(),
        "colour refinement should NOT split 2-regular graphs of equal size"
    );
    assert_ne!(
        c6.fingerprint(),
        two_c3.fingerprint(),
        "the exact labeling must split C6 from 2xC3"
    );
    assert_ne!(c6.canonicalize().placement, two_c3.canonicalize().placement);
}

/// K3,3 vs the triangular prism: both 3-regular on 6 vertices (9 edges), so
/// 1-WL cannot split them — but K3,3 is triangle-free and the prism is not.
#[test]
fn wl_hard_pair_k33_vs_prism_separates() {
    let k33 = edge_incidence_placement(
        "k33",
        6,
        &[
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 3),
            (2, 4),
            (2, 5),
        ],
    );
    let prism = edge_incidence_placement(
        "prism",
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 3),
            (1, 4),
            (2, 5),
        ],
    );
    assert_eq!(
        k33.wl_fingerprint(),
        prism.wl_fingerprint(),
        "colour refinement should NOT split 3-regular graphs of equal size"
    );
    assert_ne!(
        k33.fingerprint(),
        prism.fingerprint(),
        "the exact labeling must split K3,3 from the prism"
    );
    assert_ne!(k33.canonicalize().placement, prism.canonicalize().placement);
}

/// The WL-hard gadgets stay invariant under relabeling — they are hard, not
/// degenerate, inputs.
#[test]
fn wl_hard_gadgets_are_still_relabeling_invariant() {
    let mut rng = Lcg::new(0x09ad_9e75);
    let prism = edge_incidence_placement(
        "prism",
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 3),
            (1, 4),
            (2, 5),
        ],
    );
    for round in 0..10 {
        assert_invariant_under_random_relabeling(&mut rng, &prism, &format!("prism round {round}"));
    }
}

// ---------------------------------------------------------------------------
// 4. Automorphism-pruning soundness.
// ---------------------------------------------------------------------------

/// `n! · k!` with saturation — the trivial bound on canonical-search leaves.
fn factorial_bound(devices: usize, blocks: usize) -> u128 {
    let mut bound: u128 = 1;
    for i in 2..=devices as u128 {
        bound = bound.saturating_mul(i);
    }
    for i in 2..=blocks as u128 {
        bound = bound.saturating_mul(i);
    }
    bound
}

/// Three identical two-block chains on six devices: a highly symmetric
/// instance where orbit pruning must visibly pay off.
fn triplet_chains() -> PlacementSpec {
    let mut b = PlacementSpec::builder("triplet-chains", 6);
    for chain in 0..3usize {
        let f = b
            .add_block(
                format!("f{chain}"),
                BlockKind::Forward,
                [chain * 2],
                3,
                1,
                [],
            )
            .unwrap();
        b.add_block(
            format!("b{chain}"),
            BlockKind::Backward,
            [chain * 2 + 1],
            5,
            -1,
            [f],
        )
        .unwrap();
    }
    b.build().unwrap()
}

/// Pruned and unpruned searches agree on the canonical form bit-for-bit, the
/// pruned search never explores more leaves, both stay strictly below the
/// factorial bound, and on the symmetric instance pruning is strict and
/// backed by at least one discovered automorphism.
#[test]
fn automorphism_pruning_is_sound_and_strict_on_symmetric_instances() {
    let mut instances: Vec<(String, PlacementSpec)> = vec![
        ("triplet-chains".into(), triplet_chains()),
        (
            "2xc3".into(),
            edge_incidence_placement("2xc3", 6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        ),
    ];
    for kind in ShapeKind::all() {
        for devices in [2usize, 4] {
            instances.push((
                format!("{kind}-{devices}"),
                synthetic_placement(kind, devices).unwrap(),
            ));
        }
    }
    for (name, placement) in &instances {
        let (pruned, pruned_stats) = placement.canonicalize_with_stats();
        let (unpruned, unpruned_stats) = placement.canonicalize_unpruned();
        assert_eq!(
            pruned.fingerprint, unpruned.fingerprint,
            "{name}: pruned and unpruned searches disagree on the fingerprint"
        );
        assert_eq!(
            pruned.placement, unpruned.placement,
            "{name}: pruned and unpruned searches disagree on the canonical form"
        );
        assert!(
            pruned_stats.leaves <= unpruned_stats.leaves,
            "{name}: pruning explored MORE leaves ({} > {})",
            pruned_stats.leaves,
            unpruned_stats.leaves
        );
        let bound = factorial_bound(placement.num_devices(), placement.num_blocks());
        assert!(
            u128::from(pruned_stats.leaves) < bound,
            "{name}: {} leaves is not below the factorial bound {bound}",
            pruned_stats.leaves
        );
    }
    // The symmetric instances must show *strict* pruning via real generators.
    for name in ["triplet-chains", "2xc3"] {
        let placement = &instances.iter().find(|(n, _)| n == name).unwrap().1;
        let (_, pruned_stats) = placement.canonicalize_with_stats();
        let (_, unpruned_stats) = placement.canonicalize_unpruned();
        assert!(
            pruned_stats.automorphisms > 0,
            "{name}: no automorphism generators discovered"
        );
        assert!(
            pruned_stats.leaves < unpruned_stats.leaves,
            "{name}: pruning was not strict ({} vs {})",
            pruned_stats.leaves,
            unpruned_stats.leaves
        );
    }
}

/// Brute force on a tiny instance: canonicalizing **every** image under all
/// device permutations × all topological block orders lands on the one
/// canonical form the pruned search found — the canonical form really is a
/// full-orbit minimum, not just a stable point of the search.
#[test]
fn canonical_form_is_the_full_orbit_minimum_on_a_tiny_instance() {
    let mut b = PlacementSpec::builder("tiny-orbit", 3);
    let f0 = b
        .add_block("f0", BlockKind::Forward, [0], 2, 1, [])
        .unwrap();
    let f1 = b
        .add_block("f1", BlockKind::Forward, [1], 2, 1, [])
        .unwrap();
    b.add_block("join", BlockKind::Backward, [2], 4, -1, [f0, f1])
        .unwrap();
    let placement = b.build().unwrap();
    let reference = placement.canonicalize();
    let orders = all_topo_orders(&placement, 1000).expect("tiny instance must be enumerable");
    let mut images = 0usize;
    for device_perm in all_perms(placement.num_devices()) {
        for order in &orders {
            let image = placement.permuted(&device_perm, order).unwrap();
            let canon = image.canonicalize();
            assert_eq!(reference.fingerprint, canon.fingerprint);
            assert_eq!(reference.placement, canon.placement);
            images += 1;
        }
    }
    assert_eq!(images, 6 * 2, "3! device perms x 2 topo orders");
}

// ---------------------------------------------------------------------------
// CI stress: 10k random instances × random permutations (`--ignored`).
// ---------------------------------------------------------------------------

/// The fuzz seed: `TESSEL_FUZZ_SEED` (decimal or 0x-hex), else the pinned
/// [`PINNED_SEED`].
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
        .unwrap_or(PINNED_SEED)
}

/// The seed CI pins and the recorded digests below were taken with.
const PINNED_SEED: u64 = 0xf16e_4a44;

/// Long-run fuzz used by the `fingerprint-stress` CI job. The seed comes from
/// `TESSEL_FUZZ_SEED` (decimal or 0x-hex; defaults to a pinned value) and is
/// part of every failure message, so any break reproduces with
/// `TESSEL_FUZZ_SEED=<seed> cargo test --test fingerprint_canonical -- --ignored`.
#[test]
#[ignore = "10k-instance fuzz; run explicitly or via the fingerprint-stress CI job"]
fn fuzz_10k_random_instances_under_random_relabelings() {
    let seed = fuzz_seed();
    eprintln!("fingerprint fuzz seed: {seed:#x}");
    let mut rng = Lcg::new(seed);
    for i in 0..10_000u64 {
        let placement = random_instance(&mut rng, i);
        assert_invariant_under_random_relabeling(
            &mut rng,
            &placement,
            &format!("TESSEL_FUZZ_SEED={seed:#x} instance {i}"),
        );
        // Keep the exact-vs-WL contract honest under fuzz too: the exact
        // labeling refines WL, so equal canonical forms force equal WL.
        let twisted = placement
            .permuted(
                &random_perm(&mut rng, placement.num_devices()),
                &random_topo_order(&mut rng, &placement),
            )
            .unwrap();
        assert_eq!(
            placement.wl_fingerprint(),
            twisted.wl_fingerprint(),
            "TESSEL_FUZZ_SEED={seed:#x} instance {i}: WL fingerprint not invariant"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. The labeling without the placement.
// ---------------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv_words(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What `canonicalize()` returned for the first `count` instances of the
/// labeling oracle's corpus under [`PINNED_SEED`] (fingerprint, both
/// permutations and the canonical placement's JSON, folded by [`fnv_words`]),
/// recorded at the commit before the labeling was split from the build.
/// Journals and peers key on these fingerprints: they must not move.
const RECORDED_LABELING_DIGESTS: [(usize, u64); 2] = [
    (300, 0x209b_ac79_45bd_5cf5),
    (10_000, 0x120e_330c_d2c9_ad01),
];

/// The labeling oracle: on `count` random placements and a random relabeling
/// of each, the labeling-only search returns `canonicalize()`'s fingerprint
/// and permutations bit for bit (and its statistics), the canonical placement
/// built from the labeling afterwards equals the eager one, and — under the
/// pinned seed — the whole corpus digests to what `canonicalize()` returned
/// before the split.
fn labeling_matches_canonicalize(count: usize) {
    let seed = fuzz_seed();
    eprintln!("labeling oracle seed: {seed:#x}");
    let mut rng = Lcg::new(seed ^ 0x1abe_1106);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..count as u64 {
        let placement = random_instance(&mut rng, i);
        let image = placement
            .permuted(
                &random_perm(&mut rng, placement.num_devices()),
                &random_topo_order(&mut rng, &placement),
            )
            .unwrap();
        for (which, p) in [("instance", &placement), ("its relabeling", &image)] {
            let context = format!("TESSEL_FUZZ_SEED={seed:#x} {which} {i}: {p:?}");
            let (labeling, stats) = p.canonical_labeling_budgeted(DEFAULT_NODE_BUDGET);
            let (eager, eager_stats) = p.canonicalize_with_stats();
            assert_eq!(labeling.fingerprint, eager.fingerprint, "{context}");
            assert_eq!(labeling.block_perm, eager.block_perm, "{context}");
            assert_eq!(labeling.device_perm, eager.device_perm, "{context}");
            assert_eq!(stats, eager_stats, "{context}");
            assert_eq!(p.fingerprint(), eager.fingerprint, "{context}");
            let lazy = labeling.canonical_placement(p);
            assert_eq!(lazy, eager.placement, "{context}");
            digest = fnv_words(digest, [labeling.fingerprint.0]);
            digest = fnv_words(digest, labeling.block_perm.iter().map(|&x| x as u64));
            digest = fnv_words(digest, labeling.device_perm.iter().map(|&x| x as u64));
            let text = serde_json::to_string(&lazy).unwrap();
            digest = fnv_words(digest, text.bytes().map(u64::from));
        }
    }
    let recorded = RECORDED_LABELING_DIGESTS
        .iter()
        .find(|&&(n, _)| n == count)
        .map(|&(_, digest)| digest);
    match recorded {
        Some(recorded) if seed == PINNED_SEED => assert_eq!(
            digest, recorded,
            "{count} instances under the pinned seed no longer canonicalize as recorded"
        ),
        _ => eprintln!("no recorded digest for {count} instances under seed {seed:#x}"),
    }
}

#[test]
fn labeling_oracle_on_300_random_instances() {
    labeling_matches_canonicalize(300);
}

/// `TESSEL_FUZZ_SEED=<seed> cargo test --release --test fingerprint_canonical
/// labeling -- --ignored`.
#[test]
#[ignore = "10k-instance labeling oracle; run explicitly or via the fingerprint-stress CI job"]
fn labeling_oracle_on_10k_random_instances() {
    labeling_matches_canonicalize(10_000);
}
