//! Seeded input generator: everything a workload feeds the program is drawn
//! here from `--seed`, so the same seed gives byte-identical operation lists
//! and the program under test only ever sees the generated inputs.

use std::collections::HashSet;
use tessel_core::fingerprint::Fingerprint;
use tessel_core::ir::{BlockSpec, PlacementSpec};
use tessel_placement::{synthetic_placement, ShapeKind};

/// xorshift64* — small, fast, and good enough to shuffle labels.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for (`seed`, `stream`): the pair is mixed
    /// through splitmix64 so neighbouring seeds and streams do not correlate
    /// and the state is never zero.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(0x94d0_49bb_1331_11eb);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(z | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these
    /// ranges.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        self.shuffle(&mut perm);
        perm
    }
}

/// Zipf(1) over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A random topological order of the placement's blocks (every order is reachable).
pub fn random_topological_order(placement: &PlacementSpec, rng: &mut Rng) -> Vec<usize> {
    let k = placement.num_blocks();
    let mut indegree: Vec<usize> = placement.blocks().iter().map(|b| b.deps.len()).collect();
    let mut ready: Vec<usize> = (0..k).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(k);
    while !ready.is_empty() {
        let next = ready.remove(rng.below(ready.len()));
        order.push(next);
        for (j, block) in placement.blocks().iter().enumerate() {
            if block.deps.contains(&next) {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
    }
    order
}

/// The same placement under a random device relabeling and a random
/// topological block reorder — isomorphic, so it must fingerprint equal.
pub fn relabel(placement: &PlacementSpec, rng: &mut Rng) -> PlacementSpec {
    let devices = rng.permutation(placement.num_devices());
    let order = random_topological_order(placement, rng);
    placement
        .permuted(&devices, &order)
        .expect("a device permutation and a topological order always permute")
}

/// A copy with every block's time multiplied by a factor drawn from `1..=4`.
pub fn scale_times(placement: &PlacementSpec, rng: &mut Rng) -> PlacementSpec {
    let mut builder = PlacementSpec::builder(placement.name(), placement.num_devices());
    builder.set_memory_capacity(placement.memory_capacity());
    for b in placement.blocks() {
        let factor = 1 + rng.below(4) as u64;
        builder
            .push_block(
                BlockSpec::new(
                    b.name.clone(),
                    b.kind,
                    b.devices.iter().copied(),
                    b.time * factor,
                    b.memory,
                )
                .with_deps(b.deps.iter().copied())
                .with_flops(b.flops)
                .with_output_bytes(b.output_bytes),
            )
            .expect("scaling times keeps the block valid");
    }
    builder.build().expect("scaling times keeps the DAG")
}

/// The five synthetic 4-device shapes the daemon workloads draw from.
pub fn base_shapes() -> Vec<PlacementSpec> {
    ShapeKind::all()
        .into_iter()
        .map(|kind| synthetic_placement(kind, 4).expect("4-device shapes build"))
        .collect()
}

/// `count` placements with pairwise different fingerprints, none of them in
/// `seen` (which is extended): the base shapes taken in turn — so the mix of
/// shapes, and with it the size of the answers, does not depend on the seed —
/// each with seeded block-time multipliers, redrawn until its fingerprint is
/// new.
pub fn distinct_placements(
    count: usize,
    rng: &mut Rng,
    seen: &mut HashSet<Fingerprint>,
) -> Vec<(PlacementSpec, Fingerprint)> {
    let shapes = base_shapes();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let candidate = scale_times(&shapes[out.len() % shapes.len()], rng);
        let fingerprint = candidate.fingerprint();
        if seen.insert(fingerprint) {
            out.push((candidate, fingerprint));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(64);
        let mut rng = Rng::new(7, 0);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7] && counts[7] > counts[63]);
        // Rank 0 carries 1 / H(64) = 21 % of the mass.
        assert!((3_800..4_700).contains(&counts[0]), "{}", counts[0]);
    }

    #[test]
    fn relabeling_keeps_the_fingerprint_and_changes_the_labels() {
        let mut rng = Rng::new(3, 0);
        for shape in base_shapes() {
            let relabeled = relabel(&shape, &mut rng);
            assert_eq!(relabeled.fingerprint(), shape.fingerprint());
            relabeled.validate().unwrap();
        }
        let v = &base_shapes()[0];
        let mut differs = false;
        for _ in 0..8 {
            differs |= relabel(v, &mut rng) != *v;
        }
        assert!(differs);
    }

    #[test]
    fn distinct_placements_are_distinct_and_skip_seen_ones() {
        let mut seen = HashSet::new();
        let first = distinct_placements(32, &mut Rng::new(1, 0), &mut seen);
        let second = distinct_placements(32, &mut Rng::new(1, 1), &mut seen);
        let all: HashSet<Fingerprint> = first.iter().chain(&second).map(|(_, f)| *f).collect();
        assert_eq!(all.len(), 64);
        assert_eq!(seen.len(), 64);
    }
}
