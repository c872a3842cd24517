//! SIMD-friendly componentwise comparison of finish-time vectors.
//!
//! Dominance pruning asks one question at every expanded node, for every
//! stored vector under the same bitmask key: is vector `a` componentwise
//! `<=` vector `b`?  The answer is a pure reduction with no early exit worth
//! taking (vectors are 2–16 lanes; a branch per lane costs more than the
//! compares it might skip), which makes it exactly the shape LLVM's
//! auto-vectorizer handles well — *if* the loop is written over fixed-width
//! chunks so the trip count of the inner loop is a compile-time constant.
//!
//! [`compare_le`] therefore processes `LANES`-wide `u64` chunks with
//! branch-free `&=` accumulation (compiled to vector compares + a
//! movemask-style reduction where the target supports it) and falls back to
//! a plain scalar loop for the remainder lanes, so oddball device counts (1,
//! 3, 17, …) stay correct. The equivalence tests hold it to scalar
//! references.

/// Chunk width of the vectorized loop. Four `u64`s = one 256-bit vector
/// register on AVX2-class hardware, two 128-bit ops elsewhere; remainders run
/// scalar.
pub(super) const LANES: usize = 4;

/// Both dominance directions in one pass: `(a <= b, b <= a)` componentwise.
///
/// The dominance check needs both answers for every stored/current vector
/// pair (prune the current state, or retire the stored one), so fusing the
/// two reductions halves the number of passes over the data.
#[inline]
pub(super) fn compare_le(a: &[u64], b: &[u64]) -> (bool, bool) {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut a_le = true;
    let mut b_le = true;
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        // Branch-free accumulation over a constant-width chunk: the whole
        // chunk compiles to one vector compare + mask reduction per
        // direction.
        let mut chunk_a = true;
        let mut chunk_b = true;
        for l in 0..LANES {
            chunk_a &= ca[l] <= cb[l];
            chunk_b &= cb[l] <= ca[l];
        }
        a_le &= chunk_a;
        b_le &= chunk_b;
    }
    let (tail_a, tail_b) = compare_le_scalar(&a[split..], &b[split..]);
    (a_le && tail_a, b_le && tail_b)
}

/// Scalar reference for [`compare_le`]; also handles remainder lanes.
#[inline]
pub(super) fn compare_le_scalar(a: &[u64], b: &[u64]) -> (bool, bool) {
    let mut a_le = true;
    let mut b_le = true;
    for (x, y) in a.iter().zip(b) {
        a_le &= x <= y;
        b_le &= y <= x;
    }
    (a_le, b_le)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference for the first direction of [`compare_le`].
    fn all_le_scalar(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    /// Deterministic splitmix64 (no external RNG in the solver crate).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn chunked_matches_scalar_for_device_counts_1_to_17() {
        // Every device count the solver realistically sees, crossing the
        // LANES boundary in all phases (len % LANES = 0..3), with values
        // drawn from a small range so equal, less and greater lanes all
        // occur frequently.
        let mut state = 0x5eed_u64;
        for devices in 1..=17usize {
            for _ in 0..200 {
                let a: Vec<u64> = (0..devices).map(|_| next(&mut state) % 5).collect();
                let b: Vec<u64> = (0..devices).map(|_| next(&mut state) % 5).collect();
                assert_eq!(
                    compare_le(&a, &b).0,
                    all_le_scalar(&a, &b),
                    "compare_le(..).0 diverged for devices={devices} a={a:?} b={b:?}"
                );
                assert_eq!(
                    compare_le(&a, &b),
                    compare_le_scalar(&a, &b),
                    "compare_le diverged for devices={devices} a={a:?} b={b:?}"
                );
            }
        }
    }

    #[test]
    fn exact_boundaries() {
        assert!(compare_le(&[], &[]).0);
        assert_eq!(compare_le(&[], &[]), (true, true));
        let v = [1u64, 2, 3, 4, 5, 6, 7, 8];
        assert!(compare_le(&v, &v).0);
        assert_eq!(compare_le(&v, &v), (true, true));
        // Divergence in the vectorized chunk only.
        let mut w = v;
        w[2] += 1;
        assert!(compare_le(&v, &w).0);
        assert!(!compare_le(&w, &v).0);
        assert_eq!(compare_le(&v, &w), (true, false));
        // Divergence in the scalar tail only (len 9, tail lane 8).
        let a = [0u64, 0, 0, 0, 0, 0, 0, 0, 2];
        let b = [0u64, 0, 0, 0, 0, 0, 0, 0, 1];
        assert!(!compare_le(&a, &b).0);
        assert_eq!(compare_le(&a, &b), (false, true));
    }

    #[test]
    fn incomparable_vectors_fail_both_directions() {
        let a = [1u64, 9, 1, 9, 1];
        let b = [9u64, 1, 9, 1, 9];
        assert_eq!(compare_le(&a, &b), (false, false));
        assert!(!compare_le(&a, &b).0);
        assert!(!compare_le(&b, &a).0);
    }
}
