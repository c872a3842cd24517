//! Piper-style dynamic-programming stage partitioner.
//!
//! Piper (Tarnawski et al., NeurIPS 2021) assigns layers to pipeline stages
//! combining data/tensor parallelism; the paper uses it to derive the
//! per-block device assignment underlying both the baselines and Tessel's
//! advanced placements. This module implements the part Tessel needs: split a
//! *linear* sequence of layers into `stages` contiguous groups minimising the
//! maximum per-stage time.

/// Splits a layer sequence, given by each layer's compute time, into `stages`
/// contiguous groups minimising the maximum per-stage time.
///
/// Returns the half-open layer ranges, one per stage, covering the sequence
/// in order; `None` when there are no stages or fewer layers than stages.
#[must_use]
pub fn partition_layers(times: &[u64], stages: usize) -> Option<Vec<(usize, usize)>> {
    let n = times.len();
    if stages == 0 || n < stages {
        return None;
    }
    let time = |lo: usize, hi: usize| -> u64 { times[lo..hi].iter().sum() };

    // dp[s][i]: minimal bottleneck using s stages to cover the first i layers.
    const INF: u64 = u64::MAX;
    let mut dp = vec![vec![INF; n + 1]; stages + 1];
    let mut cut = vec![vec![0usize; n + 1]; stages + 1];
    dp[0][0] = 0;
    for s in 1..=stages {
        for i in 1..=n {
            for j in (s - 1)..i {
                if dp[s - 1][j] == INF {
                    continue;
                }
                let candidate = dp[s - 1][j].max(time(j, i));
                if candidate < dp[s][i] {
                    dp[s][i] = candidate;
                    cut[s][i] = j;
                }
            }
        }
    }
    let mut bounds = Vec::with_capacity(stages);
    let mut end = n;
    for s in (1..=stages).rev() {
        let start = cut[s][end];
        bounds.push((start, end));
        end = start;
    }
    bounds.reverse();
    Some(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_partition_of_uniform_layers() {
        let partition = partition_layers(&[1; 8], 4).unwrap();
        assert_eq!(partition, vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
    }

    #[test]
    fn heavy_layer_forces_imbalance() {
        // The heavy layer gets a stage of its own; the light ones share the
        // other.
        let partition = partition_layers(&[10, 1, 1, 1], 2).unwrap();
        assert_eq!(partition, vec![(0, 1), (1, 4)]);
    }

    #[test]
    fn infeasible_budgets_return_none() {
        // A stage needs at least one layer.
        assert!(partition_layers(&[1], 2).is_none());
        assert!(partition_layers(&[1], 0).is_none());
    }

    #[test]
    fn stage_ranges_cover_the_sequence_exactly() {
        let times = [3, 1, 4, 1, 5, 9, 2, 6];
        let partition = partition_layers(&times, 3).unwrap();
        let mut covered = 0;
        for &(lo, hi) in &partition {
            assert_eq!(lo, covered);
            assert!(hi > lo);
            covered = hi;
        }
        assert_eq!(covered, times.len());
    }
}
