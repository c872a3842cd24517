//! Chimera(-direct) estimate.
//!
//! Chimera runs two model replicas through bidirectional pipelines; each
//! device holds a stage of the "down" pipeline *and* a stage of the "up"
//! pipeline, doubling the resident parameter and optimizer state. Because our
//! placement IR describes a single micro-batch program (and Chimera routes
//! half the micro-batches through each replica), the baseline is modelled
//! analytically: the published steady-state bubble rate (the 20% reported in
//! Table II for the paper's settings) and the doubled static memory. With
//! the doubled memory Chimera runs out of memory at every size of both
//! training figures: GPT (Fig. 13) and mT5 (Fig. 14, 4–32 GPUs).

use serde::{Deserialize, Serialize};

/// Analytical performance/memory estimate of a Chimera-direct execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChimeraEstimate {
    /// Steady-state bubble rate of the bidirectional schedule.
    pub bubble_rate: f64,
    /// Iteration time in time units (`None` when the replica does not fit in
    /// memory).
    pub iteration_time: Option<u64>,
    /// Static memory per device in memory units (two model replicas).
    pub static_memory_units: i64,
    /// Whether the configuration fits in device memory.
    pub fits_in_memory: bool,
}

/// Builds a Chimera estimate.
///
/// * `per_device_work` — compute time of one micro-batch on the busiest
///   device under a balanced V-shape split (forward plus backward).
/// * `num_micro_batches` — micro-batches per iteration.
/// * `single_replica_static_units` — parameter/optimizer memory of one model
///   replica per device.
/// * `capacity_units` — device memory.
#[must_use]
pub fn chimera_estimate(
    per_device_work: u64,
    num_micro_batches: usize,
    num_stages: usize,
    single_replica_static_units: i64,
    capacity_units: i64,
) -> ChimeraEstimate {
    let static_memory_units = single_replica_static_units * 2;
    let fits = static_memory_units < capacity_units;
    // Chimera-direct halves the warmup bubble of 1F1B but keeps an inherent
    // bubble in its steady state when the two pipelines contend for the same
    // device; the paper reports ~20% for numerous micro-batches.
    let steady_bubble = 0.20;
    let warmup_overhead = (num_stages.saturating_sub(2) / 2) as u64;
    let iteration_time = if fits {
        let busy = per_device_work * num_micro_batches as u64 + warmup_overhead * per_device_work;
        Some((busy as f64 / (1.0 - steady_bubble)).round() as u64)
    } else {
        None
    };
    ChimeraEstimate {
        bubble_rate: steady_bubble,
        iteration_time,
        static_memory_units,
        fits_in_memory: fits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubled_replicas_exceed_memory_when_one_barely_fits() {
        let est = chimera_estimate(12, 16, 4, 20, 32);
        assert!(!est.fits_in_memory);
        assert!(est.iteration_time.is_none());
        assert_eq!(est.static_memory_units, 40);
    }

    #[test]
    fn fitting_configurations_report_an_iteration_time() {
        let est = chimera_estimate(12, 16, 4, 10, 32);
        assert!(est.fits_in_memory);
        let time = est.iteration_time.unwrap();
        // Never faster than the pure compute time.
        assert!(time >= 12 * 16);
        assert!((est.bubble_rate - 0.2).abs() < 1e-9);
    }

    #[test]
    fn iteration_time_scales_with_micro_batches() {
        let small = chimera_estimate(10, 8, 4, 5, 32).iteration_time.unwrap();
        let large = chimera_estimate(10, 32, 4, 5, 32).iteration_time.unwrap();
        assert!(large > 3 * small);
    }
}
