//! Device groups: mapping schedule-level "devices" onto physical GPUs.
//!
//! The paper keeps the pipeline depth small (the Fig. 8 schedules use four
//! pipeline stages) and absorbs additional GPUs with tensor/data parallelism
//! *inside* each execution block, following Piper. A [`DeviceGroups`] value
//! records that mapping: `stages` schedule devices, each backed by
//! `gpus_per_group` physical GPUs. A block split across a group runs faster
//! by the group size, discounted by a fixed parallel efficiency.

/// Deepest pipeline the model-driven placements build: the Fig. 8 schedules
/// use four stages.
const MAX_STAGES: usize = 4;

/// Parallel efficiency of splitting one block across GPUs; tensor
/// parallelism is never perfectly linear.
const EFFICIENCY: f64 = 0.9;

/// Mapping of schedule devices to physical GPU groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceGroups {
    /// Number of schedule-level devices (pipeline stages).
    pub stages: usize,
    /// Physical GPUs backing each schedule device.
    pub gpus_per_group: usize,
}

impl DeviceGroups {
    /// Groups `total_gpus` GPUs into at most four pipeline stages.
    ///
    /// With fewer GPUs than that, every GPU becomes its own stage.
    #[must_use]
    pub fn for_gpus(total_gpus: usize) -> Self {
        let stages = total_gpus.clamp(1, MAX_STAGES);
        DeviceGroups {
            stages,
            gpus_per_group: (total_gpus / stages).max(1),
        }
    }

    /// Total physical GPUs covered by the groups.
    #[must_use]
    pub fn total_gpus(&self) -> usize {
        self.stages * self.gpus_per_group
    }
}

/// Scales a single-GPU block time to a block split across `width` GPUs:
/// divided by the width, discounted by the parallel efficiency, and never
/// below 1 unless it was 0.
pub(crate) fn scale_over(time: u64, width: usize) -> u64 {
    if time == 0 {
        return 0;
    }
    ((time as f64 / (width as f64 * EFFICIENCY)).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_pipeline_depth_bounded() {
        let g = DeviceGroups::for_gpus(32);
        assert_eq!(g.stages, 4);
        assert_eq!(g.gpus_per_group, 8);
        assert_eq!(g.total_gpus(), 32);
        let small = DeviceGroups::for_gpus(2);
        assert_eq!(small.stages, 2);
        assert_eq!(small.gpus_per_group, 1);
    }

    #[test]
    fn time_scaling_accounts_for_efficiency() {
        assert_eq!(scale_over(36, 4), 10, "36 / (4 x 0.9)");
        assert_eq!(scale_over(0, 4), 0);
        assert_eq!(scale_over(1, 4), 1, "times never round to zero");
        assert_eq!(scale_over(1, 32), 1, "times never round to zero");
        // Without the discount 40 / 4 would be 10.
        assert_eq!(scale_over(40, 4), 11, "the efficiency discount applies");
        assert_eq!(scale_over(40, 1), 44, "the discount applies to one GPU too");
    }
}
