//! Analytical cost model: FLOPs, parameter/activation bytes and their
//! conversion into the integer time and memory units used by the search.
//!
//! The conversion targets a V100-class device (the paper's testbed): 112
//! TFLOP/s of usable half-precision throughput and 32 GiB of memory. One
//! *time unit* corresponds to [`DeviceProfile::time_unit_seconds`] of
//! computation and one *memory unit* to [`DeviceProfile::memory_unit_bytes`];
//! both are coarse on purpose, because the Tessel search only needs relative
//! block costs, not microsecond-accurate ones.

use serde::{Deserialize, Serialize};

/// Costs of a single layer for one micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Forward-pass FLOPs.
    pub forward_flops: f64,
    /// Backward-pass FLOPs (without recompute; recompute is applied when
    /// blocks are formed).
    pub backward_flops: f64,
    /// Parameter bytes resident on whichever device holds the layer.
    pub param_bytes: u64,
    /// Activation bytes kept alive between the forward and backward pass.
    pub activation_bytes: u64,
    /// Bytes of the layer's output activation (what must be communicated to a
    /// dependent layer on another device).
    pub output_bytes: u64,
}

impl LayerCost {
    /// A zero cost, useful as a starting point in tests.
    #[must_use]
    pub fn zero() -> Self {
        LayerCost {
            forward_flops: 0.0,
            backward_flops: 0.0,
            param_bytes: 0,
            activation_bytes: 0,
            output_bytes: 0,
        }
    }
}

/// Hardware profile of one accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Sustained half-precision throughput in FLOP/s.
    pub flops_per_second: f64,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// Seconds of compute represented by one integer time unit.
    pub time_unit_seconds: f64,
    /// Bytes represented by one integer memory unit.
    pub memory_unit_bytes: u64,
}

impl DeviceProfile {
    /// A V100-32GB-like profile, matching the paper's testbed: 112 TFLOP/s of
    /// sustained tensor-core throughput, 32 GiB of HBM, 1 ms time units and
    /// 1 GiB memory units.
    #[must_use]
    pub fn v100() -> Self {
        DeviceProfile {
            flops_per_second: 112e12,
            memory_bytes: 32 * (1 << 30),
            time_unit_seconds: 1e-3,
            memory_unit_bytes: 1 << 30,
        }
    }

    /// Device memory expressed in integer memory units.
    #[must_use]
    pub fn memory_capacity_units(&self) -> i64 {
        (self.memory_bytes / self.memory_unit_bytes) as i64
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::v100()
    }
}

/// Converts analytical layer costs into search-friendly integer units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// The device the costs target.
    pub device: DeviceProfile,
    /// Multiplier applied to backward FLOPs to account for activation
    /// recompute (the paper enables recompute on every transformer layer,
    /// making backward roughly 3x forward).
    pub recompute_factor: f64,
}

impl CostModel {
    /// Cost model for the paper's setup: V100 devices with recompute enabled.
    #[must_use]
    pub fn paper_default() -> Self {
        CostModel {
            device: DeviceProfile::v100(),
            recompute_factor: 1.5,
        }
    }

    /// Integer time units needed to execute `flops` on one device (at least 1
    /// for any non-trivial amount of work).
    #[must_use]
    pub fn time_units(&self, flops: f64) -> u64 {
        if flops <= 0.0 {
            return 0;
        }
        let seconds = flops / self.device.flops_per_second;
        let units = (seconds / self.device.time_unit_seconds).round() as u64;
        units.max(1)
    }

    /// Integer time units for a forward pass over `cost`.
    #[must_use]
    pub fn forward_time(&self, cost: &LayerCost) -> u64 {
        self.time_units(cost.forward_flops)
    }

    /// Integer time units for a backward pass over `cost`, including the
    /// recompute overhead.
    #[must_use]
    pub fn backward_time(&self, cost: &LayerCost) -> u64 {
        self.time_units(cost.backward_flops * self.recompute_factor)
    }

    /// Integer memory units for `bytes` (at least 1 for any non-zero amount).
    #[must_use]
    pub fn memory_units(&self, bytes: u64) -> i64 {
        if bytes == 0 {
            return 0;
        }
        let units = bytes.div_ceil(self.device.memory_unit_bytes);
        units.max(1) as i64
    }

    /// Cost of one GPT-style transformer layer.
    ///
    /// Uses the standard dense-transformer estimate: `24 * b * s * h^2` for
    /// the MLP/projection GEMMs plus `4 * b * s^2 * h` for attention.
    #[must_use]
    pub fn transformer_layer(&self, hidden: usize, seq: usize, batch: usize) -> LayerCost {
        let (h, s, b) = (hidden as f64, seq as f64, batch as f64);
        let forward = 24.0 * b * s * h * h + 4.0 * b * s * s * h;
        let params = 12 * (hidden as u64) * (hidden as u64) * 2;
        // Half-precision activations that must persist until the backward
        // pass; with recompute only the layer input is kept.
        let activation = (batch * seq * hidden) as u64 * 2;
        LayerCost {
            forward_flops: forward,
            backward_flops: 2.0 * forward,
            param_bytes: params,
            activation_bytes: activation,
            output_bytes: (batch * seq * hidden) as u64 * 2,
        }
    }

    /// Cost of an mT5 decoder layer (self attention + cross attention + MLP):
    /// roughly 4/3 of an encoder layer of the same width.
    #[must_use]
    pub fn decoder_layer(&self, hidden: usize, seq: usize, batch: usize) -> LayerCost {
        let base = self.transformer_layer(hidden, seq, batch);
        LayerCost {
            forward_flops: base.forward_flops * 4.0 / 3.0,
            backward_flops: base.backward_flops * 4.0 / 3.0,
            param_bytes: base.param_bytes * 4 / 3,
            activation_bytes: base.activation_bytes * 4 / 3,
            output_bytes: base.output_bytes,
        }
    }

    /// Cost of the (tied) token embedding plus output projection for a
    /// vocabulary of `vocab` entries: enormous parameter footprint, modest
    /// compute (`2 * b * s * h * V` for the logits GEMM).
    #[must_use]
    pub fn embedding_layer(
        &self,
        hidden: usize,
        vocab: usize,
        seq: usize,
        batch: usize,
    ) -> LayerCost {
        let (h, s, b, v) = (hidden as f64, seq as f64, batch as f64, vocab as f64);
        let forward = 2.0 * b * s * h * v;
        LayerCost {
            forward_flops: forward,
            backward_flops: 2.0 * forward,
            param_bytes: (vocab as u64) * (hidden as u64) * 2,
            activation_bytes: (batch * seq * hidden) as u64 * 2,
            output_bytes: (batch * seq * hidden) as u64 * 2,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::gpt_config_for_gpus;

    #[test]
    fn v100_profile_matches_testbed() {
        let device = DeviceProfile::v100();
        assert_eq!(device.memory_capacity_units(), 32);
        assert!(device.flops_per_second > 1e14);
    }

    #[test]
    fn time_units_scale_with_flops_and_never_vanish() {
        let cm = CostModel::paper_default();
        let small = cm.time_units(1e9);
        let large = cm.time_units(1e13);
        assert!(small >= 1);
        assert!(large > small);
        assert_eq!(cm.time_units(0.0), 0);
    }

    #[test]
    fn backward_is_three_times_forward_with_recompute() {
        let cm = CostModel::paper_default();
        let layer = cm.transformer_layer(4096, 1024, 1);
        let fwd = cm.forward_time(&layer);
        let bwd = cm.backward_time(&layer);
        let ratio = bwd as f64 / fwd as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "recompute backward/forward ratio {ratio} outside [2.5, 3.5]"
        );
    }

    #[test]
    fn embedding_is_memory_heavy_but_compute_light() {
        let cm = CostModel::paper_default();
        let gpt = gpt_config_for_gpus(4).unwrap();
        let layer = cm.transformer_layer(gpt.hidden_size, gpt.seq_len, 1);
        let embed = cm.embedding_layer(gpt.hidden_size, gpt.vocab_size, gpt.seq_len, 1);
        // Parameter footprint: the 1M-entry embedding dwarfs a single layer.
        assert!(embed.param_bytes > 20 * layer.param_bytes);
        // Compute: the embedding costs less than the whole 32-layer stack.
        assert!(embed.forward_flops < layer.forward_flops * gpt.num_layers as f64);
    }

    #[test]
    fn decoder_layers_cost_more_than_encoder_layers() {
        let cm = CostModel::paper_default();
        let enc = cm.transformer_layer(1024, 1024, 1);
        let dec = cm.decoder_layer(1024, 1024, 1);
        assert!(dec.forward_flops > enc.forward_flops);
        assert!(dec.param_bytes > enc.param_bytes);
    }

    #[test]
    fn memory_units_round_up() {
        let cm = CostModel::paper_default();
        assert_eq!(cm.memory_units(0), 0);
        assert_eq!(cm.memory_units(1), 1);
        assert_eq!(cm.memory_units(1 << 30), 1);
        assert_eq!(cm.memory_units((1 << 30) + 1), 2);
    }
}
