//! Model configurations, including the Table III entries of the paper.

use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a transformer-family model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model family name (`"gpt"`, `"mt5"`, `"flava"`).
    pub name: String,
    /// Number of transformer layers (for encoder–decoder models, the total
    /// across both stacks).
    pub num_layers: usize,
    /// Hidden dimension.
    pub hidden_size: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Vocabulary size of the (large) embedding table.
    pub vocab_size: usize,
    /// Sequence length used for training/inference.
    pub seq_len: usize,
    /// Micro-batch size (samples per micro-batch).
    pub micro_batch_size: usize,
}

impl ModelConfig {
    /// Approximate parameter count in billions, using the standard
    /// `12 * L * H^2 + V * H` transformer estimate.
    #[must_use]
    pub fn approx_params_billions(&self) -> f64 {
        let h = self.hidden_size as f64;
        let l = self.num_layers as f64;
        let v = self.vocab_size as f64;
        (12.0 * l * h * h + v * h) / 1e9
    }
}

/// One row of Table III: the model configuration used at a given GPU count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableIIIEntry {
    /// Number of GPUs the configuration targets.
    pub gpus: usize,
    /// Approximate parameter count in billions as reported in the paper.
    pub params_billions: f64,
    /// Number of layers.
    pub layers: usize,
    /// Hidden size.
    pub hidden_size: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
}

/// GPT rows of Table III (11B / 24B / 47B / 77B for 4 / 8 / 16 / 32 GPUs).
pub const GPT_TABLE_III: [TableIIIEntry; 4] = [
    TableIIIEntry {
        gpus: 4,
        params_billions: 11.0,
        layers: 32,
        hidden_size: 4096,
        heads: 32,
        vocab_size: 1_000_000,
    },
    TableIIIEntry {
        gpus: 8,
        params_billions: 24.0,
        layers: 40,
        hidden_size: 6144,
        heads: 48,
        vocab_size: 1_000_000,
    },
    TableIIIEntry {
        gpus: 16,
        params_billions: 47.0,
        layers: 48,
        hidden_size: 8192,
        heads: 64,
        vocab_size: 1_000_000,
    },
    TableIIIEntry {
        gpus: 32,
        params_billions: 77.0,
        layers: 80,
        hidden_size: 8192,
        heads: 64,
        vocab_size: 1_500_000,
    },
];

/// mT5 rows of Table III (1.8B / 9.5B / 43B / 88B for 4 / 8 / 16 / 32 GPUs).
pub const MT5_TABLE_III: [TableIIIEntry; 4] = [
    TableIIIEntry {
        gpus: 4,
        params_billions: 1.8,
        layers: 48,
        hidden_size: 1024,
        heads: 16,
        vocab_size: 512_000,
    },
    TableIIIEntry {
        gpus: 8,
        params_billions: 9.5,
        layers: 48,
        hidden_size: 3072,
        heads: 24,
        vocab_size: 1_000_000,
    },
    TableIIIEntry {
        gpus: 16,
        params_billions: 43.0,
        layers: 64,
        hidden_size: 6144,
        heads: 48,
        vocab_size: 1_500_000,
    },
    TableIIIEntry {
        gpus: 32,
        params_billions: 88.0,
        layers: 80,
        hidden_size: 8192,
        heads: 64,
        vocab_size: 1_500_000,
    },
];

impl TableIIIEntry {
    /// Expands the row into a full [`ModelConfig`] for the given family.
    #[must_use]
    pub fn to_config(&self, name: &str, seq_len: usize, micro_batch_size: usize) -> ModelConfig {
        ModelConfig {
            name: name.to_string(),
            num_layers: self.layers,
            hidden_size: self.hidden_size,
            num_heads: self.heads,
            vocab_size: self.vocab_size,
            seq_len,
            micro_batch_size,
        }
    }
}

/// Returns the GPT Table III configuration for a GPU count, if listed.
#[must_use]
pub fn gpt_config_for_gpus(gpus: usize) -> Option<ModelConfig> {
    GPT_TABLE_III
        .iter()
        .find(|e| e.gpus == gpus)
        .map(|e| e.to_config("gpt", 1024, 1))
}

/// Returns the mT5 Table III configuration for a GPU count, if listed.
#[must_use]
pub fn mt5_config_for_gpus(gpus: usize) -> Option<ModelConfig> {
    MT5_TABLE_III
        .iter()
        .find(|e| e.gpus == gpus)
        .map(|e| e.to_config("mt5", 1024, 1))
}

/// Flava (Fig. 15): 24 layers, 4096 hidden, 32 heads, evaluated on 4 GPUs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlavaConfig {
    /// Layers of the text encoder branch.
    pub text_layers: usize,
    /// Layers of the vision encoder branch.
    pub vision_layers: usize,
    /// Layers of the cross (multi-modal) encoder.
    pub cross_layers: usize,
    /// Hidden size shared across branches.
    pub hidden_size: usize,
    /// Attention heads.
    pub num_heads: usize,
    /// Text sequence length.
    pub text_seq_len: usize,
    /// Vision token count (patches).
    pub vision_seq_len: usize,
    /// Micro-batch size.
    pub micro_batch_size: usize,
}

impl Default for FlavaConfig {
    fn default() -> Self {
        // "24 layers, 4096 hidden size with 32 heads" split evenly across the
        // text, vision and cross encoders as in the Flava architecture.
        FlavaConfig {
            text_layers: 8,
            vision_layers: 8,
            cross_layers: 8,
            hidden_size: 4096,
            num_heads: 32,
            text_seq_len: 512,
            vision_seq_len: 576,
            micro_batch_size: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_gpt_parameter_counts_are_close_to_the_paper() {
        for entry in &GPT_TABLE_III {
            let config = entry.to_config("gpt", 1024, 1);
            let params = config.approx_params_billions();
            // Within 40% of the headline number: the paper's count also
            // includes positional embeddings and biases which we fold into
            // the 12*L*H^2 estimate.
            assert!(
                (params - entry.params_billions).abs() / entry.params_billions < 0.4,
                "{} GPUs: estimated {params}B vs paper {}B",
                entry.gpus,
                entry.params_billions
            );
        }
    }

    #[test]
    fn table_iii_rows_cover_the_gpu_scaling_points() {
        let gpus: Vec<usize> = GPT_TABLE_III.iter().map(|e| e.gpus).collect();
        assert_eq!(gpus, vec![4, 8, 16, 32]);
        let gpus: Vec<usize> = MT5_TABLE_III.iter().map(|e| e.gpus).collect();
        assert_eq!(gpus, vec![4, 8, 16, 32]);
    }

    #[test]
    fn configs_resolve_by_gpu_count() {
        assert!(gpt_config_for_gpus(4).is_some());
        assert!(gpt_config_for_gpus(32).is_some());
        assert!(gpt_config_for_gpus(5).is_none());
        assert!(mt5_config_for_gpus(8).is_some());
        let gpt4 = gpt_config_for_gpus(4).unwrap();
        assert_eq!(gpt4.num_layers, 32);
        assert_eq!(gpt4.vocab_size, 1_000_000);
    }

    #[test]
    fn embedding_dominates_parameters_for_large_vocabularies() {
        // The motivation of Fig. 2: the embedding table of a multilingual GPT
        // is enormous relative to a single transformer layer.
        let config = gpt_config_for_gpus(4).unwrap();
        // Half-precision bytes: V·H·2 for the table, 12·H²·2 for a layer.
        let embedding = config.vocab_size * config.hidden_size * 2;
        let layer = 12 * config.hidden_size * config.hidden_size * 2;
        assert!(embedding > 20 * layer);
    }

    #[test]
    fn flava_defaults_match_the_paper_inference_setup() {
        let flava = FlavaConfig::default();
        assert_eq!(
            flava.text_layers + flava.vision_layers + flava.cross_layers,
            24
        );
        assert_eq!(flava.hidden_size, 4096);
        assert_eq!(flava.num_heads, 32);
    }

    #[test]
    fn mt5_params_grow_with_gpu_count() {
        let params: Vec<f64> = MT5_TABLE_III
            .iter()
            .map(|e| e.to_config("mt5", 1024, 1).approx_params_billions())
            .collect();
        for pair in params.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}
