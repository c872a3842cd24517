//! Analytical DNN cost models for the Tessel reproduction.
//!
//! The paper evaluates Tessel on three models — GPT, mT5 and Flava — captured
//! through TorchScript and profiled on V100 GPUs. This crate replaces that
//! pipeline with an *analytical* cost model: each layer's FLOPs, parameter bytes
//! and activation bytes are derived from the architecture hyper-parameters of
//! Table III ([`config`]), and converted into the integer time/memory units
//! consumed by the Tessel search ([`cost`]). The crate holds no layer graphs:
//! `tessel-placement` builds its placements from a [`CostModel`] and a
//! [`ModelConfig`] / [`FlavaConfig`] directly. The relative magnitudes (huge,
//! compute-light embedding layers versus compute-heavy transformer layers;
//! recompute making backward roughly 3x forward) are what drive the paper's
//! results, and they are preserved here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;

pub use config::{FlavaConfig, ModelConfig, TableIIIEntry, GPT_TABLE_III, MT5_TABLE_III};
pub use cost::{CostModel, DeviceProfile, LayerCost};
