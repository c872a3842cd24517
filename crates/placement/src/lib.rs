//! Operator placement strategies for the Tessel reproduction.
//!
//! Tessel takes a placement as input; this crate produces them:
//!
//! * [`shapes`] — the synthetic, unit-cost V/X/M/K/NN shapes of Fig. 1 used
//!   by the search-space studies (Figs. 3, 11 and 12, Table II), and the
//!   model-driven placements of Fig. 8 built from the analytical cost models
//!   of `tessel-models` (M-shape GPT, NN-shape mT5, K-shape Flava, plus the
//!   V-shape baseline placement used by 1F1B).
//! * [`piper`] — a Piper-style dynamic-programming partitioner that splits a
//!   linear layer sequence into pipeline stages, balancing per-stage compute
//!   time.
//! * [`groups`] — device groups: the paper scales to 8/16/32 GPUs by
//!   combining pipeline stages with tensor/data parallelism inside each
//!   block, so a "device" of the schedule search becomes a group of GPUs
//!   whose blocks run faster by the group size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod groups;
pub mod piper;
pub mod shapes;

pub use groups::DeviceGroups;
pub use piper::partition_layers;
pub use shapes::{
    flava_k_shape, gpt_m_shape, gpt_v_shape_baseline, mt5_nn_shape, mt5_v_shape_baseline,
    synthetic_placement, ShapeKind,
};

/// Result alias re-using the core error type.
pub type Result<T> = std::result::Result<T, tessel_core::CoreError>;
