//! Placement shapes: the synthetic unit-cost shapes of Fig. 1 and the
//! model-driven placements of Fig. 8.

use crate::groups::{scale_over, DeviceGroups};
use crate::piper::partition_layers;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use tessel_core::ir::{BlockKind, BlockSpec, PlacementBuilder, PlacementSpec};
use tessel_core::CoreError;
use tessel_models::config::{FlavaConfig, ModelConfig};
use tessel_models::cost::{CostModel, LayerCost};

/// The placement shapes studied in the paper (Fig. 1 and Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShapeKind {
    /// Sequential stages, one per device (1F1B's placement).
    V,
    /// Bidirectional pipelines (Chimera's placement).
    X,
    /// Memory-heavy operators distributed across all devices, compute stages
    /// in a V between them (GPT with a large embedding).
    M,
    /// Two independent branches on disjoint devices joining in an all-device
    /// cross stage (Flava).
    K,
    /// Shared embedding across all devices feeding separate encoder and
    /// decoder pipelines (mT5).
    NN,
}

impl ShapeKind {
    /// All shapes, in the order the paper's figures list them.
    #[must_use]
    pub fn all() -> [ShapeKind; 5] {
        [
            ShapeKind::V,
            ShapeKind::X,
            ShapeKind::M,
            ShapeKind::K,
            ShapeKind::NN,
        ]
    }
}

impl fmt::Display for ShapeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ShapeKind::V => "V-Shape",
            ShapeKind::X => "X-Shape",
            ShapeKind::M => "M-Shape",
            ShapeKind::K => "K-Shape",
            ShapeKind::NN => "NN-Shape",
        };
        write!(f, "{name}")
    }
}

/// Builds a synthetic, unit-cost placement of the given shape over `devices`
/// devices: forward blocks cost 1 time unit and +1 memory unit, backward
/// blocks cost 2 time units and -1 memory unit (the convention of §III-B and
/// the Fig. 11/12 ablations). Memory is left unconstrained; use
/// [`PlacementSpec::with_memory_capacity`] for the Fig. 12 study.
///
/// Dependency rule: the backward blocks mirror the forward chain. Each
/// backward depends only on the block before it in that mirror, so only the
/// terminal forward feeds its own backward; every other forward reaches its
/// backward through the chain. The model-driven placements (see
/// [`gpt_m_shape`]) follow another rule.
///
/// # Errors
///
/// Returns an error for fewer than two devices (the K/X/NN shapes need at
/// least two).
pub fn synthetic_placement(kind: ShapeKind, devices: usize) -> Result<PlacementSpec> {
    use BlockKind::{Backward, Forward};
    if devices < 2 {
        return Err(CoreError::EmptyPlacement);
    }
    let half = devices / 2;
    let mut builder = PlacementSpec::builder(format!("{kind}-{devices}dev"), devices);
    let b = &mut builder;
    match kind {
        ShapeKind::V => {
            let last = chain(b, "", Forward, 0..devices, None);
            chain(b, "", Backward, (0..devices).rev(), Some(last));
        }
        ShapeKind::X => {
            // Two pipelines in opposite directions, as in Chimera.
            let last = chain(b, "d-", Forward, 0..devices, None);
            chain(b, "d-", Backward, (0..devices).rev(), Some(last));
            let last = chain(b, "u-", Forward, (0..devices).rev(), None);
            chain(b, "u-", Backward, 0..devices, Some(last));
        }
        ShapeKind::M => {
            let embed = unit_block(b, "embed-f", Forward, 0..devices, []);
            let last = chain(b, "", Forward, 0..devices, Some(embed));
            let last = chain(b, "", Backward, (0..devices).rev(), Some(last));
            unit_block(b, "embed-b", Backward, 0..devices, [last]);
        }
        ShapeKind::K => {
            let text = chain(b, "text-", Forward, 0..half, None);
            let vision = chain(b, "vision-", Forward, half..devices, None);
            let cross = unit_block(b, "cross-f", Forward, 0..devices, [text, vision]);
            let cross = unit_block(b, "cross-b", Backward, 0..devices, [cross]);
            chain(b, "text-", Backward, (0..half).rev(), Some(cross));
            chain(b, "vision-", Backward, (half..devices).rev(), Some(cross));
        }
        ShapeKind::NN => {
            let embed = unit_block(b, "embed-f", Forward, 0..devices, []);
            let enc = chain(b, "enc-", Forward, 0..half, Some(embed));
            let dec = chain(b, "dec-", Forward, half..devices, [embed, enc]);
            let last = chain(b, "dec-", Backward, (half..devices).rev(), Some(dec));
            let last = chain(b, "enc-", Backward, (0..half).rev(), Some(last));
            unit_block(b, "embed-b", Backward, 0..devices, [last]);
        }
    }
    builder.build()
}

/// Adds one unit-cost block of `kind` per device of `devices`, in order,
/// named `{prefix}f{device}` or `{prefix}b{device}`. Each block depends on the
/// one before it, the first on `first_deps`. Returns the last block's id.
fn chain(
    b: &mut PlacementBuilder,
    prefix: &str,
    kind: BlockKind,
    devices: impl IntoIterator<Item = usize>,
    first_deps: impl IntoIterator<Item = usize>,
) -> usize {
    let letter = if kind == BlockKind::Forward { 'f' } else { 'b' };
    let mut devices = devices.into_iter();
    let first = devices.next().expect("a chain spans at least one device");
    let mut prev = unit_block(
        b,
        format!("{prefix}{letter}{first}"),
        kind,
        [first],
        first_deps,
    );
    for d in devices {
        prev = unit_block(b, format!("{prefix}{letter}{d}"), kind, [d], [prev]);
    }
    prev
}

/// Adds one unit-cost block: a forward costs 1 time unit and holds 1 memory
/// unit, a backward costs 2 and releases it.
fn unit_block(
    b: &mut PlacementBuilder,
    name: impl Into<String>,
    kind: BlockKind,
    devices: impl IntoIterator<Item = usize>,
    deps: impl IntoIterator<Item = usize>,
) -> usize {
    let (time, memory) = if kind == BlockKind::Forward {
        (1, 1)
    } else {
        (2, -1)
    };
    b.add_block(name, kind, devices, time, memory, deps)
        .expect("valid block")
}

/// Memory multiplier covering parameters, gradients and (distributed)
/// optimizer state relative to half-precision parameter bytes.
const STATE_FACTOR: u64 = 4;

/// Memory units per GPU the V-shape baselines keep free of embedding state
/// when they size the embedding's groups: headroom for activations.
const BASELINE_ACTIVATION_MARGIN: i64 = 4;

/// Internal description of one pipeline stage of a model-driven placement.
struct StagePlan {
    name: String,
    devices: Vec<usize>,
    forward_time: u64,
    backward_time: u64,
    forward_flops: f64,
    backward_flops: f64,
    activation_mem: i64,
    static_mem: i64,
    output_bytes: u64,
    deps: Vec<usize>,
}

/// The stage plans of one model-driven placement and what costs them: the
/// cost model and the GPU groups behind each schedule device.
struct Stages<'a> {
    cost: &'a CostModel,
    groups: DeviceGroups,
    plans: Vec<StagePlan>,
}

impl<'a> Stages<'a> {
    fn new(cost: &'a CostModel, total_gpus: usize) -> Self {
        Stages {
            cost,
            groups: DeviceGroups::for_gpus(total_gpus),
            plans: Vec::new(),
        }
    }

    /// The embedding as the first stage, tensor-parallel across every GPU of
    /// the first `groups` schedule devices. Its activation memory is not
    /// sharded: every device of the stage holds the whole output.
    fn embed_stage(&mut self, embed: &LayerCost, groups: usize) {
        let cost = self.cost;
        let width = groups * self.groups.gpus_per_group;
        self.plans.push(StagePlan {
            name: "embed".into(),
            devices: (0..groups).collect(),
            forward_time: scale_over(cost.forward_time(embed), width),
            backward_time: scale_over(cost.backward_time(embed), width),
            forward_flops: embed.forward_flops,
            backward_flops: embed.backward_flops * cost.recompute_factor,
            activation_mem: cost.memory_units(embed.activation_bytes),
            static_mem: cost.memory_units(embed.param_bytes * STATE_FACTOR / width as u64),
            output_bytes: embed.output_bytes,
            deps: vec![],
        });
    }

    /// Appends a stage of `count` identical layers on `devices`, each layer
    /// split across `width` GPUs, and returns its index.
    fn layer_stage(
        &mut self,
        name: String,
        devices: Range<usize>,
        layer: &LayerCost,
        count: usize,
        width: usize,
        deps: Vec<usize>,
    ) -> usize {
        let cost = self.cost;
        let count = count as u64;
        self.plans.push(StagePlan {
            name,
            devices: devices.collect(),
            forward_time: (scale_over(cost.forward_time(layer), width) * count).max(1),
            backward_time: (scale_over(cost.backward_time(layer), width) * count).max(1),
            forward_flops: layer.forward_flops * count as f64,
            backward_flops: layer.backward_flops * cost.recompute_factor * count as f64,
            activation_mem: cost
                .memory_units(layer.activation_bytes * count / width as u64)
                .max(1),
            static_mem: cost.memory_units(layer.param_bytes * STATE_FACTOR * count / width as u64),
            output_bytes: layer.output_bytes,
            deps,
        });
        self.plans.len() - 1
    }

    /// Appends a pipeline of layer stages named `{name}0`, `{name}1`, …, one
    /// per schedule device of `devices`, holding `counts` layers in turn.
    /// Each stage depends on `shared` (when given) and on the stage before
    /// it; the first on `first` instead. Returns the last stage's index.
    fn pipeline(
        &mut self,
        name: &str,
        layer: &LayerCost,
        devices: Range<usize>,
        counts: impl IntoIterator<Item = usize>,
        shared: Option<usize>,
        first: Option<usize>,
    ) -> usize {
        let width = self.groups.gpus_per_group;
        let mut prev = first;
        for (i, (device, count)) in devices.zip(counts).enumerate() {
            let deps = shared.into_iter().chain(prev).collect();
            let stage = format!("{name}{i}");
            prev = Some(self.layer_stage(stage, device..device + 1, layer, count, width, deps));
        }
        prev.expect("a pipeline spans at least one device")
    }

    /// How many leading schedule devices the V-shape baselines give the
    /// embedding: enough that its state fits beside
    /// [`BASELINE_ACTIVATION_MARGIN`], and fewer than all of them.
    fn baseline_embed_groups(&self, embed: &LayerCost) -> Result<usize> {
        let embed_state = self.cost.memory_units(embed.param_bytes * STATE_FACTOR);
        let capacity = self.cost.device.memory_capacity_units();
        let usable_per_group =
            (capacity - BASELINE_ACTIVATION_MARGIN).max(1) * self.groups.gpus_per_group as i64;
        let embed_groups =
            ((embed_state + usable_per_group - 1) / usable_per_group).max(1) as usize;
        if embed_groups >= self.groups.stages {
            return Err(CoreError::PlacementOutOfMemory {
                device: 0,
                required: embed_state,
                capacity: usable_per_group * (self.groups.stages as i64 - 1),
            });
        }
        Ok(embed_groups)
    }

    /// Assembles a training (or inference) placement over `num_devices`
    /// schedule devices out of the stage plans.
    ///
    /// Dependency rule: a backward block depends on its own forward and on
    /// the backwards of the stages that consumed its output. The synthetic
    /// shapes ([`synthetic_placement`]) mirror their forward chain instead;
    /// the two rules stay apart because either one applied to the other
    /// family changes its edges, and with them its fingerprints, repetend
    /// candidates and pinned searches.
    fn assemble(self, name: String, num_devices: usize, inference: bool) -> Result<PlacementSpec> {
        let stages = self.plans;
        let capacity_units = self.cost.device.memory_capacity_units();
        // Static memory check: every schedule device must hold the parameter and
        // optimizer state of the stages mapped onto it.
        let mut static_per_device = vec![0i64; num_devices];
        for stage in &stages {
            for &d in &stage.devices {
                static_per_device[d] += stage.static_mem;
            }
        }
        let mut available = capacity_units;
        for (device, &static_mem) in static_per_device.iter().enumerate() {
            if static_mem >= capacity_units {
                return Err(CoreError::PlacementOutOfMemory {
                    device,
                    required: static_mem,
                    capacity: capacity_units,
                });
            }
            available = available.min(capacity_units - static_mem);
        }

        let mut builder = PlacementSpec::builder(name, num_devices);
        builder.set_memory_capacity(Some(available));
        // Forward blocks in stage order. Training forwards keep their activations
        // alive until the matching backward releases them; inference activations
        // are transient (consumed by the next stage), so they do not accumulate
        // against the budget.
        let mut forward_ids = Vec::with_capacity(stages.len());
        for stage in &stages {
            let deps: Vec<usize> = stage.deps.iter().map(|&s| forward_ids[s]).collect();
            let forward_memory = if inference { 0 } else { stage.activation_mem };
            let block = BlockSpec::new(
                format!("{}-f", stage.name),
                BlockKind::Forward,
                stage.devices.iter().copied(),
                stage.forward_time,
                forward_memory,
            )
            .with_deps(deps)
            .with_flops(stage.forward_flops)
            .with_output_bytes(stage.output_bytes);
            forward_ids.push(builder.push_block(block)?);
        }
        if !inference {
            // Backward blocks in reverse stage order.
            let mut backward_ids: Vec<Option<usize>> = vec![None; stages.len()];
            for (idx, stage) in stages.iter().enumerate().rev() {
                let mut deps = vec![forward_ids[idx]];
                for (succ_idx, succ) in stages.iter().enumerate() {
                    if succ.deps.contains(&idx) {
                        if let Some(bid) = backward_ids[succ_idx] {
                            deps.push(bid);
                        }
                    }
                }
                let block = BlockSpec::new(
                    format!("{}-b", stage.name),
                    BlockKind::Backward,
                    stage.devices.iter().copied(),
                    stage.backward_time,
                    -stage.activation_mem,
                )
                .with_deps(deps)
                .with_flops(stage.backward_flops)
                .with_output_bytes(stage.output_bytes);
                backward_ids[idx] = Some(builder.push_block(block)?);
            }
        }
        builder.build()
    }
}

/// The embedding, the transformer (encoder) layer and the mT5 decoder layer
/// of `config`.
fn model_layers(cost: &CostModel, config: &ModelConfig) -> (LayerCost, LayerCost, LayerCost) {
    let (hidden, seq, batch) = (config.hidden_size, config.seq_len, config.micro_batch_size);
    (
        cost.embedding_layer(hidden, config.vocab_size, seq, batch),
        cost.transformer_layer(hidden, seq, batch),
        cost.decoder_layer(hidden, seq, batch),
    )
}

/// `layers` layers split evenly over `stages` stages, at least one each.
fn even(layers: usize, stages: usize) -> std::iter::Repeat<usize> {
    std::iter::repeat((layers / stages).max(1))
}

/// The GPT placements: the embedding, then the transformer layers balanced
/// by [`partition_layers`] over one pipeline. `baseline` picks the V-shape
/// of [`gpt_v_shape_baseline`] over the M-shape of [`gpt_m_shape`].
fn gpt(
    config: &ModelConfig,
    cost: &CostModel,
    total_gpus: usize,
    baseline: bool,
) -> Result<PlacementSpec> {
    let mut stages = Stages::new(cost, total_gpus);
    let s = stages.groups.stages;
    let (embed, layer, _) = model_layers(cost, config);
    // The M-shape spreads the embedding over every device and starts the
    // layers on device 0; the baseline gives the embedding leading devices of
    // its own and the layers whatever is left.
    let (embed_groups, first_layer_device) = if baseline {
        let groups = stages.baseline_embed_groups(&embed)?;
        (groups, groups)
    } else {
        (s, 0)
    };
    stages.embed_stage(&embed, embed_groups);
    let width = stages.groups.gpus_per_group;
    let layer_time = scale_over(cost.forward_time(&layer), width)
        + scale_over(cost.backward_time(&layer), width);
    let times = vec![layer_time; config.num_layers];
    let partition =
        partition_layers(&times, s - first_layer_device).ok_or(CoreError::EmptyPlacement)?;
    let counts = partition.iter().map(|&(lo, hi)| hi - lo);
    stages.pipeline(
        "layers",
        &layer,
        first_layer_device..s,
        counts,
        None,
        Some(0),
    );
    let shape = if baseline { 'v' } else { 'm' };
    stages.assemble(format!("gpt-{shape}-shape-{total_gpus}gpu"), s, false)
}

/// The M-shape GPT placement of Fig. 8(a): the large embedding is
/// tensor-parallel across every GPU while the transformer layers form a
/// pipeline over the schedule devices (GPU groups).
///
/// Model-driven placements follow one dependency rule: a backward block
/// depends on its own forward and on the backwards of the stages that
/// consumed that forward's output.
///
/// # Errors
///
/// Returns [`CoreError::PlacementOutOfMemory`] when the static state does not
/// fit (which does not happen for the Table III configurations).
pub fn gpt_m_shape(
    config: &ModelConfig,
    cost: &CostModel,
    total_gpus: usize,
) -> Result<PlacementSpec> {
    gpt(config, cost, total_gpus, false)
}

/// The baseline V-shape GPT placement used by 1F1B (Piper policy): the
/// embedding takes as many leading GPU groups as its state needs, the
/// transformer layers share whatever is left — which is exactly the
/// imbalance Fig. 2 of the paper demonstrates.
///
/// # Errors
///
/// Returns [`CoreError::PlacementOutOfMemory`] if even dedicating all but one
/// group to the embedding is not enough.
pub fn gpt_v_shape_baseline(
    config: &ModelConfig,
    cost: &CostModel,
    total_gpus: usize,
) -> Result<PlacementSpec> {
    gpt(config, cost, total_gpus, true)
}

/// The NN-shape mT5 placement of Fig. 8(d): the shared embedding is spread
/// across every GPU, the encoder pipeline runs on the first half of the
/// schedule devices and the decoder pipeline on the second half.
///
/// # Errors
///
/// Returns [`CoreError::PlacementOutOfMemory`] when the static state does not
/// fit.
pub fn mt5_nn_shape(
    config: &ModelConfig,
    cost: &CostModel,
    total_gpus: usize,
) -> Result<PlacementSpec> {
    let mut stages = Stages::new(cost, total_gpus);
    let s = stages.groups.stages;
    let half = (s / 2).max(1);
    let (embed, enc, dec) = model_layers(cost, config);
    stages.embed_stage(&embed, s);
    let encoder_layers = config.num_layers / 2;
    let decoder_layers = config.num_layers - encoder_layers;
    let enc_counts = even(encoder_layers, half);
    let last_enc = stages.pipeline("enc", &enc, 0..half, enc_counts, Some(0), None);
    let dec_counts = even(decoder_layers, s - half);
    stages.pipeline("dec", &dec, half..s, dec_counts, Some(0), Some(last_enc));
    stages.assemble(format!("mt5-nn-shape-{total_gpus}gpu"), s, false)
}

/// Baseline V-shape mT5 placement (Piper policy, for 1F1B): the shared
/// embedding gets its own leading stage(s), encoder and decoder layers are
/// laid out sequentially over the remaining groups.
///
/// # Errors
///
/// Returns [`CoreError::PlacementOutOfMemory`] if the embedding cannot fit on
/// the available groups.
pub fn mt5_v_shape_baseline(
    config: &ModelConfig,
    cost: &CostModel,
    total_gpus: usize,
) -> Result<PlacementSpec> {
    let mut stages = Stages::new(cost, total_gpus);
    let s = stages.groups.stages;
    let width = stages.groups.gpus_per_group;
    let (embed, enc, dec) = model_layers(cost, config);
    let embed_groups = stages.baseline_embed_groups(&embed)?;
    stages.embed_stage(&embed, embed_groups);
    // Encoder layers followed by the (heavier) decoder layers, in one line.
    let encoder_layers = config.num_layers / 2;
    let layers: Vec<&LayerCost> = (0..config.num_layers)
        .map(|i| if i < encoder_layers { &enc } else { &dec })
        .collect();
    let times: Vec<u64> = layers
        .iter()
        .map(|l| scale_over(cost.forward_time(l), width) + scale_over(cost.backward_time(l), width))
        .collect();
    let partition = partition_layers(&times, s - embed_groups).ok_or(CoreError::EmptyPlacement)?;
    for (i, &(lo, hi)) in partition.iter().enumerate() {
        // Each layer of the stage at its own cost.
        let decoders = hi.max(encoder_layers) - lo.max(encoder_layers);
        let encoders = hi - lo - decoders;
        let sum = |e: f64, d: f64| e * encoders as f64 + d * decoders as f64;
        let recompute = cost.recompute_factor;
        let activation_bytes =
            enc.activation_bytes * encoders as u64 + dec.activation_bytes * decoders as u64;
        let deps = vec![stages.plans.len() - 1];
        stages.plans.push(StagePlan {
            name: format!("stack{i}"),
            devices: vec![embed_groups + i],
            forward_time: times[lo..hi].iter().map(|t| t / 4).sum::<u64>().max(1),
            backward_time: times[lo..hi].iter().map(|t| t - t / 4).sum::<u64>().max(1),
            forward_flops: sum(enc.forward_flops, dec.forward_flops),
            backward_flops: sum(
                enc.backward_flops * recompute,
                dec.backward_flops * recompute,
            ),
            activation_mem: cost.memory_units(activation_bytes / width as u64).max(1),
            static_mem: layers[lo..hi]
                .iter()
                .map(|l| cost.memory_units(l.param_bytes * STATE_FACTOR / width as u64))
                .sum(),
            output_bytes: enc.output_bytes,
            deps,
        });
    }
    stages.assemble(format!("mt5-v-shape-{total_gpus}gpu"), s, false)
}

/// The K-shape Flava placement of Fig. 8(g): the text branch runs on the
/// first half of the schedule devices, the vision branch on the second half,
/// and the cross encoder is tensor-parallel across all of them. With
/// `inference = true` only forward blocks are emitted (the Fig. 15 setup).
///
/// # Errors
///
/// Returns [`CoreError::PlacementOutOfMemory`] when the static state does not
/// fit.
pub fn flava_k_shape(
    config: &FlavaConfig,
    cost: &CostModel,
    total_gpus: usize,
    inference: bool,
) -> Result<PlacementSpec> {
    let mut stages = Stages::new(cost, total_gpus);
    let s = stages.groups.stages.max(2);
    let half = (s / 2).max(1);
    let layer = |seq| cost.transformer_layer(config.hidden_size, seq, config.micro_batch_size);
    let text = layer(config.text_seq_len);
    let vision = layer(config.vision_seq_len);
    let cross = layer(config.text_seq_len + config.vision_seq_len);
    let text_counts = even(config.text_layers, half);
    let text_end = stages.pipeline("text", &text, 0..half, text_counts, None, None);
    let vision_counts = even(config.vision_layers, s - half);
    let vision_end = stages.pipeline("vision", &vision, half..s, vision_counts, None, None);
    let total = stages.groups.total_gpus();
    let deps = vec![text_end, vision_end];
    stages.layer_stage(
        "cross".into(),
        0..s,
        &cross,
        config.cross_layers,
        total,
        deps,
    );
    let mode = if inference { "inference" } else { "training" };
    stages.assemble(
        format!("flava-k-shape-{total_gpus}gpu-{mode}"),
        s,
        inference,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_models::config::{gpt_config_for_gpus, mt5_config_for_gpus};

    #[test]
    fn synthetic_shapes_are_valid_for_various_device_counts() {
        for kind in ShapeKind::all() {
            for devices in [2usize, 4, 8] {
                let p = synthetic_placement(kind, devices).unwrap();
                assert!(p.validate().is_ok(), "{kind} on {devices} devices");
                assert!(p.num_blocks() >= 2 * devices, "{kind}");
                // Every training shape is memory neutral per micro-batch.
                for d in 0..devices {
                    assert_eq!(p.net_memory(d), 0, "{kind} device {d}");
                }
            }
        }
        assert!(synthetic_placement(ShapeKind::V, 1).is_err());
    }

    #[test]
    fn synthetic_shape_block_counts_match_their_structure() {
        let d = 4;
        assert_eq!(
            synthetic_placement(ShapeKind::V, d).unwrap().num_blocks(),
            2 * d
        );
        assert_eq!(
            synthetic_placement(ShapeKind::X, d).unwrap().num_blocks(),
            4 * d
        );
        assert_eq!(
            synthetic_placement(ShapeKind::M, d).unwrap().num_blocks(),
            2 * d + 2
        );
        assert_eq!(
            synthetic_placement(ShapeKind::K, d).unwrap().num_blocks(),
            2 * d + 2
        );
        assert_eq!(
            synthetic_placement(ShapeKind::NN, d).unwrap().num_blocks(),
            2 * d + 2
        );
    }

    #[test]
    fn m_and_nn_shapes_have_all_device_embedding_blocks() {
        for kind in [ShapeKind::M, ShapeKind::NN] {
            let p = synthetic_placement(kind, 4).unwrap();
            let all_device_blocks = p.blocks().iter().filter(|b| b.devices.len() == 4).count();
            assert_eq!(
                all_device_blocks, 2,
                "{kind} has embed fwd+bwd on all devices"
            );
        }
    }

    #[test]
    fn gpt_m_shape_balances_stage_loads() {
        let config = gpt_config_for_gpus(4).unwrap();
        let p = gpt_m_shape(&config, &CostModel::paper_default(), 4).unwrap();
        p.validate().unwrap();
        let loads: Vec<u64> = (0..p.num_devices()).map(|d| p.device_load(d)).collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.6,
            "M-shape should balance device loads, got {loads:?}"
        );
    }

    #[test]
    fn gpt_v_baseline_is_imbalanced_compared_to_m_shape() {
        // The Fig. 2 motivation: with the embedding pinned to its own stage,
        // the compute-heavy stages are much slower than the embedding stage.
        let config = gpt_config_for_gpus(4).unwrap();
        let cm = CostModel::paper_default();
        let v = gpt_v_shape_baseline(&config, &cm, 4).unwrap();
        let m = gpt_m_shape(&config, &cm, 4).unwrap();
        let imbalance = |p: &PlacementSpec| {
            let loads: Vec<u64> = (0..p.num_devices())
                .map(|d| p.device_load(d))
                .filter(|&l| l > 0)
                .collect();
            *loads.iter().max().unwrap() as f64 / *loads.iter().min().unwrap() as f64
        };
        assert!(
            imbalance(&v) > 1.1 * imbalance(&m),
            "V-shape imbalance {} should exceed M-shape imbalance {}",
            imbalance(&v),
            imbalance(&m)
        );
        // The M-shape bottleneck stage is faster than the V-shape one.
        let bottleneck = |p: &PlacementSpec| {
            (0..p.num_devices())
                .map(|d| p.device_load(d))
                .max()
                .unwrap()
        };
        assert!(bottleneck(&m) < bottleneck(&v));
    }

    #[test]
    fn model_placements_scale_to_larger_gpu_counts() {
        let cm = CostModel::paper_default();
        for gpus in [4usize, 8, 16, 32] {
            let gpt = gpt_config_for_gpus(gpus).unwrap();
            let p = gpt_m_shape(&gpt, &cm, gpus).unwrap();
            assert!(p.num_devices() <= 4);
            p.validate().unwrap();
            let mt5 = mt5_config_for_gpus(gpus).unwrap();
            let p = mt5_nn_shape(&mt5, &cm, gpus).unwrap();
            p.validate().unwrap();
        }
    }

    #[test]
    fn flava_k_shape_has_parallel_branches_and_cross_stage() {
        let config = FlavaConfig::default();
        let cm = CostModel::paper_default();
        let train = flava_k_shape(&config, &cm, 4, false).unwrap();
        train.validate().unwrap();
        let inference = flava_k_shape(&config, &cm, 4, true).unwrap();
        inference.validate().unwrap();
        // Inference has only forward blocks; training doubles them.
        assert_eq!(train.num_blocks(), 2 * inference.num_blocks());
        // The first text and vision stages are independent (can run in
        // parallel on different devices).
        let first_text = inference.block(0);
        assert!(first_text.deps.is_empty());
        let cross = inference
            .blocks()
            .iter()
            .find(|b| b.name.starts_with("cross"))
            .unwrap();
        assert_eq!(cross.devices.len(), inference.num_devices());
    }

    #[test]
    fn mt5_nn_shape_keeps_encoder_and_decoder_on_disjoint_devices() {
        let config = mt5_config_for_gpus(4).unwrap();
        let p = mt5_nn_shape(&config, &CostModel::paper_default(), 4).unwrap();
        let enc_devices: Vec<usize> = p
            .blocks()
            .iter()
            .filter(|b| b.name.starts_with("enc"))
            .flat_map(|b| b.devices.clone())
            .collect();
        let dec_devices: Vec<usize> = p
            .blocks()
            .iter()
            .filter(|b| b.name.starts_with("dec"))
            .flat_map(|b| b.devices.clone())
            .collect();
        assert!(enc_devices.iter().all(|d| !dec_devices.contains(d)));
    }

    #[test]
    fn baseline_reports_oom_when_embedding_cannot_fit() {
        // An absurdly large vocabulary on 2 GPUs: the embedding alone
        // overflows every stage the baseline could give it.
        let mut config = gpt_config_for_gpus(4).unwrap();
        config.vocab_size = 10_000_000;
        let err = gpt_v_shape_baseline(&config, &CostModel::paper_default(), 2).unwrap_err();
        assert!(matches!(err, CoreError::PlacementOutOfMemory { .. }));
    }

    #[test]
    fn baselines_carry_the_flops_of_the_advanced_placements() {
        // The same model in another placement does the same work.
        let cm = CostModel::paper_default();
        let mut compared = 0;
        for gpus in [4usize, 8, 16, 32] {
            let gpt = gpt_config_for_gpus(gpus).unwrap();
            let mt5 = mt5_config_for_gpus(gpus).unwrap();
            for (advanced, baseline) in [
                (
                    gpt_m_shape(&gpt, &cm, gpus),
                    gpt_v_shape_baseline(&gpt, &cm, gpus),
                ),
                (
                    mt5_nn_shape(&mt5, &cm, gpus),
                    mt5_v_shape_baseline(&mt5, &cm, gpus),
                ),
            ] {
                let (Ok(advanced), Ok(baseline)) = (advanced, baseline) else {
                    continue;
                };
                let (a, b) = (advanced.total_flops(), baseline.total_flops());
                assert!(
                    (a - b).abs() <= 1e-9 * a,
                    "{} does {b} FLOPs, {} does {a}",
                    baseline.name(),
                    advanced.name()
                );
                compared += 1;
            }
        }
        // GPT at every count, mT5's baseline only where its embedding fits.
        assert_eq!(compared, 6);
    }

    #[test]
    fn shape_kind_display_names() {
        assert_eq!(ShapeKind::V.to_string(), "V-Shape");
        assert_eq!(ShapeKind::NN.to_string(), "NN-Shape");
        assert_eq!(ShapeKind::all().len(), 5);
    }
}
