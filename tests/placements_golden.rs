//! Every placement the placement crate emits is pinned, byte for byte.
//!
//! `tests/golden/placements.jsonl` holds one line per case: the case's name
//! and either the placement's JSON or, where the builder refuses (an
//! embedding that does not fit), its error text. The cases cover the
//! synthetic Fig. 1 shapes at 2–8 and 16 devices, the Fig. 8 model
//! placements and their 1F1B baselines at every Table III GPU count, Flava
//! for training and inference, and Fig. 2's 768k-vocabulary GPT baselines.
//! A refactor of the builders must reproduce every line; a change that means
//! to move a placement re-records the file with
//! `cargo test --test placements_golden -- --ignored` and names what moved.

use tessel::core::ir::PlacementSpec;
use tessel::core::CoreError;
use tessel::models::config::{gpt_config_for_gpus, mt5_config_for_gpus, FlavaConfig, ModelConfig};
use tessel::models::cost::CostModel;
use tessel::placement::shapes::{
    flava_k_shape, gpt_m_shape, gpt_v_shape_baseline, mt5_nn_shape, mt5_v_shape_baseline,
    synthetic_placement, ShapeKind,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/placements.jsonl");

fn line(case: &str, built: Result<PlacementSpec, CoreError>) -> String {
    let case = serde_json::to_string(case).expect("case name");
    match built {
        Ok(placement) => format!(
            "{{\"case\":{case},\"placement\":{}}}",
            serde_json::to_string(&placement).expect("placement JSON")
        ),
        Err(e) => format!(
            "{{\"case\":{case},\"error\":{}}}",
            serde_json::to_string(&e.to_string()).expect("error text")
        ),
    }
}

/// Fig. 2's GPT: a 768k vocabulary on 4 GPUs, 24 to 40 layers.
fn fig02_config(layers: usize) -> ModelConfig {
    ModelConfig {
        name: "gpt".into(),
        num_layers: layers,
        hidden_size: 4096,
        num_heads: 32,
        vocab_size: 768_000,
        seq_len: 1024,
        micro_batch_size: 1,
    }
}

/// Every pinned placement, rendered as the golden file's text.
fn render() -> String {
    let mut lines = Vec::new();
    for kind in ShapeKind::all() {
        for devices in (2..=8).chain([16]) {
            lines.push(line(
                &format!("synthetic/{kind}/{devices}"),
                synthetic_placement(kind, devices),
            ));
        }
    }
    let cost = CostModel::paper_default();
    for gpus in [4usize, 8, 16, 32] {
        let gpt = gpt_config_for_gpus(gpus).expect("Table III GPT row");
        let mt5 = mt5_config_for_gpus(gpus).expect("Table III mT5 row");
        lines.push(line(
            &format!("gpt_m_shape/{gpus}"),
            gpt_m_shape(&gpt, &cost, gpus),
        ));
        lines.push(line(
            &format!("gpt_v_shape_baseline/{gpus}"),
            gpt_v_shape_baseline(&gpt, &cost, gpus),
        ));
        lines.push(line(
            &format!("mt5_nn_shape/{gpus}"),
            mt5_nn_shape(&mt5, &cost, gpus),
        ));
        lines.push(line(
            &format!("mt5_v_shape_baseline/{gpus}"),
            mt5_v_shape_baseline(&mt5, &cost, gpus),
        ));
        for inference in [false, true] {
            lines.push(line(
                &format!("flava_k_shape/{gpus}/inference={inference}"),
                flava_k_shape(&FlavaConfig::default(), &cost, gpus, inference),
            ));
        }
    }
    for layers in [24usize, 28, 32, 36, 40] {
        lines.push(line(
            &format!("fig02/gpt_v_shape_baseline/{layers}"),
            gpt_v_shape_baseline(&fig02_config(layers), &cost, 4),
        ));
    }
    lines.push(String::new());
    lines.join("\n")
}

#[test]
fn placements_match_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/placements.jsonl");
    let actual = render();
    for (number, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert!(
            want == got,
            "placements.jsonl line {} differs\n  golden: {want}\n  actual: {got}\n\
             if moving this placement is the point of the change, say so and re-record with \
             `cargo test --test placements_golden -- --ignored`",
            number + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "placements.jsonl has a different number of cases"
    );
}

/// Writes the golden file from the code as it stands.
#[test]
#[ignore = "re-records the golden file; run it only for a change that means to move a placement"]
fn record_golden_placements() {
    std::fs::write(GOLDEN, render()).expect("write golden file");
}
