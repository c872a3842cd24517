//! Experiment harness shared by the per-figure binaries and benches.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` that prints the corresponding rows/series; this library hosts
//! the plumbing they share: building model placements, running the Tessel
//! search and the baselines, simulating schedules on the cluster model, and
//! emitting results both as human-readable tables and as JSON under
//! `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod legacy_solver;
pub mod report;

use serde::Serialize;
use std::path::PathBuf;
use tessel_baselines::{one_f_one_b, one_f_one_b_plus};
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::Schedule;
use tessel_core::search::{SearchConfig, SearchOutcome, SearchStats, TesselSearch};
use tessel_core::CoreError;
use tessel_models::config::{gpt_config_for_gpus, mt5_config_for_gpus, FlavaConfig};
use tessel_models::cost::CostModel;
use tessel_placement::shapes::{
    flava_k_shape, gpt_m_shape, gpt_v_shape_baseline, mt5_nn_shape, mt5_v_shape_baseline,
};
use tessel_runtime::{instantiate, simulate, ClusterSpec, CommMode, ExecutionReport};

/// Output record of one experiment, dumped as JSON next to the textual table.
#[derive(Debug, Serialize)]
pub struct ExperimentRecord<T: Serialize> {
    /// Experiment identifier (e.g. `"fig13"`).
    pub id: String,
    /// Human readable description.
    pub description: String,
    /// The data series.
    pub data: T,
}

/// Writes an experiment record to `target/experiments/<id>.json` (best
/// effort: failures to write are reported on stderr but do not abort the
/// experiment).
pub fn save_record<T: Serialize>(record: &ExperimentRecord<T>) {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{}.json", record.id));
    match serde_json::to_string_pretty(record) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise {}: {e}", record.id),
    }
}

/// Prints a simple aligned table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Headers of [`screening_cells`].
pub const SCREENING_HEADER: [&str; 2] = [
    "screened / solved",
    "by load/path/Jackson/selection/probing",
];

/// What became of a search's candidates, as the search-cost figures print
/// it: how many the `CandidateScreen` refuted and how many were solved, and
/// the refuted ones by the stage that refuted them. Host-independent, so the
/// figures' goldens pin these cells.
#[must_use]
pub fn screening_cells(stats: &SearchStats) -> [String; 2] {
    let by = &stats.screened_by;
    [
        format!("{} / {}", stats.candidates_screened, stats.repetend_solves),
        format!(
            "{}/{}/{}/{}/{}",
            by.load, by.critical_path, by.jackson, by.immediate_selection, by.probing
        ),
    ]
}

/// Prints, on a line of its own under a search-cost table, how many prefixes
/// the enumeration refuted per placement ([`SearchStats::subtrees_pruned`]):
/// the candidates under them appear in no column of [`screening_cells`]. The
/// labels are cut at their parenthesis so the line matches none of the row
/// patterns the figures' goldens are extracted with.
pub fn print_subtrees_pruned(pruned: &[(&str, usize)]) {
    let cells: Vec<String> = pruned
        .iter()
        .map(|(label, n)| format!("{} {n}", label.split(" (").next().unwrap_or(label)))
        .collect();
    println!("subtrees_pruned: {}", cells.join(", "));
}

/// Builds the *time-optimal* (whole-schedule) solver instance used as the
/// Fig. 3/9 baseline: every block of every micro-batch as a separate task,
/// with only the intra-micro-batch data dependencies — the formulation the
/// paper hands to Z3 directly.
///
/// # Errors
///
/// Propagates instance-construction errors (cannot occur for valid
/// placements).
pub fn time_optimal_instance(
    placement: &PlacementSpec,
    micro_batches: usize,
) -> Result<tessel_solver::Instance, CoreError> {
    let mut builder = tessel_solver::InstanceBuilder::new(placement.num_devices());
    builder.set_memory_capacity(placement.memory_capacity());
    let mut ids = vec![Vec::new(); micro_batches];
    for (mb, mb_ids) in ids.iter_mut().enumerate() {
        for (stage, block) in placement.blocks().iter().enumerate() {
            let id = builder.add_task(
                format!("{}^{}", block.name, mb),
                block.time,
                block.devices.iter().copied(),
                block.memory,
            )?;
            debug_assert_eq!(id.index(), mb * placement.num_blocks() + stage);
            mb_ids.push(id);
        }
        for (stage, block) in placement.blocks().iter().enumerate() {
            for &dep in &block.deps {
                builder.add_precedence(mb_ids[dep], mb_ids[stage])?;
            }
        }
    }
    Ok(builder.build()?)
}

/// The three evaluation models with their advanced (Tessel) and baseline
/// (V-shape) placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalModel {
    /// GPT with a large multilingual embedding (M-shape).
    Gpt,
    /// mT5 encoder–decoder with a shared embedding (NN-shape).
    Mt5,
    /// Flava multi-modal model (K-shape).
    Flava,
}

impl EvalModel {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EvalModel::Gpt => "GPT (M-Shape)",
            EvalModel::Mt5 => "mT5 (NN-Shape)",
            EvalModel::Flava => "Flava (K-Shape)",
        }
    }

    /// The advanced placement used by Tessel and 1F1B+ for `gpus` GPUs.
    ///
    /// # Errors
    ///
    /// Propagates placement construction failures (e.g. out of memory).
    pub fn advanced_placement(self, gpus: usize) -> Result<PlacementSpec, CoreError> {
        let cost = CostModel::paper_default();
        match self {
            EvalModel::Gpt => {
                let config = gpt_config_for_gpus(gpus).ok_or(CoreError::EmptyPlacement)?;
                gpt_m_shape(&config, &cost, gpus)
            }
            EvalModel::Mt5 => {
                let config = mt5_config_for_gpus(gpus).ok_or(CoreError::EmptyPlacement)?;
                mt5_nn_shape(&config, &cost, gpus)
            }
            EvalModel::Flava => flava_k_shape(&FlavaConfig::default(), &cost, gpus, false),
        }
    }

    /// The baseline V-shape placement used by plain 1F1B for `gpus` GPUs.
    ///
    /// # Errors
    ///
    /// Propagates placement construction failures (e.g. out of memory).
    pub fn baseline_placement(self, gpus: usize) -> Result<PlacementSpec, CoreError> {
        let cost = CostModel::paper_default();
        match self {
            EvalModel::Gpt => {
                let config = gpt_config_for_gpus(gpus).ok_or(CoreError::EmptyPlacement)?;
                gpt_v_shape_baseline(&config, &cost, gpus)
            }
            EvalModel::Mt5 => {
                let config = mt5_config_for_gpus(gpus).ok_or(CoreError::EmptyPlacement)?;
                mt5_v_shape_baseline(&config, &cost, gpus)
            }
            EvalModel::Flava => flava_k_shape(&FlavaConfig::default(), &cost, gpus, false),
        }
    }
}

/// A search configuration sized for the experiment binaries: small enough to
/// finish in seconds, large enough to find the zero-bubble repetends.
#[must_use]
pub fn experiment_search_config(num_micro_batches: usize) -> SearchConfig {
    let mut config = SearchConfig::default().with_micro_batches(num_micro_batches);
    config.max_repetend_micro_batches = 6;
    config.candidate_limit = Some(4000);
    config
}

/// Runs the Tessel search on a placement with the experiment configuration.
///
/// # Errors
///
/// Propagates search failures.
pub fn run_tessel(
    placement: &PlacementSpec,
    micro_batches: usize,
) -> Result<SearchOutcome, CoreError> {
    TesselSearch::new(experiment_search_config(micro_batches)).run(placement)
}

/// Simulates a schedule on the paper's V100 cluster model.
///
/// # Errors
///
/// Propagates instantiation/simulation failures.
pub fn simulate_schedule(
    placement: &PlacementSpec,
    schedule: &Schedule,
    total_gpus: usize,
    mode: CommMode,
) -> Result<ExecutionReport, CoreError> {
    let cluster = cluster_for(placement, total_gpus);
    let program = instantiate(placement, schedule, mode)?;
    simulate(&program, &cluster, mode)
}

/// The cluster model backing a placement: schedule devices are GPU *groups*,
/// so consecutive groups of a 4-stage placement spread across servers once
/// the total GPU count exceeds one server.
#[must_use]
pub fn cluster_for(placement: &PlacementSpec, total_gpus: usize) -> ClusterSpec {
    let mut cluster = ClusterSpec::v100_cluster(placement.num_devices());
    // With more than 8 GPUs the schedule devices (groups) land on different
    // servers; model that by shrinking the NVLink domain accordingly.
    let groups = placement.num_devices().max(1);
    let gpus_per_group = (total_gpus / groups).max(1);
    cluster.gpus_per_server = (8 / gpus_per_group).max(1);
    cluster
}

/// Convenience wrapper bundling the three training comparisons of Figs. 13
/// and 14 for one GPU count.
#[derive(Debug, Clone, Serialize)]
pub struct TrainingComparison {
    /// GPU count.
    pub gpus: usize,
    /// Aggregate PFLOPS of Tessel's searched schedule.
    pub tessel_pflops: Option<f64>,
    /// Aggregate PFLOPS of 1F1B+ (same placement, fixed schedule).
    pub one_f_one_b_plus_pflops: Option<f64>,
    /// Aggregate PFLOPS of plain 1F1B on the V-shape placement.
    pub one_f_one_b_pflops: Option<f64>,
    /// Aggregate PFLOPS of the Chimera estimate (`None` = out of memory).
    pub chimera_pflops: Option<f64>,
}

/// Runs the full training comparison for one model and GPU count with
/// `micro_batches` micro-batches per iteration.
///
/// Out-of-memory placements and infeasible schedules are reported as `None`,
/// matching the `×` markers of Figs. 13 and 14.
#[must_use]
pub fn training_comparison(
    model: EvalModel,
    gpus: usize,
    micro_batches: usize,
) -> TrainingComparison {
    let cost = CostModel::paper_default();
    let cluster_time = |report: &ExecutionReport, placement: &PlacementSpec| {
        report.pflops(&cluster_for(placement, gpus))
    };

    let advanced = model.advanced_placement(gpus);
    let (tessel_pflops, plus_pflops) = match advanced {
        Ok(placement) => {
            let tessel = run_tessel(&placement, micro_batches)
                .ok()
                .and_then(|outcome| {
                    simulate_schedule(&placement, &outcome.schedule, gpus, CommMode::NonBlocking)
                        .ok()
                })
                .map(|report| cluster_time(&report, &placement));
            let plus = one_f_one_b_plus(&placement, micro_batches)
                .ok()
                .and_then(|s| simulate_schedule(&placement, &s, gpus, CommMode::NonBlocking).ok())
                .map(|report| cluster_time(&report, &placement));
            (tessel, plus)
        }
        Err(_) => (None, None),
    };

    let one_f_one_b_pflops = model.baseline_placement(gpus).ok().and_then(|placement| {
        one_f_one_b(&placement, micro_batches)
            .ok()
            .and_then(|s| simulate_schedule(&placement, &s, gpus, CommMode::NonBlocking).ok())
            .map(|report| cluster_time(&report, &placement))
    });

    // Chimera: estimate from the baseline placement's busiest device and a
    // doubled model replica.
    let chimera_pflops = model.baseline_placement(gpus).ok().and_then(|placement| {
        let capacity = cost.device.memory_capacity_units();
        let per_device_work = placement.repetend_lower_bound();
        // Static memory of one replica per schedule device is the complement
        // of the activation budget the placement builder left available.
        let single_replica_static = capacity - placement.memory_capacity().unwrap_or(capacity);
        let estimate = tessel_baselines::chimera_estimate(
            per_device_work,
            micro_batches,
            placement.num_devices(),
            single_replica_static,
            capacity,
        );
        estimate.iteration_time.map(|time_units| {
            let cluster = cluster_for(&placement, gpus);
            let seconds = time_units as f64 * cluster.time_unit_seconds;
            let flops = placement.total_flops() * micro_batches as f64;
            flops / seconds / 1e15
        })
    });

    TrainingComparison {
        gpus,
        tessel_pflops,
        one_f_one_b_plus_pflops: plus_pflops,
        one_f_one_b_pflops,
        chimera_pflops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_build_for_the_4_gpu_setting() {
        for model in [EvalModel::Gpt, EvalModel::Mt5, EvalModel::Flava] {
            let advanced = model.advanced_placement(4).unwrap();
            advanced.validate().unwrap();
            let baseline = model.baseline_placement(4).unwrap();
            baseline.validate().unwrap();
            assert!(!model.name().is_empty());
        }
    }

    #[test]
    fn training_comparison_prefers_tessel_over_1f1b_for_gpt() {
        let comparison = training_comparison(EvalModel::Gpt, 4, 8);
        let tessel = comparison.tessel_pflops.expect("tessel should run");
        let baseline = comparison.one_f_one_b_pflops.expect("1f1b should run");
        assert!(
            tessel > baseline,
            "Tessel {tessel} PFLOPS should beat 1F1B {baseline} PFLOPS"
        );
    }

    #[test]
    fn cluster_mapping_scales_with_gpu_count() {
        let placement = EvalModel::Gpt.advanced_placement(4).unwrap();
        let small = cluster_for(&placement, 4);
        let large = cluster_for(&placement, 32);
        assert!(large.gpus_per_server <= small.gpus_per_server);
    }
}
