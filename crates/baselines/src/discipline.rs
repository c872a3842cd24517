//! Pre-defined pipeline disciplines: GPipe, 1F1B and 1F1B+.
//!
//! All three are realised as deterministic list schedules over the block
//! instances of `N` micro-batches:
//!
//! * **GPipe** runs every forward block of every micro-batch before any
//!   backward block (maximum in-flight micro-batches, maximum memory).
//! * **1F1B** caps the number of in-flight micro-batches at the pipeline
//!   depth and, once the cap is reached, always prefers the backward block of
//!   the oldest in-flight micro-batch — the classic one-forward-one-backward
//!   steady state.
//! * **1F1B+** is the paper's manual adaptation of 1F1B to advanced
//!   placements (M/NN shapes): the same discipline applied to a placement
//!   whose distributed (multi-device) blocks are scheduled adjacent to their
//!   neighbouring stages.

use crate::Result;
use tessel_core::completion::complete_schedule;
use tessel_core::compose::compose_schedule;
use tessel_core::ir::{BlockKind, PlacementSpec};
use tessel_core::repetend::{solve_repetend, RepetendCandidate};
use tessel_core::schedule::{scheduled_block, Schedule, ScheduledBlock};
use tessel_core::CoreError;
use tessel_solver::{Solver, SolverConfig};

/// Which pre-defined discipline to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// All forwards first, then all backwards.
    GPipe,
    /// One-forward-one-backward with a bounded number of in-flight
    /// micro-batches.
    OneFOneB {
        /// Maximum number of micro-batches in flight (usually the pipeline
        /// depth).
        max_inflight: usize,
    },
}

/// Builds a baseline schedule for `placement` and `n` micro-batches under the
/// given discipline.
///
/// The schedule is constructed greedily in chronological order: at every step
/// the discipline picks one ready block (dependencies satisfied, memory
/// feasible, in-flight cap respected) and starts it at the earliest feasible
/// time. The result is validated before being returned.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] if the discipline dead-ends (for
/// example GPipe exceeding the memory budget) — which is itself a result the
/// paper reports as an out-of-memory failure.
pub fn baseline_schedule(
    placement: &PlacementSpec,
    n: usize,
    discipline: Discipline,
) -> Result<Schedule> {
    placement.validate()?;
    let k = placement.num_blocks();
    let total = n * k;
    let capacity = placement.memory_capacity();
    let max_inflight = match discipline {
        Discipline::GPipe => n,
        Discipline::OneFOneB { max_inflight } => max_inflight.max(1),
    };

    // State.
    let mut scheduled: Vec<Vec<bool>> = vec![vec![false; n]; k];
    let mut finish: Vec<Vec<u64>> = vec![vec![0; n]; k];
    let mut device_finish = vec![0u64; placement.num_devices()];
    let mut device_mem = vec![0i64; placement.num_devices()];
    let mut blocks: Vec<ScheduledBlock> = Vec::with_capacity(total);
    // A micro-batch is "in flight" once any of its blocks started and until
    // its last block completed (scheduled, for the purpose of the cap).
    let mut started = vec![false; n];
    let mut remaining = vec![k; n];

    for _ in 0..total {
        let inflight = (0..n).filter(|&m| started[m] && remaining[m] > 0).count();
        let mut best: Option<(usize, usize, u64)> = None;
        for mb in 0..n {
            for stage in 0..k {
                if scheduled[stage][mb] {
                    continue;
                }
                let spec = placement.block(stage);
                // Dependencies within the micro-batch.
                if spec.deps.iter().any(|&d| !scheduled[d][mb]) {
                    continue;
                }
                // Same-stage blocks run in micro-batch order (keeps the
                // pipeline FIFO and matches the 1F1B definition).
                if mb > 0 && !scheduled[stage][mb - 1] {
                    continue;
                }
                // In-flight cap: starting a *new* micro-batch is only allowed
                // below the cap.
                if !started[mb] && inflight >= max_inflight {
                    continue;
                }
                // Memory feasibility. 1F1B stalls new work until memory is
                // available; GPipe has no such adaptation — it schedules
                // regardless and the final validation reports the overflow,
                // which is how its out-of-memory failures surface.
                if let (Some(cap), Discipline::OneFOneB { .. }) = (capacity, discipline) {
                    let fits = spec
                        .devices
                        .iter()
                        .all(|&d| device_mem[d] + spec.memory <= cap);
                    if !fits {
                        continue;
                    }
                }
                let mut est = 0u64;
                for &d in &spec.deps {
                    est = est.max(finish[d][mb]);
                }
                for &d in &spec.devices {
                    est = est.max(device_finish[d]);
                }
                // Discipline priority.
                // * GPipe: every forward (in micro-batch order) before any
                //   backward.
                // * 1F1B: the ready block that can start earliest; ties go to
                //   backward blocks and then to the oldest micro-batch, which
                //   yields the classic one-forward-one-backward alternation.
                let rank = rank_of(discipline, spec.kind, mb, est, stage);
                let better = match &best {
                    None => true,
                    Some((b_stage, b_mb, b_est)) => {
                        let b_kind = placement.block(*b_stage).kind;
                        rank < rank_of(discipline, b_kind, *b_mb, *b_est, *b_stage)
                    }
                };
                if better {
                    best = Some((stage, mb, est));
                }
            }
        }
        let Some((stage, mb, est)) = best else {
            return Err(CoreError::InvalidSchedule(format!(
                "{} dead-ends after {} of {} blocks (out of memory or circular wait)",
                match discipline {
                    Discipline::GPipe => "GPipe",
                    Discipline::OneFOneB { .. } => "1F1B",
                },
                blocks.len(),
                total
            )));
        };
        let spec = placement.block(stage);
        scheduled[stage][mb] = true;
        started[mb] = true;
        remaining[mb] -= 1;
        finish[stage][mb] = est + spec.time;
        for &d in &spec.devices {
            device_finish[d] = est + spec.time;
            device_mem[d] += spec.memory;
        }
        blocks.push(scheduled_block(placement, stage, mb, est));
    }

    let schedule = Schedule::new(placement.num_devices(), n, blocks);
    schedule.validate(placement)?;
    Ok(schedule)
}

/// Ordering key of a ready block under a discipline; smaller is scheduled
/// first.
fn rank_of(
    discipline: Discipline,
    kind: BlockKind,
    mb: usize,
    est: u64,
    stage: usize,
) -> (u64, u8, usize, usize) {
    match discipline {
        Discipline::GPipe => {
            let phase = match kind {
                BlockKind::Forward => 0u64,
                BlockKind::Backward => 1u64,
            };
            (phase, 0, mb, stage)
        }
        Discipline::OneFOneB { .. } => {
            let tie = match kind {
                BlockKind::Backward => 0u8,
                BlockKind::Forward => 1u8,
            };
            (est, tie, mb, stage)
        }
    }
}

/// The classic 1F1B schedule: in-flight micro-batches capped at the pipeline
/// depth (number of devices).
///
/// # Errors
///
/// See [`baseline_schedule`].
pub fn one_f_one_b(placement: &PlacementSpec, n: usize) -> Result<Schedule> {
    baseline_schedule(
        placement,
        n,
        Discipline::OneFOneB {
            max_inflight: placement.num_devices(),
        },
    )
}

/// The paper's 1F1B+ baseline: the 1F1B steady-state pattern manually adapted
/// to an advanced placement (M-, NN- or K-shape) by inserting the distributed
/// (multi-device) blocks next to their neighbouring stages.
///
/// The adaptation is expressed as a *fixed* repetend: forward blocks carry
/// descending micro-batch indices along the dependency chain (exactly the
/// 1F1B steady state) and backward blocks carry index zero. Unlike Tessel,
/// neither the index assignment nor the compaction between repetitions is
/// searched, so the resulting schedule keeps the data-dependency bubbles the
/// paper attributes to 1F1B+.
///
/// # Errors
///
/// Returns an error if `n` is zero or the fixed pattern admits no feasible
/// schedule under the memory budget.
pub fn one_f_one_b_plus(placement: &PlacementSpec, n: usize) -> Result<Schedule> {
    placement.validate()?;
    let k = placement.num_blocks();
    if n == 0 {
        return Err(CoreError::TooFewMicroBatches {
            requested: 0,
            required: 1,
        });
    }
    // Canonical 1F1B index assignment: along the topological order, forward
    // blocks count down the number of forward blocks that follow them;
    // backward blocks stay at zero. Clamp by the memory-derived in-flight cap
    // and by `n`, so the repetend never needs more micro-batches than asked.
    let order = placement.topological_stages();
    let forwards: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&s| placement.block(s).kind == BlockKind::Forward)
        .collect();
    let cap = placement
        .max_inflight_micro_batches(placement.num_devices())
        .max(1);
    let mut indices = vec![0usize; k];
    for (pos, &stage) in forwards.iter().enumerate() {
        indices[stage] = (forwards.len() - 1 - pos).min(cap - 1).min(n - 1);
    }
    // Property 4.2 requires indices to be non-increasing along dependencies;
    // enforce it explicitly in case the placement has parallel branches.
    for &stage in &order {
        let bound = placement
            .block(stage)
            .deps
            .iter()
            .map(|&d| indices[d])
            .min()
            .unwrap_or(usize::MAX);
        indices[stage] = indices[stage].min(bound);
    }
    let candidate = RepetendCandidate { indices };

    let solver = Solver::new(SolverConfig::default());
    let repetend = solve_repetend(placement, &candidate, &solver, u64::MAX)?
        .ok_or(CoreError::NoFeasibleRepetend)?;
    let copies = n - repetend.num_micro_batches() + 1;
    let (warmup, cooldown) = complete_schedule(placement, &repetend, copies, &solver)?;
    compose_schedule(placement, &repetend, &warmup, &cooldown, n)
}

/// The GPipe schedule: all forwards, then all backwards.
///
/// # Errors
///
/// See [`baseline_schedule`]; GPipe frequently fails on tight memory budgets
/// because it keeps every micro-batch in flight.
pub fn gpipe(placement: &PlacementSpec, n: usize) -> Result<Schedule> {
    baseline_schedule(placement, n, Discipline::GPipe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_core::ir::BlockKind;

    fn v_shape(d: usize, fwd: u64, bwd: u64, capacity: Option<i64>) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("v{d}"), d);
        b.set_memory_capacity(capacity);
        let mut prev: Option<usize> = None;
        for dev in 0..d {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("f{dev}"), BlockKind::Forward, [dev], fwd, 1, deps)
                    .unwrap(),
            );
        }
        for dev in (0..d).rev() {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("b{dev}"), BlockKind::Backward, [dev], bwd, -1, deps)
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn one_f_one_b_matches_the_textbook_makespan() {
        // D stages, N micro-batches, forward f, backward b: the 1F1B (and
        // GPipe) makespan is (N + D - 1) * (f + b) for balanced stages.
        for (d, n, f, b) in [(2usize, 4usize, 1u64, 2u64), (4, 8, 1, 2), (4, 6, 2, 4)] {
            let p = v_shape(d, f, b, Some(d as i64));
            let schedule = one_f_one_b(&p, n).unwrap();
            schedule.validate(&p).unwrap();
            assert_eq!(
                schedule.makespan(),
                (n as u64 + d as u64 - 1) * (f + b),
                "d={d} n={n}"
            );
        }
    }

    #[test]
    fn one_f_one_b_caps_in_flight_micro_batches() {
        let d = 4;
        let p = v_shape(d, 1, 2, Some(d as i64));
        let schedule = one_f_one_b(&p, 12).unwrap();
        // Peak memory equals the pipeline depth: exactly D in-flight
        // micro-batches on the first device.
        assert_eq!(schedule.peak_memory()[0], d as i64);
    }

    #[test]
    fn gpipe_keeps_all_micro_batches_in_flight() {
        let p = v_shape(2, 1, 2, None);
        let n = 6;
        let schedule = gpipe(&p, n).unwrap();
        schedule.validate(&p).unwrap();
        assert_eq!(schedule.peak_memory()[0], n as i64);
        // All forwards precede all backwards on every device.
        for d in 0..2 {
            let timeline = schedule.device_timeline(d);
            let first_backward = timeline
                .iter()
                .position(|b| b.kind == BlockKind::Backward)
                .unwrap();
            assert!(timeline[first_backward..]
                .iter()
                .all(|b| b.kind == BlockKind::Backward));
        }
    }

    #[test]
    fn gpipe_fails_under_tight_memory_like_the_paper_reports() {
        let p = v_shape(2, 1, 2, Some(2));
        let err = gpipe(&p, 8).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSchedule(_)));
        // 1F1B survives the same budget thanks to its in-flight cap.
        assert!(one_f_one_b(&p, 8).is_ok());
    }

    #[test]
    fn one_f_one_b_plus_handles_multi_device_blocks() {
        // An M-shape-like placement: an all-device embedding around a
        // two-stage pipeline.
        let mut b = PlacementSpec::builder("m2", 2);
        b.set_memory_capacity(Some(6));
        let e_f = b
            .add_block("embed-f", BlockKind::Forward, [0, 1], 1, 1, [])
            .unwrap();
        let f0 = b
            .add_block("f0", BlockKind::Forward, [0], 2, 1, [e_f])
            .unwrap();
        let f1 = b
            .add_block("f1", BlockKind::Forward, [1], 2, 1, [f0])
            .unwrap();
        let b1 = b
            .add_block("b1", BlockKind::Backward, [1], 4, -1, [f1])
            .unwrap();
        let b0 = b
            .add_block("b0", BlockKind::Backward, [0], 4, -1, [b1])
            .unwrap();
        b.add_block("embed-b", BlockKind::Backward, [0, 1], 2, -1, [b0])
            .unwrap();
        let p = b.build().unwrap();
        let schedule = one_f_one_b_plus(&p, 6).unwrap();
        schedule.validate(&p).unwrap();
        assert!(schedule.makespan() > 0);
        // It pipelines: better than fully sequential execution.
        assert!(schedule.makespan() < 6 * p.total_block_time());
    }

    #[test]
    fn one_f_one_b_plus_reduces_to_1f1b_on_v_shapes() {
        let p = v_shape(2, 1, 2, Some(3));
        let plus = one_f_one_b_plus(&p, 8).unwrap();
        plus.validate(&p).unwrap();
        let classic = one_f_one_b(&p, 8).unwrap();
        // Same placement and same steady-state pattern: the makespans agree
        // up to the warmup/cooldown boundary handling.
        let diff = plus.makespan().abs_diff(classic.makespan());
        assert!(
            diff <= p.total_block_time(),
            "plus {} vs classic {}",
            plus.makespan(),
            classic.makespan()
        );
    }

    #[test]
    fn deeper_pipelines_have_larger_bubble_at_few_micro_batches() {
        let shallow = v_shape(2, 1, 2, None);
        let deep = v_shape(8, 1, 2, None);
        let s = one_f_one_b(&shallow, 8).unwrap();
        let d = one_f_one_b(&deep, 8).unwrap();
        assert!(d.bubble_rate() > s.bubble_rate());
    }
}
