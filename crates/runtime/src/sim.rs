//! Deterministic cluster simulator.
//!
//! The simulator executes a [`Program`] on a [`ClusterSpec`], respecting the
//! per-device instruction order produced by runtime instantiation. Two
//! communication modes are supported, mirroring Fig. 7 of the paper:
//!
//! * **blocking** — a send/recv pair occupies the compute stream of both
//!   devices for the duration of the transfer (plus any rendezvous wait);
//! * **non-blocking** — transfers run on a dedicated channel per device pair
//!   and only the consuming compute block waits for them.
//!
//! The simulation runs in rounds: every round visits the devices in order and
//! lets each one execute at most the instruction its program counter is at.
//! Everything that does not change while the program runs — which transfer a
//! tag names, which transfers a compute block waits for, how many devices
//! share a block's flops, how long a transfer takes — is resolved once per
//! call, so a visit reads a few vector slots.

use crate::instantiate::CommMode;
use crate::metrics::ExecutionReport;
use crate::network::ClusterSpec;
use crate::program::{CommTag, Instr, Program};
use crate::Result;
use tessel_core::CoreError;

/// Simulates `program` on `cluster` and returns the execution report.
///
/// Every round visits the devices in index order and executes at most one
/// instruction per device; a compute block runs once every transfer it
/// consumes on its device has completed. In blocking mode a transfer starts
/// when both ends have reached it: the side that arrives second records it
/// (at the later of the two clocks) and moves on, and the other side then
/// completes it at the recorded time.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] if the program deadlocks (cannot
/// happen for programs produced by [`instantiate`](crate::instantiate()):
/// their sends and receives appear in one global order on every device).
pub fn simulate(
    program: &Program,
    cluster: &ClusterSpec,
    mode: CommMode,
) -> Result<ExecutionReport> {
    let steps = Steps::index(program, cluster);
    let num_devices = program.devices.len();
    let mut pc = vec![0usize; num_devices];
    let mut clock = vec![0u64; num_devices];
    let mut busy = vec![0u64; num_devices];
    let mut comm = vec![0u64; num_devices];
    let mut memory = vec![0i64; num_devices];
    let mut peak_memory = vec![0i64; num_devices];
    let mut total_flops = 0.0f64;
    // Completion time of each transfer, by transfer id.
    let mut transfer_done: Vec<Option<u64>> = vec![None; steps.transfers];
    // Non-blocking: next free time of each directed channel, `from * n + to`.
    let mut channel_free = vec![0u64; num_devices * num_devices];

    let total_instrs: usize = steps.by_device.iter().map(Vec::len).sum();
    let mut executed = 0usize;

    while executed < total_instrs {
        let mut progressed = false;
        for device in 0..num_devices {
            let Some(&step) = steps.by_device[device].get(pc[device]) else {
                continue;
            };
            let parked_at = |peer: usize| steps.by_device[peer].get(pc[peer]).copied();
            let done = match step {
                Step::Compute {
                    feeds,
                    duration,
                    flops,
                    memory: mem_delta,
                } => {
                    // Wait for every tensor this block consumes. In
                    // non-blocking mode the receives do not occupy the
                    // compute stream, so the dependency is expressed here.
                    let mut ready_at = Some(clock[device]);
                    for &transfer in &steps.feeds[feeds.0..feeds.1] {
                        ready_at = ready_at.zip(transfer_done[transfer]).map(|(r, d)| r.max(d));
                    }
                    if let Some(start) = ready_at {
                        clock[device] = start + duration;
                        busy[device] += duration;
                        total_flops += flops;
                        memory[device] += mem_delta;
                        peak_memory[device] = peak_memory[device].max(memory[device]);
                    }
                    ready_at.is_some()
                }
                Step::Recv {
                    from,
                    transfer,
                    duration,
                    empty,
                } => match (mode, transfer_done[transfer]) {
                    // The matching send schedules the transfer; the recv
                    // itself costs nothing on the compute stream.
                    (CommMode::NonBlocking, done) => done.is_some() || empty,
                    // The sender recorded the rendezvous when it found this
                    // device waiting here.
                    (CommMode::Blocking, Some(done)) => {
                        clock[device] = clock[device].max(done);
                        comm[device] += duration;
                        true
                    }
                    // Rendezvous from the receiver side: the sender must be
                    // parked at the matching send.
                    (CommMode::Blocking, None) => {
                        let sender_parked = matches!(
                            parked_at(from),
                            Some(Step::Send { transfer: Some(t), .. }) if t == transfer
                        );
                        if sender_parked {
                            let start = clock[device].max(clock[from]);
                            transfer_done[transfer] = Some(start + duration);
                            clock[device] = start + duration;
                            comm[device] += duration;
                        }
                        sender_parked
                    }
                },
                Step::Send {
                    to,
                    transfer,
                    duration,
                } => match mode {
                    CommMode::NonBlocking => {
                        let channel = &mut channel_free[device * num_devices + to];
                        let start = clock[device].max(*channel);
                        *channel = start + duration;
                        if let Some(transfer) = transfer {
                            transfer_done[transfer] = Some(start + duration);
                        }
                        true
                    }
                    CommMode::Blocking => match transfer.map(|t| (t, transfer_done[t])) {
                        // The receiver recorded the rendezvous.
                        Some((_, Some(done))) => {
                            clock[device] = clock[device].max(done);
                            comm[device] += duration;
                            true
                        }
                        // Rendezvous from the sender side: record the
                        // transfer if the receiver is parked at the matching
                        // recv; it completes it on its next visit.
                        Some((transfer, None))
                            if matches!(
                                parked_at(to),
                                Some(Step::Recv { transfer: t, .. }) if t == transfer
                            ) =>
                        {
                            let start = clock[device].max(clock[to]);
                            transfer_done[transfer] = Some(start + duration);
                            clock[device] = start + duration;
                            comm[device] += duration;
                            true
                        }
                        _ => false,
                    },
                },
            };
            if done {
                pc[device] += 1;
                executed += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Err(CoreError::InvalidSchedule(format!(
                "simulation deadlocked after {executed} of {total_instrs} instructions"
            )));
        }
    }

    Ok(ExecutionReport {
        makespan: clock.iter().copied().max().unwrap_or(0),
        device_busy: busy,
        device_comm: comm,
        peak_memory,
        total_flops,
        num_micro_batches: program.num_micro_batches,
    })
}

/// One instruction with what the round loop needs of it resolved.
#[derive(Debug, Clone, Copy)]
enum Step {
    Compute {
        /// Range of [`Steps::feeds`]: the transfers the block waits for.
        feeds: (usize, usize),
        duration: u64,
        /// The block's flops divided by the number of devices running it, so
        /// a multi-device block is counted once over all its copies.
        flops: f64,
        memory: i64,
    },
    Send {
        to: usize,
        /// `None` if no device receives the tag: nothing waits for it.
        transfer: Option<usize>,
        duration: u64,
    },
    Recv {
        from: usize,
        transfer: usize,
        duration: u64,
        /// Zero bytes: in non-blocking mode the receive does not wait.
        empty: bool,
    },
}

/// A program indexed for [`simulate`].
struct Steps {
    /// Per device, its instructions in program order.
    by_device: Vec<Vec<Step>>,
    /// Transfer ids of every compute block's feeds, one range per block.
    feeds: Vec<usize>,
    /// Number of transfer ids.
    transfers: usize,
}

impl Steps {
    /// Resolves every instruction of `program` with counting sorts over
    /// `(consumer stage, micro-batch)` keys — the small integers of the tags
    /// — and no hashing.
    ///
    /// A transfer id is a slot among the receives bucketed by key: the first
    /// receive of the bucket whose tag has the same producer stage, so the
    /// send and the receive of one tag name one id. A compute block of
    /// `(stage, micro_batch)` on device `d` waits for the receives on `d` of
    /// bucket `(stage, micro_batch)`.
    fn index(program: &Program, cluster: &ClusterSpec) -> Self {
        // Key space: every stage and micro-batch a compute or a tag's
        // consumer names.
        let (mut stages, mut micro_batches) = (0, 0);
        for instr in program.devices.iter().flat_map(|d| &d.instrs) {
            let (stage, micro_batch) = match instr {
                Instr::Compute {
                    stage, micro_batch, ..
                } => (*stage, *micro_batch),
                Instr::Send { tag, .. } | Instr::Recv { tag, .. } => {
                    (tag.consumer_stage, tag.micro_batch)
                }
            };
            stages = stages.max(stage + 1);
            micro_batches = micro_batches.max(micro_batch + 1);
        }
        let key = |stage: usize, micro_batch: usize| stage * micro_batches + micro_batch;
        let keys = stages * micro_batches;

        // Receives bucketed by `(consumer stage, micro-batch)`, in program
        // order within a bucket: `(device, producer stage)` per slot.
        let mut bucket_start = vec![0usize; keys + 1];
        // Devices running each `(stage, micro-batch)`; `last_device` counts
        // a device once however many copies of the block it runs.
        let mut running = vec![0usize; keys];
        let mut last_device = vec![usize::MAX; keys];
        for (device, program) in program.devices.iter().enumerate() {
            for instr in &program.instrs {
                match instr {
                    Instr::Recv { tag, .. } => {
                        bucket_start[key(tag.consumer_stage, tag.micro_batch) + 1] += 1;
                    }
                    Instr::Compute {
                        stage, micro_batch, ..
                    } => {
                        let k = key(*stage, *micro_batch);
                        if last_device[k] != device {
                            last_device[k] = device;
                            running[k] += 1;
                        }
                    }
                    Instr::Send { .. } => {}
                }
            }
        }
        for k in 0..keys {
            bucket_start[k + 1] += bucket_start[k];
        }
        let mut slots = vec![(0usize, 0usize); bucket_start[keys]];
        let mut filled = bucket_start.clone();
        for (device, program) in program.devices.iter().enumerate() {
            for instr in &program.instrs {
                if let Instr::Recv { tag, .. } = instr {
                    let k = key(tag.consumer_stage, tag.micro_batch);
                    slots[filled[k]] = (device, tag.producer_stage);
                    filled[k] += 1;
                }
            }
        }
        let bucket = |k: usize| bucket_start[k]..bucket_start[k + 1];
        let transfer_in =
            |k: usize, producer_stage: usize| bucket(k).find(|&s| slots[s].1 == producer_stage);
        let transfer_of = |tag: &CommTag| {
            transfer_in(key(tag.consumer_stage, tag.micro_batch), tag.producer_stage)
        };

        let mut feeds = Vec::new();
        let by_device = program
            .devices
            .iter()
            .enumerate()
            .map(|(device, program)| {
                program
                    .instrs
                    .iter()
                    .map(|instr| match *instr {
                        Instr::Compute {
                            stage,
                            micro_batch,
                            duration,
                            flops,
                            memory,
                        } => {
                            let k = key(stage, micro_batch);
                            let first = feeds.len();
                            for (receiver, producer_stage) in &slots[bucket(k)] {
                                if *receiver == device {
                                    feeds.extend(transfer_in(k, *producer_stage));
                                }
                            }
                            Step::Compute {
                                feeds: (first, feeds.len()),
                                duration,
                                flops: flops / running[k] as f64,
                                memory,
                            }
                        }
                        Instr::Send { to, bytes, ref tag } => Step::Send {
                            to,
                            transfer: transfer_of(tag),
                            duration: cluster.transfer_time_units(device, to, bytes),
                        },
                        Instr::Recv {
                            from,
                            bytes,
                            ref tag,
                        } => Step::Recv {
                            from,
                            transfer: transfer_of(tag).expect("a receive names its own slot"),
                            duration: cluster.transfer_time_units(from, device, bytes),
                            empty: bytes == 0,
                        },
                    })
                    .collect()
            })
            .collect();
        Steps {
            by_device,
            feeds,
            transfers: slots.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::instantiate;
    use tessel_core::ir::{BlockKind, BlockSpec, PlacementSpec};
    use tessel_core::schedule::{scheduled_block, Schedule};

    fn pipeline(bytes: u64) -> (PlacementSpec, Schedule) {
        let mut b = PlacementSpec::builder("two", 2);
        b.push_block(BlockSpec::new("f0", BlockKind::Forward, [0], 2, 1).with_output_bytes(bytes))
            .unwrap();
        b.push_block(
            BlockSpec::new("f1", BlockKind::Forward, [1], 2, 1)
                .with_deps([0])
                .with_output_bytes(bytes),
        )
        .unwrap();
        b.push_block(
            BlockSpec::new("b1", BlockKind::Backward, [1], 4, -1)
                .with_deps([1])
                .with_output_bytes(bytes),
        )
        .unwrap();
        b.push_block(
            BlockSpec::new("b0", BlockKind::Backward, [0], 4, -1)
                .with_deps([2])
                .with_output_bytes(bytes),
        )
        .unwrap();
        let p = b.build().unwrap();
        let s = Schedule::new(
            2,
            1,
            vec![
                scheduled_block(&p, 0, 0, 0),
                scheduled_block(&p, 1, 0, 2),
                scheduled_block(&p, 2, 0, 4),
                scheduled_block(&p, 3, 0, 8),
            ],
        );
        (p, s)
    }

    #[test]
    fn simulation_without_communication_matches_the_schedule() {
        let (p, s) = pipeline(0);
        let cluster = ClusterSpec::v100_cluster(2);
        for mode in [CommMode::Blocking, CommMode::NonBlocking] {
            let program = instantiate(&p, &s, mode).unwrap();
            let report = simulate(&program, &cluster, mode).unwrap();
            assert_eq!(report.makespan, s.makespan());
            assert_eq!(report.device_busy, vec![6, 6]);
            assert_eq!(report.peak_memory, vec![1, 1]);
        }
    }

    #[test]
    fn blocking_communication_is_never_faster_than_non_blocking() {
        let (p, s) = pipeline(512 * 1024 * 1024);
        let cluster = ClusterSpec::v100_cluster(2);
        let program = instantiate(&p, &s, CommMode::Blocking).unwrap();
        let blocking = simulate(&program, &cluster, CommMode::Blocking).unwrap();
        let nonblocking = simulate(&program, &cluster, CommMode::NonBlocking).unwrap();
        assert!(blocking.makespan >= nonblocking.makespan);
        // Blocking mode charges transfer time to the compute streams.
        assert!(blocking.device_comm.iter().sum::<u64>() > 0);
    }

    #[test]
    fn communication_extends_the_critical_path() {
        let (p, s) = pipeline(1 << 30);
        let cluster = ClusterSpec::v100_cluster(2);
        let program = instantiate(&p, &s, CommMode::NonBlocking).unwrap();
        let report = simulate(&program, &cluster, CommMode::NonBlocking).unwrap();
        assert!(report.makespan > s.makespan());
    }

    #[test]
    fn flops_are_counted_once_per_block() {
        let mut b = PlacementSpec::builder("tp", 2);
        b.push_block(BlockSpec::new("tp-block", BlockKind::Forward, [0, 1], 2, 0).with_flops(10.0))
            .unwrap();
        let p = b.build().unwrap();
        let s = Schedule::new(2, 1, vec![scheduled_block(&p, 0, 0, 0)]);
        let cluster = ClusterSpec::v100_cluster(2);
        let program = instantiate(&p, &s, CommMode::NonBlocking).unwrap();
        let report = simulate(&program, &cluster, CommMode::NonBlocking).unwrap();
        assert!((report.total_flops - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multi_micro_batch_pipelines_overlap_in_the_simulator() {
        // Build a 4-micro-batch 1F1B-like schedule and check the simulated
        // iteration time is far below sequential execution.
        let (p, _) = pipeline(1024);
        let schedule = tessel_baselines_like_schedule(&p, 4);
        let cluster = ClusterSpec::v100_cluster(2);
        let program = instantiate(&p, &schedule, CommMode::NonBlocking).unwrap();
        let report = simulate(&program, &cluster, CommMode::NonBlocking).unwrap();
        assert!(report.makespan < 4 * p.total_block_time());
        assert!(report.peak_memory[0] <= 2);
    }

    /// A minimal hand-rolled 1F1B schedule for the 2-stage pipeline.
    fn tessel_baselines_like_schedule(p: &PlacementSpec, n: usize) -> Schedule {
        let mut blocks = Vec::new();
        // Classic 2-stage 1F1B: period 6 per micro-batch in steady state.
        for mb in 0..n {
            let base = mb as u64 * 6;
            blocks.push(scheduled_block(p, 0, mb, base));
            blocks.push(scheduled_block(p, 1, mb, base + 2));
            blocks.push(scheduled_block(p, 2, mb, base + 4));
            blocks.push(scheduled_block(p, 3, mb, base + 8));
        }
        Schedule::new(2, n, blocks)
    }
}
