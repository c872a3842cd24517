//! Greedy list scheduling, used to seed the branch-and-bound with an upper
//! bound and as a fast fallback when the exact search hits its limits.

use crate::instance::Instance;
use crate::propagate::TimeWindows;
use crate::solution::Solution;
use crate::task::TaskId;

/// Priority rule used by [`greedy_schedule`] to pick the next ready task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GreedyPriority {
    /// Prefer the ready task with the longest chain of remaining successors
    /// (breaking ties by earliest possible start). Usually the best rule for
    /// makespan.
    #[default]
    LongestTail,
    /// Prefer the ready task that can start earliest (breaking ties by the
    /// longest tail).
    EarliestStart,
    /// Prefer memory-releasing tasks whenever any device is above half of its
    /// capacity, otherwise fall back to the longest-tail rule. Mirrors the
    /// intuition behind 1F1B: schedule a backward block as soon as memory
    /// pressure builds up.
    MemoryAware,
}

/// Builds a feasible schedule with a serial list-scheduling pass.
///
/// Returns `None` if the greedy pass dead-ends (which can only happen when a
/// memory capacity is set and every ready task would exceed it); the exact
/// solver may still find a feasible schedule in that case.
#[must_use]
pub fn greedy_schedule(instance: &Instance, priority: GreedyPriority) -> Option<Solution> {
    let windows = TimeWindows::compute(instance, instance.total_work());
    greedy_with_windows(instance, &windows, priority)
}

/// [`greedy_schedule`] over time windows the caller already computed for
/// `instance` (only their tails are read, so any horizon will do).
pub(crate) fn greedy_with_windows(
    instance: &Instance,
    windows: &TimeWindows,
    priority: GreedyPriority,
) -> Option<Solution> {
    let n = instance.num_tasks();
    let mut scheduled = vec![false; n];
    let mut starts = vec![0u64; n];
    let mut remaining_preds: Vec<usize> = (0..n)
        .map(|i| instance.predecessors(TaskId::from_index(i)).len())
        .collect();
    let mut device_finish = vec![0u64; instance.num_devices()];
    let mut device_mem: Vec<i64> = instance.initial_memory().to_vec();
    let capacity = instance.memory_capacity();

    for _ in 0..n {
        let mut best: Option<(TaskId, u64)> = None;
        for i in 0..n {
            if scheduled[i] || remaining_preds[i] != 0 {
                continue;
            }
            let id = TaskId::from_index(i);
            let task = instance.task(id);
            if let Some(cap) = capacity {
                let fits = task
                    .devices
                    .iter()
                    .all(|&d| device_mem[d] + task.memory <= cap);
                if !fits {
                    continue;
                }
            }
            let mut est = task.release;
            for &p in instance.predecessors(id) {
                est = est.max(starts[p] + instance.task(TaskId::from_index(p)).duration);
            }
            for &d in &task.devices {
                est = est.max(device_finish[d]);
            }
            let better = match best {
                None => true,
                Some((cur, cur_est)) => is_preferred(
                    instance,
                    windows,
                    priority,
                    &device_mem,
                    id,
                    est,
                    cur,
                    cur_est,
                ),
            };
            if better {
                best = Some((id, est));
            }
        }
        let (id, est) = best?;
        let task = instance.task(id);
        scheduled[id.index()] = true;
        starts[id.index()] = est;
        for &d in &task.devices {
            device_finish[d] = est + task.duration;
            device_mem[d] += task.memory;
        }
        for &s in instance.successors(id) {
            remaining_preds[s] -= 1;
        }
    }
    Some(Solution::new(starts, instance))
}

/// Returns `true` if `candidate` should be preferred over the current best.
#[allow(clippy::too_many_arguments)]
fn is_preferred(
    instance: &Instance,
    windows: &TimeWindows,
    priority: GreedyPriority,
    device_mem: &[i64],
    candidate: TaskId,
    candidate_est: u64,
    current: TaskId,
    current_est: u64,
) -> bool {
    let cand_tail = windows.tail(candidate) + instance.task(candidate).duration;
    let cur_tail = windows.tail(current) + instance.task(current).duration;
    match priority {
        GreedyPriority::LongestTail => {
            (std::cmp::Reverse(cand_tail), candidate_est)
                < (std::cmp::Reverse(cur_tail), current_est)
        }
        GreedyPriority::EarliestStart => {
            (candidate_est, std::cmp::Reverse(cand_tail))
                < (current_est, std::cmp::Reverse(cur_tail))
        }
        GreedyPriority::MemoryAware => {
            let pressured = instance
                .memory_capacity()
                .is_some_and(|cap| device_mem.iter().any(|&m| 2 * m > cap));
            if pressured {
                let cand_mem = instance.task(candidate).memory;
                let cur_mem = instance.task(current).memory;
                if cand_mem != cur_mem {
                    return cand_mem < cur_mem;
                }
            }
            (std::cmp::Reverse(cand_tail), candidate_est)
                < (std::cmp::Reverse(cur_tail), current_est)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn pipeline_2dev() -> Instance {
        let mut b = InstanceBuilder::new(2);
        let f0 = b.add_task("f0", 1, [0], 1).unwrap();
        let f1 = b.add_task("f1", 1, [1], 1).unwrap();
        let b1 = b.add_task("b1", 2, [1], -1).unwrap();
        let b0 = b.add_task("b0", 2, [0], -1).unwrap();
        b.add_precedence(f0, f1).unwrap();
        b.add_precedence(f1, b1).unwrap();
        b.add_precedence(b1, b0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn greedy_produces_valid_schedule() {
        let inst = pipeline_2dev();
        for priority in [
            GreedyPriority::LongestTail,
            GreedyPriority::EarliestStart,
            GreedyPriority::MemoryAware,
        ] {
            let sol = greedy_schedule(&inst, priority).expect("feasible");
            sol.validate(&inst).expect("valid");
            assert_eq!(sol.makespan(), 6, "chain is fully sequential");
        }
    }

    #[test]
    fn greedy_interleaves_independent_micro_batches() {
        // Two independent forward/backward chains on two devices; a good
        // greedy schedule overlaps them instead of running them back to back.
        let mut b = InstanceBuilder::new(2);
        let add_chain = |b: &mut InstanceBuilder, tag: &str| {
            let f0 = b.add_task(format!("f0{tag}"), 1, [0], 1).unwrap();
            let f1 = b.add_task(format!("f1{tag}"), 1, [1], 1).unwrap();
            let b1 = b.add_task(format!("b1{tag}"), 1, [1], -1).unwrap();
            let b0 = b.add_task(format!("b0{tag}"), 1, [0], -1).unwrap();
            b.add_precedence(f0, f1).unwrap();
            b.add_precedence(f1, b1).unwrap();
            b.add_precedence(b1, b0).unwrap();
        };
        add_chain(&mut b, "a");
        add_chain(&mut b, "b");
        let inst = b.build().unwrap();
        let sol = greedy_schedule(&inst, GreedyPriority::LongestTail).unwrap();
        sol.validate(&inst).unwrap();
        // Sequential execution would need 8 time units; overlapping the two
        // micro-batches brings it down.
        assert!(
            sol.makespan() < 8,
            "makespan {} not overlapped",
            sol.makespan()
        );
    }

    #[test]
    fn greedy_respects_memory_capacity() {
        let mut b = InstanceBuilder::new(1);
        b.set_memory_capacity(Some(1));
        let a0 = b.add_task("alloc0", 1, [0], 1).unwrap();
        let r0 = b.add_task("release0", 1, [0], -1).unwrap();
        let a1 = b.add_task("alloc1", 1, [0], 1).unwrap();
        let r1 = b.add_task("release1", 1, [0], -1).unwrap();
        b.add_precedence(a0, r0).unwrap();
        b.add_precedence(a1, r1).unwrap();
        let inst = b.build().unwrap();
        let sol = greedy_schedule(&inst, GreedyPriority::MemoryAware).expect("feasible");
        sol.validate(&inst).expect("memory constraint respected");
    }

    #[test]
    fn greedy_reports_dead_end_when_memory_blocks_everything() {
        let mut b = InstanceBuilder::new(1);
        b.set_memory_capacity(Some(1));
        b.set_initial_memory(vec![1]).unwrap();
        // Allocation must run before the release that would make room for it.
        let alloc = b.add_task("alloc", 1, [0], 1).unwrap();
        let release = b.add_task("release", 1, [0], -2).unwrap();
        b.add_precedence(alloc, release).unwrap();
        let inst = b.build().unwrap();
        assert!(greedy_schedule(&inst, GreedyPriority::LongestTail).is_none());
    }
}
