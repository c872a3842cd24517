//! Makespan lower bounds used for pruning and for Tessel's early exit.
//!
//! Algorithm 1 of the paper terminates the repetend enumeration as soon as a
//! repetend matching `GetLowerBound(OPS)` is found; that bound is the maximum
//! per-device work of a single micro-batch, which is exactly
//! [`device_load_lower_bound`] here.
//!
//! [`jackson_preemptive_bound`] is the stronger one-machine relaxation. It is
//! a *root* bound: the solver uses it to refuse bounded solves that cannot
//! succeed, and `tessel-core` uses the same routine to screen repetend
//! candidates before building their instances. The per-node bound of the
//! branch-and-bound stays [`makespan_lower_bound`].

use crate::instance::Instance;
use crate::propagate::TimeWindows;

/// Lower bound from per-device load: a device cannot finish before it has run
/// all of its own work, so `max_d sum(duration of tasks on d)` bounds the
/// makespan from below.
#[must_use]
pub fn device_load_lower_bound(instance: &Instance) -> u64 {
    (0..instance.num_devices())
        .map(|d| instance.device_load(d))
        .max()
        .unwrap_or(0)
}

/// Lower bound from the precedence critical path (longest chain of dependent
/// durations, taking release dates into account).
#[must_use]
pub fn critical_path_lower_bound(instance: &Instance) -> u64 {
    TimeWindows::compute(instance, instance.total_work()).critical_path(instance)
}

/// The strongest cheap lower bound available: the maximum of the device-load
/// and critical-path bounds.
#[must_use]
pub fn makespan_lower_bound(instance: &Instance) -> u64 {
    device_load_lower_bound(instance).max(critical_path_lower_bound(instance))
}

/// Jackson's preemptive bound for one machine.
///
/// Each job is a `(head, duration, tail)` triple: it cannot start before
/// `head`, occupies the machine for `duration`, and at least `tail` more time
/// passes between its completion and the end of the schedule. Running, at
/// every instant, the released job with the longest tail (preempting whenever
/// a longer-tailed job is released) minimises `max(completion + tail)` over
/// all preemptive schedules, and every non-preemptive schedule is a
/// preemptive one, so the result bounds the makespan of anything that
/// contains these jobs on one device. It dominates both the machine's load
/// and every single job's `head + duration + tail`.
///
/// `jobs` is scratch: it is reordered and its durations are consumed, so a
/// caller that keeps the buffer pays no allocation per call.
#[must_use]
pub fn jackson_preemptive_bound(jobs: &mut [(u64, u64, u64)]) -> u64 {
    jobs.sort_unstable_by_key(|&(head, _, _)| head);
    // Covers zero-length jobs, which never occupy the machine below.
    let mut bound = jobs.iter().map(|&(h, p, q)| h + p + q).max().unwrap_or(0);
    let mut now = 0u64;
    let mut released = 0usize;
    loop {
        while released < jobs.len() && jobs[released].0 <= now {
            released += 1;
        }
        let next_release = jobs.get(released).map(|job| job.0);
        let longest_tail = jobs[..released]
            .iter_mut()
            .filter(|job| job.1 > 0)
            .max_by_key(|job| job.2);
        match longest_tail {
            Some(job) => {
                let run = job.1.min(next_release.map_or(u64::MAX, |at| at - now));
                job.1 -= run;
                now += run;
                if job.1 == 0 {
                    bound = bound.max(now + job.2);
                }
            }
            None => match next_release {
                Some(at) => now = at,
                None => return bound,
            },
        }
    }
}

/// The per-device one-machine bound: [`jackson_preemptive_bound`] on every
/// device over the tasks that occupy it (a multi-device task counts on each
/// of its devices), with heads and tails taken from `windows`.
pub(crate) fn one_machine_bound(instance: &Instance, windows: &TimeWindows) -> u64 {
    let mut jobs = Vec::with_capacity(instance.num_tasks());
    (0..instance.num_devices())
        .map(|device| {
            jobs.clear();
            jobs.extend(
                instance
                    .task_ids()
                    .filter(|&id| instance.task(id).uses_device(device))
                    .map(|id| {
                        let duration = instance.task(id).duration;
                        (windows.earliest_start(id), duration, windows.tail(id))
                    }),
            );
            jackson_preemptive_bound(&mut jobs)
        })
        .max()
        .unwrap_or(0)
}

/// Lower bound from the one-machine relaxation of every device (see
/// [`jackson_preemptive_bound`]). At least [`makespan_lower_bound`]; the
/// solver proves `minimize_below` and `satisfy` calls infeasible with it
/// before any search state is built.
#[must_use]
pub fn one_machine_lower_bound(instance: &Instance) -> u64 {
    one_machine_bound(
        instance,
        &TimeWindows::compute(instance, instance.total_work()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::search::{Solver, SolverConfig};
    use crate::solution::Solution;
    use crate::stats::StatsSink;

    #[test]
    fn device_load_bound_takes_busiest_device() {
        let mut b = InstanceBuilder::new(2);
        b.add_task("a", 4, [0], 0).unwrap();
        b.add_task("b", 1, [1], 0).unwrap();
        b.add_task("c", 2, [1], 0).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(device_load_lower_bound(&inst), 4);
    }

    #[test]
    fn critical_path_bound_follows_chains() {
        let mut b = InstanceBuilder::new(3);
        let a = b.add_task("a", 2, [0], 0).unwrap();
        let c = b.add_task("c", 2, [1], 0).unwrap();
        let d = b.add_task("d", 2, [2], 0).unwrap();
        b.add_precedence(a, c).unwrap();
        b.add_precedence(c, d).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(critical_path_lower_bound(&inst), 6);
        // Each device only has 2 units of work, so the chain dominates.
        assert_eq!(makespan_lower_bound(&inst), 6);
    }

    #[test]
    fn combined_bound_is_max_of_both() {
        let mut b = InstanceBuilder::new(2);
        // Device 0 is heavily loaded with independent work; the chain is short.
        let a = b.add_task("a", 5, [0], 0).unwrap();
        b.add_task("a2", 5, [0], 0).unwrap();
        let c = b.add_task("c", 1, [1], 0).unwrap();
        b.add_precedence(a, c).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(device_load_lower_bound(&inst), 10);
        assert_eq!(critical_path_lower_bound(&inst), 6);
        assert_eq!(makespan_lower_bound(&inst), 10);
    }

    #[test]
    fn multi_device_tasks_count_on_every_device() {
        let mut b = InstanceBuilder::new(2);
        b.add_task("tp", 3, [0, 1], 0).unwrap();
        b.add_task("solo", 2, [1], 0).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(device_load_lower_bound(&inst), 5);
    }

    #[test]
    fn jackson_bound_without_heads_or_tails_is_the_load() {
        assert_eq!(jackson_preemptive_bound(&mut []), 0);
        assert_eq!(
            jackson_preemptive_bound(&mut [(0, 3, 0), (0, 2, 0), (0, 4, 0)]),
            9
        );
    }

    #[test]
    fn jackson_bound_counts_idle_time_before_late_releases() {
        // The machine idles over [2, 5) and then has 5 units left: 10, where
        // the load says 7 and the longest single job 5 + 3.
        let mut jobs = [(5, 3, 0), (0, 2, 0), (5, 2, 0)];
        assert_eq!(jackson_preemptive_bound(&mut jobs), 10);
    }

    #[test]
    fn jackson_bound_preempts_when_a_longer_tail_is_released() {
        // a runs [0, 2), b is released with the longer tail and preempts it
        // over [2, 4) (chain ends at 9), a resumes [4, 6) and its tail ends
        // at 10. The load is 6, the longest single job 2 + 2 + 5 = 9, and
        // the two non-preemptive orders end at 11 and 12.
        let mut jobs = [(0, 4, 4), (2, 2, 5)];
        assert_eq!(jackson_preemptive_bound(&mut jobs), 10);
    }

    #[test]
    fn jackson_bound_covers_zero_length_jobs() {
        assert_eq!(jackson_preemptive_bound(&mut [(4, 0, 3), (0, 2, 0)]), 7);
    }

    /// `pre -> tp -> after` and `solo -> post`, with the tensor-parallel `tp`
    /// on devices 0 and 1: the optimum is 11, the critical path 10, the
    /// busiest device's load 9.
    fn tensor_parallel_instance() -> Instance {
        let mut b = InstanceBuilder::new(3);
        let pre = b.add_task("pre", 3, [0], 0).unwrap();
        let tp = b.add_task("tp", 5, [0, 1], 0).unwrap();
        let after = b.add_task("after", 2, [2], 0).unwrap();
        let solo = b.add_task("solo", 4, [1], 0).unwrap();
        let post = b.add_task("post", 3, [2], 0).unwrap();
        b.add_precedence(pre, tp).unwrap();
        b.add_precedence(tp, after).unwrap();
        b.add_precedence(solo, post).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn one_machine_bound_counts_multi_device_tasks_on_every_device() {
        let inst = tensor_parallel_instance();
        assert_eq!(device_load_lower_bound(&inst), 9);
        assert_eq!(critical_path_lower_bound(&inst), 10);
        // Device 1 decides: solo (tail 3) runs [0, 4), tp (head 3, tail 2)
        // runs [4, 9) and its chain ends at 11. Counted on device 0 alone,
        // tp would leave device 1 with solo only and the bound at 10.
        assert_eq!(one_machine_lower_bound(&inst), 11);
    }

    #[test]
    fn bounded_solves_at_the_root_bound_expand_no_nodes() {
        // Optimum 11 = the one-machine bound; the cheap bound stops at 10, so
        // the cut at 11 is the one-machine bound's alone.
        let inst = tensor_parallel_instance();
        assert_eq!(makespan_lower_bound(&inst), 10);
        let sink = StatsSink::new();
        let solver = Solver::new(SolverConfig::exhaustive().with_stats_sink(sink.clone()));
        for upper in [1, 10, 11] {
            let outcome = solver.minimize_below(&inst, upper).unwrap();
            assert!(outcome.is_infeasible(), "upper {upper}");
            assert_eq!(outcome.stats().nodes, 0, "upper {upper}");
            assert!(outcome.stats().complete, "upper {upper}");
        }
        let outcome = solver.satisfy(&inst, 10).unwrap();
        assert!(outcome.is_infeasible() && outcome.stats().nodes == 0 && outcome.stats().complete);
        // Cut solves still report in.
        assert_eq!(sink.totals().solves, 4);
        // One above the bound the search runs and finds the optimum.
        let outcome = solver.minimize_below(&inst, 12).unwrap();
        assert!(outcome.is_optimal());
        assert_eq!(outcome.solution().map(Solution::makespan), Some(11));
        let outcome = solver.satisfy(&inst, 11).unwrap();
        assert_eq!(outcome.solution().map(Solution::makespan), Some(11));
    }

    #[test]
    fn one_machine_bound_and_root_cut_agree_with_the_proved_optimum() {
        let solver = Solver::new(SolverConfig::exhaustive().with_threads(1));
        for seed in 0..200u64 {
            let inst = random_instance(seed);
            let cheap = makespan_lower_bound(&inst);
            let root = one_machine_lower_bound(&inst);
            assert!(cheap <= root, "seed {seed}: {cheap} > {root}");
            let unbounded = solver.minimize(&inst).unwrap();
            let Some(optimum) = unbounded.solution().map(Solution::makespan) else {
                continue;
            };
            assert!(unbounded.is_optimal(), "seed {seed}");
            assert!(root <= optimum, "seed {seed}: {root} > optimum {optimum}");
            let at = solver.minimize_below(&inst, optimum).unwrap();
            assert!(at.is_infeasible(), "seed {seed}: below {optimum}");
            let above = solver.minimize_below(&inst, optimum + 1).unwrap();
            assert!(above.is_optimal(), "seed {seed}");
            assert_eq!(
                above.solution().map(Solution::makespan),
                Some(optimum),
                "seed {seed}"
            );
        }
    }

    /// A seeded random instance: 2-3 devices, 4-9 tasks with durations 0-4,
    /// occasional release dates and two-device tasks, random forward edges,
    /// and sometimes a memory capacity.
    fn random_instance(seed: u64) -> Instance {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
        let mut below = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) % n
        };
        let devices = 2 + below(2) as usize;
        let mut b = InstanceBuilder::new(devices);
        if below(3) == 0 {
            b.set_memory_capacity(Some(2 + below(3) as i64));
        }
        let tasks = 4 + below(6) as usize;
        let mut ids = Vec::with_capacity(tasks);
        for i in 0..tasks {
            let mut devs = vec![below(devices as u64) as usize];
            if below(4) == 0 {
                devs.push((devs[0] + 1) % devices);
            }
            let memory = below(3) as i64 - 1;
            let mut task = crate::task::Task::new(format!("t{i}"), below(5), devs, memory);
            if below(5) == 0 {
                task = task.with_release(below(6));
            }
            let id = b.push_task(task).unwrap();
            for &earlier in &ids {
                if below(4) == 0 {
                    b.add_precedence(earlier, id).unwrap();
                }
            }
            ids.push(id);
        }
        // A capacity no task order satisfies is a builder error on some
        // seeds; drop the capacity there rather than the seed.
        b.clone().build().unwrap_or_else(|_| {
            b.set_memory_capacity(None);
            b.build().unwrap()
        })
    }
}
