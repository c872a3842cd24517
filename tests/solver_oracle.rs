//! Three solvers, one answer.
//!
//! `Solver` claims to *prove* optima. Two implementations that share none of
//! its search code hold it to that on a battery of small random instances:
//!
//! * a **brute force** over every combination of per-device task orders —
//!   with the orders fixed, start times are a longest path and the memory
//!   profile of a device is a prefix sum, so the optimum is the best
//!   combination that is acyclic and fits (the formulation of the crate docs
//!   of `tessel_solver`, enumerated rather than searched);
//! * the **seed engine** (`tessel_bench::legacy_solver`): the original
//!   allocation-heavy branch-and-bound with its own bound pass and a
//!   `HashMap` memo, otherwise used only as a timing baseline.
//!
//! Every instance is solved by `Solver::minimize` at 1, 2, 4 and 8 threads
//! (half of the battery with the serial warm-start probe off, so the tiny
//! instances really run through the worker pool), and the proved optimum is
//! then squeezed from both sides with `minimize_below`. The seed is pinned;
//! `TESSEL_FUZZ_SEED` (decimal or 0x-hex) overrides it and every failure
//! message carries it.

use tessel::solver::{Instance, InstanceBuilder, Solver, SolverConfig, Task, TaskId};
use tessel_bench::legacy_solver::legacy_minimize;

const INSTANCES: usize = 2_000;
/// Instances with more order combinations than this are redrawn: the brute
/// force has to stay cheap enough for a debug build.
const MAX_COMBINATIONS: u64 = 3_000;

struct Rng(u64);

impl Rng {
    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 4–9 tasks on 1–3 devices: durations 0–4, one task in five on two devices,
/// one in four with a release date, memory deltas in −1..=2 under a cap half
/// of the time, and a random precedence DAG. `None` when the draw cannot be
/// built (a task that never fits) or is too large to enumerate.
fn draw(rng: &mut Rng) -> Option<Instance> {
    let devices = 1 + rng.below(3) as usize;
    let tasks = 4 + rng.below(6) as usize;
    let mut builder = InstanceBuilder::new(devices);
    if rng.below(2) == 0 {
        builder.set_memory_capacity(Some(1 + rng.below(3) as i64));
    }
    for t in 0..tasks {
        let first = rng.below(devices as u64) as usize;
        let second = rng.below(devices as u64) as usize;
        let on = if rng.below(5) == 0 && second != first {
            vec![first, second]
        } else {
            vec![first]
        };
        let memory = rng.below(4) as i64 - 1;
        let mut task = Task::new(format!("t{t}"), rng.below(5), on, memory);
        if rng.below(4) == 0 {
            task = task.with_release(rng.below(8));
        }
        builder.push_task(task).expect("devices are in range");
    }
    for succ in 1..tasks {
        for pred in 0..succ {
            if rng.below(4) == 0 {
                builder
                    .add_precedence(TaskId::from_index(pred), TaskId::from_index(succ))
                    .expect("ids are in range");
            }
        }
    }
    let instance = builder.build().ok()?;
    let combinations: u64 = (0..devices)
        .map(|d| {
            let on_device = instance.tasks().iter().filter(|t| t.uses_device(d)).count();
            (1..=on_device as u64).product::<u64>()
        })
        .product();
    (combinations <= MAX_COMBINATIONS).then_some(instance)
}

/// The makespan of the schedule that runs the tasks of every device in the
/// given order, each as early as possible — `None` if the orders contradict
/// the precedences (or each other, through a two-device task) or overflow a
/// device's memory.
fn evaluate(instance: &Instance, orders: &[Vec<usize>]) -> Option<u64> {
    let n = instance.num_tasks();
    if let Some(cap) = instance.memory_capacity() {
        for (device, order) in orders.iter().enumerate() {
            let mut resident = instance.initial_memory()[device];
            for &t in order {
                resident += instance.task(TaskId::from_index(t)).memory;
                if resident > cap {
                    return None;
                }
            }
        }
    }
    let mut before: Vec<Vec<usize>> = (0..n)
        .map(|t| instance.predecessors(TaskId::from_index(t)).to_vec())
        .collect();
    for order in orders {
        for pair in order.windows(2) {
            before[pair[1]].push(pair[0]);
        }
    }
    // Longest path by repeated sweeps; a sweep that places nothing while
    // tasks remain means the orders form a cycle.
    let mut finish: Vec<Option<u64>> = vec![None; n];
    let mut placed = 0;
    while placed < n {
        let mut progressed = false;
        for t in 0..n {
            if finish[t].is_some() {
                continue;
            }
            let task = instance.task(TaskId::from_index(t));
            let Some(ready) = before[t]
                .iter()
                .try_fold(task.release, |at, &p| Some(at.max(finish[p]?)))
            else {
                continue;
            };
            finish[t] = Some(ready + task.duration);
            placed += 1;
            progressed = true;
        }
        if !progressed {
            return None;
        }
    }
    finish.into_iter().flatten().max()
}

/// Minimum of [`evaluate`] over every combination of per-device orders.
fn brute_force(instance: &Instance) -> Option<u64> {
    fn permute(
        instance: &Instance,
        orders: &mut Vec<Vec<usize>>,
        device: usize,
        at: usize,
        best: &mut Option<u64>,
    ) {
        if device == orders.len() {
            if let Some(makespan) = evaluate(instance, orders) {
                *best = Some(best.map_or(makespan, |b| b.min(makespan)));
            }
        } else if at == orders[device].len() {
            permute(instance, orders, device + 1, 0, best);
        } else {
            for pick in at..orders[device].len() {
                orders[device].swap(at, pick);
                permute(instance, orders, device, at + 1, best);
                orders[device].swap(at, pick);
            }
        }
    }
    let mut orders: Vec<Vec<usize>> = (0..instance.num_devices())
        .map(|d| {
            (0..instance.num_tasks())
                .filter(|&t| instance.task(TaskId::from_index(t)).uses_device(d))
                .collect()
        })
        .collect();
    let mut best = None;
    permute(instance, &mut orders, 0, 0, &mut best);
    best
}

#[test]
fn solver_legacy_engine_and_brute_force_agree_on_random_instances() {
    let seed = std::env::var("TESSEL_FUZZ_SEED")
        .ok()
        .and_then(|raw| {
            let raw = raw.trim();
            match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            }
        })
        .unwrap_or(0x0b5e_55ed);
    let mut rng = Rng(seed);
    let (mut feasible, mut nodes) = (0, 0);
    for case in 0..INSTANCES {
        let instance = loop {
            if let Some(instance) = draw(&mut rng) {
                break instance;
            }
        };
        let context = format!("TESSEL_FUZZ_SEED={seed:#x} instance {case}: {instance:?}");
        let expected = brute_force(&instance);

        let legacy = legacy_minimize(&instance, u64::MAX, None, 1 << 20);
        assert!(legacy.complete, "{context}");
        assert_eq!(legacy.makespan, expected, "legacy engine; {context}");

        for threads in [1, 2, 4, 8] {
            let mut config = SolverConfig::exhaustive().with_threads(threads);
            if case % 2 == 0 {
                config = config.with_serial_warmstart(0);
            }
            let solver = Solver::new(config);
            let outcome = solver.minimize(&instance).expect("solve");
            assert!(outcome.stats().complete, "{threads} threads; {context}");
            nodes += outcome.stats().nodes;
            let proved = outcome.solution().map(|solution| {
                solution
                    .validate(&instance)
                    .unwrap_or_else(|e| panic!("{threads} threads: {e}; {context}"));
                solution.makespan()
            });
            assert_eq!(proved, expected, "{threads} threads; {context}");
            assert_eq!(outcome.is_infeasible(), expected.is_none(), "{context}");

            let Some(optimum) = expected else { continue };
            let below = solver.minimize_below(&instance, optimum).expect("solve");
            assert!(below.is_infeasible(), "{threads} threads, below; {context}");
            let at = solver
                .minimize_below(&instance, optimum + 1)
                .expect("solve");
            assert_eq!(
                at.solution().map(|s| s.makespan()),
                Some(optimum),
                "{threads} threads, below optimum + 1; {context}"
            );
            nodes += below.stats().nodes + at.stats().nodes;
        }
        feasible += usize::from(expected.is_some());
    }
    // The battery must not degenerate into instances nobody has to search.
    assert!(
        feasible * 10 >= INSTANCES * 7 && feasible < INSTANCES,
        "TESSEL_FUZZ_SEED={seed:#x}: {feasible} of {INSTANCES} instances feasible"
    );
    assert!(
        nodes >= 50 * INSTANCES as u64,
        "TESSEL_FUZZ_SEED={seed:#x}: only {nodes} nodes expanded"
    );
}
