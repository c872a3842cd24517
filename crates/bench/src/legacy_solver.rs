//! The seed implementation of the branch-and-bound search, kept verbatim as
//! a differential oracle.
//!
//! `tessel-solver`'s hot loop was rewritten to be allocation-free (undo-stack
//! state restoration, arena-backed dominance table, pooled candidate
//! buffers). This module preserves the original allocation-heavy algorithm —
//! per-node `HashMap<u128, Vec<Vec<u64>>>` memo entries, cloned finish
//! vectors and per-child undo snapshots — which shares none of the current
//! engine's search code, so `tests/solver_oracle.rs` holds the engine's
//! proved optima to it. It is *not* part of the production search path.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use tessel_solver::{
    greedy_schedule, makespan_lower_bound, GreedyPriority, Instance, TaskId, TimeWindows,
};

/// Measurement result of one legacy solve.
#[derive(Debug, Clone)]
pub struct LegacyOutcome {
    /// Best makespan found (`None` if the instance was proved infeasible).
    pub makespan: Option<u64>,
    /// Branch nodes expanded.
    pub nodes: u64,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// `true` if the search space was exhausted.
    pub complete: bool,
}

/// Runs the seed branch-and-bound to optimality (or until `max_nodes` /
/// `time_limit`), mirroring the original `Solver::minimize`. Pass the same
/// `memo_limit` as the engine it is compared against so both sides prune
/// identically.
#[must_use]
pub fn legacy_minimize(
    instance: &Instance,
    max_nodes: u64,
    time_limit: Option<Duration>,
    memo_limit: usize,
) -> LegacyOutcome {
    let started = Instant::now();
    let n = instance.num_tasks();
    let windows = TimeWindows::compute(instance, instance.total_work());
    let lower = makespan_lower_bound(instance);

    let mut ctx = LegacyContext {
        instance,
        windows: &windows,
        max_nodes,
        time_limit,
        best: None,
        upper: u64::MAX,
        nodes: 0,
        started,
        memo: HashMap::new(),
        memo_limit,
        stop: false,
        scheduled: vec![false; n],
        starts: vec![0; n],
        remaining_preds: (0..n)
            .map(|i| instance.predecessors(TaskId::from_index(i)).len())
            .collect(),
        device_finish: vec![0; instance.num_devices()],
        device_mem: instance.initial_memory().to_vec(),
        device_remaining: (0..instance.num_devices())
            .map(|d| instance.device_load(d))
            .collect(),
        unscheduled: n,
        lower,
    };

    for priority in [
        GreedyPriority::LongestTail,
        GreedyPriority::MemoryAware,
        GreedyPriority::EarliestStart,
    ] {
        if let Some(sol) = greedy_schedule(instance, priority) {
            if sol.makespan() < ctx.upper {
                ctx.upper = sol.makespan();
                ctx.best = Some(sol.starts().to_vec());
            }
        }
    }
    if ctx.best.is_some() && ctx.upper <= lower {
        return LegacyOutcome {
            makespan: Some(ctx.upper),
            nodes: 0,
            elapsed: started.elapsed(),
            complete: true,
        };
    }

    ctx.dfs();
    LegacyOutcome {
        makespan: ctx.best.as_ref().map(|_| ctx.upper),
        nodes: ctx.nodes,
        elapsed: started.elapsed(),
        complete: !ctx.stop,
    }
}

struct LegacyContext<'a> {
    instance: &'a Instance,
    windows: &'a TimeWindows,
    max_nodes: u64,
    time_limit: Option<Duration>,
    best: Option<Vec<u64>>,
    upper: u64,
    nodes: u64,
    started: Instant,
    memo: HashMap<u128, Vec<Vec<u64>>>,
    memo_limit: usize,
    stop: bool,
    scheduled: Vec<bool>,
    starts: Vec<u64>,
    remaining_preds: Vec<usize>,
    device_finish: Vec<u64>,
    device_mem: Vec<i64>,
    device_remaining: Vec<u64>,
    unscheduled: usize,
    lower: u64,
}

impl LegacyContext<'_> {
    fn limits_hit(&self) -> bool {
        if self.nodes >= self.max_nodes {
            return true;
        }
        if let Some(limit) = self.time_limit {
            if self.nodes.is_multiple_of(1024) && self.started.elapsed() > limit {
                return true;
            }
        }
        false
    }

    fn mask(&self) -> Option<u128> {
        if self.instance.num_tasks() > 128 {
            return None;
        }
        let mut mask = 0u128;
        for (i, &s) in self.scheduled.iter().enumerate() {
            if s {
                mask |= 1 << i;
            }
        }
        Some(mask)
    }

    fn dynamic_est(&self, id: TaskId) -> u64 {
        let task = self.instance.task(id);
        let mut est = task.release.max(self.windows.earliest_start(id));
        for &p in self.instance.predecessors(id) {
            if self.scheduled[p] {
                est = est.max(self.starts[p] + self.instance.task(TaskId::from_index(p)).duration);
            }
        }
        for &d in &task.devices {
            est = est.max(self.device_finish[d]);
        }
        est
    }

    fn node_lower_bound(&self) -> u64 {
        let mut bound = self
            .device_finish
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.lower);
        for d in 0..self.instance.num_devices() {
            bound = bound.max(self.device_finish[d] + self.device_remaining[d]);
        }
        for i in 0..self.instance.num_tasks() {
            if self.scheduled[i] {
                continue;
            }
            let id = TaskId::from_index(i);
            let task = self.instance.task(id);
            let est = self.dynamic_est(id);
            bound = bound.max(est + task.duration + self.windows.tail(id));
        }
        bound
    }

    fn dfs(&mut self) {
        if self.stop {
            return;
        }
        self.nodes += 1;
        if self.limits_hit() {
            self.stop = true;
            return;
        }

        if self.unscheduled == 0 {
            let makespan = self.device_finish.iter().copied().max().unwrap_or(0);
            if makespan < self.upper {
                self.upper = makespan;
                self.best = Some(self.starts.clone());
            }
            return;
        }

        if self.node_lower_bound() >= self.upper {
            return;
        }

        // The seed's allocation pattern, preserved on purpose: a cloned
        // finish vector and a fresh memo entry per visited node.
        if let Some(mask) = self.mask() {
            let finishes = self.device_finish.clone();
            let entry = self.memo.entry(mask).or_default();
            if entry
                .iter()
                .any(|prev| prev.iter().zip(&finishes).all(|(p, c)| p <= c))
            {
                return;
            }
            entry.retain(|prev| !prev.iter().zip(&finishes).all(|(p, c)| c <= p));
            if self.memo.len() < self.memo_limit {
                self.memo.get_mut(&mask).unwrap().push(finishes);
            }
        }

        let mut candidates: Vec<(u64, u64, usize)> = Vec::new();
        for i in 0..self.instance.num_tasks() {
            if self.scheduled[i] || self.remaining_preds[i] != 0 {
                continue;
            }
            let id = TaskId::from_index(i);
            let task = self.instance.task(id);
            if let Some(cap) = self.instance.memory_capacity() {
                let fits = task
                    .devices
                    .iter()
                    .all(|&d| self.device_mem[d] + task.memory <= cap);
                if !fits {
                    continue;
                }
            }
            let est = self.dynamic_est(id);
            let tail = self.windows.tail(id) + task.duration;
            candidates.push((est, u64::MAX - tail, i));
        }
        if candidates.is_empty() {
            return;
        }
        candidates.sort_unstable();

        for (est, _, i) in candidates {
            if self.stop {
                return;
            }
            let id = TaskId::from_index(i);
            let task = self.instance.task(id).clone();
            self.scheduled[i] = true;
            self.starts[i] = est;
            self.unscheduled -= 1;
            let mut saved: Vec<(usize, u64, i64, u64)> = Vec::with_capacity(task.devices.len());
            for &d in &task.devices {
                saved.push((
                    d,
                    self.device_finish[d],
                    self.device_mem[d],
                    self.device_remaining[d],
                ));
                self.device_finish[d] = est + task.duration;
                self.device_mem[d] += task.memory;
                self.device_remaining[d] -= task.duration;
            }
            for &s in self.instance.successors(id) {
                self.remaining_preds[s] -= 1;
            }

            self.dfs();

            for &s in self.instance.successors(id) {
                self.remaining_preds[s] += 1;
            }
            for (d, finish, mem, remaining) in saved {
                self.device_finish[d] = finish;
                self.device_mem[d] = mem;
                self.device_remaining[d] = remaining;
            }
            self.scheduled[i] = false;
            self.unscheduled += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_solver::{InstanceBuilder, Solver, SolverConfig};

    #[test]
    fn legacy_and_current_prove_the_same_makespan() {
        let mut b = InstanceBuilder::new(2);
        b.set_memory_capacity(Some(3));
        let mut prev = None;
        for mb in 0..3 {
            for d in 0..2usize {
                let id = b.add_task(format!("f{d}.{mb}"), 1, [d], 1).unwrap();
                if let Some(p) = prev {
                    b.add_precedence(p, id).unwrap();
                }
                prev = Some(id);
            }
            for d in (0..2usize).rev() {
                let id = b.add_task(format!("b{d}.{mb}"), 2, [d], -1).unwrap();
                b.add_precedence(prev.unwrap(), id).unwrap();
                prev = Some(id);
            }
            prev = None;
        }
        let inst = b.build().unwrap();
        let legacy = legacy_minimize(&inst, u64::MAX, None, 1 << 22);
        let current = Solver::new(SolverConfig::default())
            .minimize(&inst)
            .unwrap();
        assert!(legacy.complete);
        assert!(current.is_optimal());
        assert_eq!(
            legacy.makespan.unwrap(),
            current.solution().unwrap().makespan()
        );
    }
}
