//! Output checks that do not trust the code under test.
//!
//! [`check_schedule`] re-derives Eq. 1 of the paper from the *request's*
//! placement — it does not call `Schedule::validate` — and
//! [`Expected`] pins the relabeling-invariant answers in `expected.json`.

use serde::Value;
use std::collections::BTreeMap;
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::Schedule;

/// Checks `schedule` against `placement` (both in the same labeling) for
/// `num_micro_batches` micro-batches: every block of every micro-batch
/// present exactly once with the placement's duration and devices, data
/// dependencies respected, no two blocks overlapping on a device, and the
/// running memory on every device within the capacity.
pub fn check_schedule(
    placement: &PlacementSpec,
    schedule: &Schedule,
    num_micro_batches: usize,
) -> Result<(), String> {
    let k = placement.num_blocks();
    let n = num_micro_batches;
    if schedule.num_micro_batches() != n {
        return Err(format!(
            "schedule covers {} micro-batches, expected {n}",
            schedule.num_micro_batches()
        ));
    }
    if schedule.blocks().len() != k * n {
        return Err(format!(
            "schedule has {} blocks, expected {}",
            schedule.blocks().len(),
            k * n
        ));
    }
    let mut start: Vec<Option<u64>> = vec![None; k * n];
    for b in schedule.blocks() {
        if b.stage >= k || b.micro_batch >= n {
            return Err(format!(
                "block ({}, {}) is out of range",
                b.stage, b.micro_batch
            ));
        }
        let spec = placement.block(b.stage);
        let mut want = spec.devices.clone();
        let mut got = b.devices.clone();
        want.sort_unstable();
        got.sort_unstable();
        if b.duration != spec.time || got != want || b.memory != spec.memory {
            return Err(format!(
                "block ({}, {}) does not carry its placement block's time, devices and memory",
                b.stage, b.micro_batch
            ));
        }
        if start[b.stage * n + b.micro_batch]
            .replace(b.start)
            .is_some()
        {
            return Err(format!(
                "block ({}, {}) is scheduled twice",
                b.stage, b.micro_batch
            ));
        }
    }
    // With k * n blocks, none out of range and none twice, none is missing.
    let start: Vec<u64> = start.into_iter().map(|s| s.expect("present")).collect();

    for (stage, spec) in placement.blocks().iter().enumerate() {
        for &dep in &spec.deps {
            for mb in 0..n {
                let dep_end = start[dep * n + mb] + placement.block(dep).time;
                if dep_end > start[stage * n + mb] {
                    return Err(format!(
                        "block ({stage}, {mb}) starts at {} before its dependency ({dep}, {mb}) ends at {dep_end}",
                        start[stage * n + mb]
                    ));
                }
            }
        }
    }

    for device in 0..placement.num_devices() {
        // (start, memory delta, end) of every block on this device; frees
        // sort before allocations at equal starts, the convention of Eq. 1.
        let mut events: Vec<(u64, i64, u64)> = Vec::new();
        for (stage, spec) in placement.blocks().iter().enumerate() {
            if spec.devices.contains(&device) {
                for mb in 0..n {
                    let s = start[stage * n + mb];
                    events.push((s, spec.memory, s + spec.time));
                }
            }
        }
        events.sort_unstable();
        let mut busy_until = 0u64;
        let mut memory = 0i64;
        for &(s, delta, end) in &events {
            if s < busy_until {
                return Err(format!("two blocks overlap on device {device} at time {s}"));
            }
            busy_until = end;
            memory += delta;
            if placement.memory_capacity().is_some_and(|cap| memory > cap) {
                return Err(format!(
                    "memory {memory} on device {device} at time {s} exceeds the capacity"
                ));
            }
        }
    }
    Ok(())
}

/// One pinned exact solve: the proved makespan and the serial node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedSolve {
    pub makespan: u64,
    pub serial_nodes: u64,
}

/// The answers pinned in `expected.json` (compiled into the binary, so the
/// benchmark reads nothing outside its own directory).
#[derive(Debug, Clone)]
pub struct Expected {
    /// Winning repetend period per `search_cold` placement name.
    pub periods: BTreeMap<String, u64>,
    /// Makespan and serial node count per `solve_*` instance name.
    pub solves: BTreeMap<String, ExpectedSolve>,
}

impl Expected {
    pub fn load() -> Result<Self, String> {
        Self::parse(include_str!("../expected.json"))
    }

    fn parse(text: &str) -> Result<Self, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| format!("expected.json: {e}"))?;
        let section = |name: &str| -> Result<&[(String, Value)], String> {
            serde::field(root.as_map().ok_or("expected.json: not an object")?, name)
                .map_err(|e| format!("expected.json: {e}"))?
                .as_map()
                .ok_or_else(|| format!("expected.json: `{name}` is not an object"))
        };
        let uint = |v: &Value, what: &str| match v {
            Value::UInt(u) => Ok(*u),
            other => Err(format!(
                "expected.json: {what}: expected a count, found {other:?}"
            )),
        };
        let mut periods = BTreeMap::new();
        for (name, value) in section("search_cold_periods")? {
            periods.insert(name.clone(), uint(value, name)?);
        }
        let mut solves = BTreeMap::new();
        for (name, value) in section("solve_instances")? {
            let fields = value
                .as_map()
                .ok_or_else(|| format!("expected.json: `{name}` is not an object"))?;
            let get = |key: &str| {
                serde::field(fields, key)
                    .map_err(|e| format!("expected.json: {name}: {e}"))
                    .and_then(|v| uint(v, key))
            };
            solves.insert(
                name.clone(),
                ExpectedSolve {
                    makespan: get("makespan")?,
                    serial_nodes: get("serial_nodes")?,
                },
            );
        }
        Ok(Expected { periods, solves })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tessel_core::ir::BlockKind;
    use tessel_core::schedule::scheduled_block;

    fn v2() -> PlacementSpec {
        let mut b = PlacementSpec::builder("v2", 2);
        b.set_memory_capacity(Some(2));
        let f0 = b
            .add_block("f0", BlockKind::Forward, [0], 1, 1, [])
            .unwrap();
        let f1 = b
            .add_block("f1", BlockKind::Forward, [1], 1, 1, [f0])
            .unwrap();
        let b1 = b
            .add_block("b1", BlockKind::Backward, [1], 2, -1, [f1])
            .unwrap();
        b.add_block("b0", BlockKind::Backward, [0], 2, -1, [b1])
            .unwrap();
        b.build().unwrap()
    }

    /// 1F1B for two micro-batches on the two-stage V: `starts[stage][mb]`.
    const GOOD: [[u64; 2]; 4] = [[0, 1], [1, 4], [2, 5], [4, 7]];

    fn schedule(placement: &PlacementSpec, starts: [[u64; 2]; 4]) -> Schedule {
        let mut blocks = Vec::new();
        for (stage, row) in starts.iter().enumerate() {
            for (mb, &start) in row.iter().enumerate() {
                blocks.push(scheduled_block(placement, stage, mb, start));
            }
        }
        Schedule::new(2, 2, blocks)
    }

    #[test]
    fn accepts_a_valid_schedule() {
        let p = v2();
        check_schedule(&p, &schedule(&p, GOOD), 2).unwrap();
    }

    #[test]
    fn rejects_one_swapped_start() {
        let p = v2();
        // Swap the starts of f1^1 and b1^0 on device 1: b0^0 no longer waits
        // for b1^0, and b1^0 runs into b1^1.
        let mut starts = GOOD;
        starts[1][1] = GOOD[2][0];
        starts[2][0] = GOOD[1][1];
        let err = check_schedule(&p, &schedule(&p, starts), 2).unwrap_err();
        assert!(
            err.contains("before its dependency") || err.contains("overlap"),
            "{err}"
        );
    }

    #[test]
    fn rejects_overlap_memory_and_missing_blocks() {
        let p = v2();
        // Micro-batch 1 shifted so that f0^1 (5..6) runs into b0^0 (4..6) on
        // device 0 with every dependency still respected.
        let overlap = [[0, 5], [1, 6], [2, 7], [4, 9]];
        assert!(check_schedule(&p, &schedule(&p, overlap), 2)
            .unwrap_err()
            .contains("overlap"));

        let tight = p.with_memory_capacity(Some(1));
        assert!(check_schedule(&tight, &schedule(&tight, GOOD), 2)
            .unwrap_err()
            .contains("capacity"));

        let mut blocks = schedule(&p, GOOD).blocks().to_vec();
        blocks.pop();
        assert!(check_schedule(&p, &Schedule::new(2, 2, blocks), 2).is_err());
        assert!(check_schedule(&p, &schedule(&p, GOOD), 3).is_err());
    }

    #[test]
    fn expected_file_parses_and_holds_every_pinned_answer() {
        let expected = Expected::load().unwrap();
        assert_eq!(expected.periods.len(), 19);
        assert_eq!(expected.solves.len(), 4);
        assert_eq!(expected.solves["V4/mb6"].makespan, 27);
    }
}
