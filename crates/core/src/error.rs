//! Error types for the Tessel core crate.

use std::error::Error;
use std::fmt;
use tessel_solver::SolverError;

/// Errors produced while building placements, searching schedules or
/// composing them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A block referenced a device outside the placement's device range.
    DeviceOutOfRange {
        /// Block name.
        block: String,
        /// Offending device.
        device: usize,
        /// Number of devices in the placement.
        num_devices: usize,
    },
    /// A block has no devices assigned.
    EmptyDeviceSet {
        /// Block name.
        block: String,
    },
    /// A dependency references a block index that does not exist.
    UnknownBlock {
        /// The referenced index.
        index: usize,
        /// Number of blocks in the placement.
        num_blocks: usize,
    },
    /// Intra-micro-batch dependencies form a cycle.
    CyclicDependencies,
    /// The placement has no blocks.
    EmptyPlacement,
    /// The requested number of micro-batches is smaller than the number used
    /// by the repetend, so the schedule cannot be extended.
    TooFewMicroBatches {
        /// Micro-batches requested.
        requested: usize,
        /// Micro-batches required by the repetend (`NR`).
        required: usize,
    },
    /// The search exhausted every repetend candidate without finding a
    /// feasible schedule (typically because the memory budget is too small).
    NoFeasibleRepetend,
    /// A warmup or cooldown phase admits no feasible schedule for the chosen
    /// repetend.
    PhaseInfeasible {
        /// `"warmup"` or `"cooldown"`.
        phase: &'static str,
    },
    /// A placement cannot be constructed because a device would not even hold
    /// the static (parameter/optimizer) state assigned to it. This is how the
    /// out-of-memory failures of Figs. 13 and 14 surface.
    PlacementOutOfMemory {
        /// The schedule-level device (GPU group) that overflows.
        device: usize,
        /// Memory units required by the static state.
        required: i64,
        /// Memory units available on the device.
        capacity: i64,
    },
    /// The search ran past its wall-clock deadline
    /// ([`SearchConfig::deadline`](crate::search::SearchConfig::deadline))
    /// before a result could be proved. Long-running callers (the
    /// schedule-search daemon) surface this as a per-request timeout.
    DeadlineExceeded,
    /// An error bubbled up from the underlying scheduling solver.
    Solver(SolverError),
    /// A composed schedule failed validation; this indicates a bug and the
    /// message carries the violated constraint.
    InvalidSchedule(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DeviceOutOfRange {
                block,
                device,
                num_devices,
            } => write!(
                f,
                "block `{block}` uses device {device} but the placement has {num_devices} devices"
            ),
            CoreError::EmptyDeviceSet { block } => {
                write!(f, "block `{block}` has no devices assigned")
            }
            CoreError::UnknownBlock { index, num_blocks } => write!(
                f,
                "dependency references block {index} but the placement has {num_blocks} blocks"
            ),
            CoreError::CyclicDependencies => {
                write!(f, "intra-micro-batch dependencies form a cycle")
            }
            CoreError::EmptyPlacement => write!(f, "placement has no blocks"),
            CoreError::TooFewMicroBatches {
                requested,
                required,
            } => write!(
                f,
                "schedule needs at least {required} micro-batches but only {requested} were requested"
            ),
            CoreError::NoFeasibleRepetend => {
                write!(f, "no feasible repetend found within the memory budget")
            }
            CoreError::PhaseInfeasible { phase } => {
                write!(f, "the {phase} phase admits no feasible schedule")
            }
            CoreError::PlacementOutOfMemory {
                device,
                required,
                capacity,
            } => write!(
                f,
                "device {device} needs {required} memory units of static state but only has {capacity}"
            ),
            CoreError::DeadlineExceeded => {
                write!(f, "the search exceeded its deadline")
            }
            CoreError::Solver(e) => write!(f, "solver error: {e}"),
            CoreError::InvalidSchedule(msg) => write!(f, "composed schedule is invalid: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolverError> for CoreError {
    fn from(e: SolverError) -> Self {
        CoreError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = vec![
            CoreError::DeviceOutOfRange {
                block: "b".into(),
                device: 4,
                num_devices: 4,
            },
            CoreError::EmptyDeviceSet { block: "b".into() },
            CoreError::UnknownBlock {
                index: 1,
                num_blocks: 0,
            },
            CoreError::CyclicDependencies,
            CoreError::EmptyPlacement,
            CoreError::TooFewMicroBatches {
                requested: 1,
                required: 4,
            },
            CoreError::NoFeasibleRepetend,
            CoreError::PhaseInfeasible { phase: "warmup" },
            CoreError::PlacementOutOfMemory {
                device: 0,
                required: 40,
                capacity: 32,
            },
            CoreError::DeadlineExceeded,
            CoreError::Solver(SolverError::EmptyInstance),
            CoreError::InvalidSchedule("overlap".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn solver_errors_convert_and_expose_source() {
        let err: CoreError = SolverError::CyclicPrecedence.into();
        assert!(matches!(err, CoreError::Solver(_)));
        assert!(err.source().is_some());
        assert!(CoreError::EmptyPlacement.source().is_none());
    }
}
