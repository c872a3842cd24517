//! Exact disjunctive scheduling solver used as the Z3 substitute for Tessel.
//!
//! The Tessel paper (HPCA 2024) encodes its schedule problems — repetend
//! construction, warmup completion and cooldown completion — into the Z3 SMT
//! solver and minimises the makespan with a binary search over the objective.
//! Z3 is not available as an offline Rust dependency, so this crate implements
//! an exact solver for the *same* constraint system (Eq. 1 of the paper):
//!
//! * every block (here: [`Task`]) has an integer duration, a signed memory
//!   footprint and a set of devices it occupies exclusively while running;
//! * data dependencies impose `start(pred) + duration(pred) <= start(succ)`;
//! * every device executes at most one block at a time;
//! * the running sum of memory footprints on each device — taken in start-time
//!   order — never exceeds the device capacity;
//! * the objective is to minimise the makespan `max(start + duration)`.
//!
//! A key structural observation (also exploited by the paper's formulation)
//! makes an exact combinatorial solver practical: once the *order* of blocks
//! on each device is fixed, the optimal start times are obtained by a longest
//! path computation, and the per-device memory profile depends only on that
//! order. The solver therefore branches over chronological block orderings
//! (a serial schedule-generation scheme) with constraint propagation,
//! dominance pruning and lower-bound pruning, which enumerates exactly the
//! schedules Z3 would consider while being dramatically faster on the small
//! instances Tessel produces.
//!
//! # Example
//!
//! ```
//! use tessel_solver::{InstanceBuilder, Solver, SolverConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = InstanceBuilder::new(2);
//! let f0 = builder.add_task("f0", 1, [0], 1)?;
//! let f1 = builder.add_task("f1", 1, [1], 1)?;
//! let b1 = builder.add_task("b1", 2, [1], -1)?;
//! let b0 = builder.add_task("b0", 2, [0], -1)?;
//! builder.add_precedence(f0, f1)?;
//! builder.add_precedence(f1, b1)?;
//! builder.add_precedence(b1, b0)?;
//! let instance = builder.build()?;
//!
//! let outcome = Solver::new(SolverConfig::default()).minimize(&instance)?;
//! let solution = outcome.solution().expect("the toy pipeline is feasible");
//! assert_eq!(solution.makespan(), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod error;
mod greedy;
mod instance;
mod lower_bound;
mod progress;
mod propagate;
mod search;
mod solution;
mod stats;
mod task;

pub use cancel::{Abort, CancelToken};
pub use error::SolverError;
pub use greedy::{greedy_schedule, GreedyPriority};
pub use instance::{Instance, InstanceBuilder};
pub use lower_bound::{
    critical_path_lower_bound, device_load_lower_bound, jackson_preemptive_bound,
    makespan_lower_bound, one_machine_lower_bound,
};
pub use progress::{ProgressBoard, ProgressSnapshot};
pub use propagate::TimeWindows;
pub use search::{resolve_threads, SolveOutcome, Solver, SolverConfig};
pub use solution::{Solution, SolutionViolation};
pub use stats::{SolveStats, SolverTotals};
pub use task::{Task, TaskId};

/// Result alias used throughout the solver crate.
pub type Result<T> = std::result::Result<T, SolverError>;
