//! Core of the Tessel reproduction: problem IR, schedules and the two-phase
//! schedule search.
//!
//! The crate mirrors the structure of the paper:
//!
//! * [`ir`] — the problem formulation of §III-A (blocks, placements, costs).
//! * [`schedule`] — schedules, their validation against Eq. 1 and the bubble
//!   rate metric.
//! * [`repetend`] — repetend construction (§IV-B): candidate enumeration with
//!   Property 4.1/4.2 pruning, entry-memory inference and the compacted
//!   period of Eq. 4.
//! * [`screen`] — the exact candidate screen in front of the repetend solves:
//!   three makespan lower bounds, then deadline propagation.
//! * [`completion`] — warmup/cooldown completion (§IV-C, Eqs. 5 and 6).
//! * [`compose`] — schedule generalisation to arbitrary micro-batch counts
//!   (§III-C).
//! * [`search`] — Algorithm 1 with the lazy-search optimisation of §V.
//! * [`fingerprint`] — canonical placement form and the stable 64-bit
//!   fingerprint used by the schedule-search daemon's result cache.
//!
//! # Quickstart
//!
//! ```
//! use tessel_core::ir::{BlockKind, PlacementSpec};
//! use tessel_core::search::{SearchConfig, TesselSearch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-stage pipeline (V-shape) with unit forward and 2x backward cost.
//! let mut b = PlacementSpec::builder("v2", 2);
//! b.set_memory_capacity(Some(3));
//! let f0 = b.add_block("f0", BlockKind::Forward, [0], 1, 1, [])?;
//! let f1 = b.add_block("f1", BlockKind::Forward, [1], 1, 1, [f0])?;
//! let b1 = b.add_block("b1", BlockKind::Backward, [1], 2, -1, [f1])?;
//! b.add_block("b0", BlockKind::Backward, [0], 2, -1, [b1])?;
//! let placement = b.build()?;
//!
//! let outcome = TesselSearch::new(SearchConfig::default()).run(&placement)?;
//! assert!(outcome.schedule.validate(&placement).is_ok());
//! // The searched steady state matches 1F1B: zero bubble.
//! assert_eq!(outcome.repetend.period, placement.repetend_lower_bound());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod completion;
pub mod compose;
pub mod error;
pub mod fingerprint;
pub mod ir;
pub mod repetend;
pub mod schedule;
pub mod screen;
pub mod search;

pub use error::CoreError;
pub use fingerprint::{CanonicalLabeling, CanonicalPlacement, Fingerprint};
pub use ir::{BlockKind, BlockSpec, PlacementSpec};
pub use schedule::{Schedule, ScheduledBlock};
pub use search::{SearchConfig, SearchOutcome, TesselSearch};

/// Result alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
