//! The shape every workload shares: set-up, fixed-work segments, and one
//! traced segment that fills the per-layer ledger.

use crate::host;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What a workload needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub out_dir: PathBuf,
}

/// One timed segment: a fixed list of operations run back to back.
#[derive(Debug, Default)]
pub struct Segment {
    pub ops: usize,
    /// Operations that errored, were refused, or failed an output check.
    pub failed: usize,
    pub wall_s: f64,
    /// Process user + system CPU over the segment.
    pub cpu_s: f64,
    /// Caller-observed time of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// Per-layer metrics by name; a layer the workload bypasses stays absent and
/// is reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Times `body` as one segment. `body` returns the per-operation latencies in
/// milliseconds and the number of failed operations; output checks that run
/// after an operation's clock stopped are inside the segment's wall-clock but
/// outside every latency.
pub fn timed_segment(body: impl FnOnce() -> (Vec<f64>, usize)) -> Segment {
    let cpu_before = host::process_cpu_seconds();
    let clock = Instant::now();
    let (latencies_ms, failed) = body();
    let wall_s = clock.elapsed().as_secs_f64();
    Segment {
        ops: latencies_ms.len(),
        failed,
        wall_s,
        cpu_s: host::process_cpu_seconds() - cpu_before,
        latencies_ms,
    }
}

/// The solver's effort counters as per-layer rows; `solver.prune_share` is
/// the share of generated nodes that were cut instead of expanded.
pub fn solver_effort(
    nodes: u64,
    pruned_bound: u64,
    pruned_dominance: u64,
) -> [(&'static str, f64); 4] {
    let pruned = pruned_bound + pruned_dominance;
    [
        ("solver.nodes", nodes as f64),
        ("solver.pruned_bound", pruned_bound as f64),
        ("solver.pruned_dominance", pruned_dominance as f64),
        (
            "solver.prune_share",
            pruned as f64 / (nodes + pruned).max(1) as f64,
        ),
    ]
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Operations in one segment (for the host stamp).
    const SEGMENT_OPS: usize;

    /// Builds the inputs and brings the program to its steady state.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Runs segment `index` untraced.
    fn segment(&mut self, index: usize) -> Segment;

    /// Runs segment `index` with spans around every call into a layer and
    /// records the workload's per-layer metrics.
    fn traced_segment(
        &mut self,
        index: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Segment, String>;

    /// Stops everything `setup` started.
    fn teardown(self) {}
}
