//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into a
//! layer's public functions — the program under test is not instrumented.
//! They stay in memory until the workload ends and are then written to
//! `<out dir>/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the recorder; `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// The operation (request, search, solve) the span belongs to.
    op: u32,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Spans written in full to the trace file; the rest are summarised by name
/// (a `search_cold` pass records ~10⁶ spans).
const MAX_SPANS_WRITTEN: usize = 20_000;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's id and
    /// duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId, f64) {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            op: op as u32,
            parent,
            start_ns,
            end_ns,
        });
        (value, id, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Records a span that has just ended and took `duration_s` seconds (the
    /// daemon workloads time the round trip themselves).
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: SpanId,
        duration_s: f64,
    ) -> SpanId {
        let end_ns = self.now_ns();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            op: op as u32,
            parent,
            start_ns: end_ns.saturating_sub((duration_s * 1e9) as u64),
            end_ns,
        });
        id
    }

    /// Opens a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, op: usize, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            op: op as u32,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened with [`Tracer::open`]; returns its duration in
    /// seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Name and duration in seconds of every span recorded since the
    /// recorder held `mark` spans.
    pub fn durations_since(&self, mark: usize) -> Vec<(&'static str, f64)> {
        self.spans[mark..]
            .iter()
            .map(|s| (s.name, (s.end_ns - s.start_ns) as f64 / 1e9))
            .collect()
    }

    /// Self time per span in seconds: its duration minus its children's.
    /// Children replayed after their parent closed (the daemon workloads)
    /// count like nested ones, which is what makes the round trip's self
    /// time the transport's share.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        for span in &self.spans {
            if span.parent != NONE {
                own[span.parent as usize] -= (span.end_ns - span.start_ns) as f64 / 1e9;
            }
        }
        own
    }

    /// Writes the trace: a per-name summary of every span (count, total and
    /// self seconds) and the first [`MAX_SPANS_WRITTEN`] spans in full.
    pub fn write(&self, path: &Path, workload: &str, host_stamp: &str) -> std::io::Result<()> {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&own) {
            let row = by_name.entry(span.name).or_default();
            row.0 += 1;
            row.1 += (span.end_ns - span.start_ns) as f64 / 1e9;
            row.2 += own;
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"host\":{host_stamp},\"spans_recorded\":{},\"spans_written\":{},\"summary\":[",
            self.spans.len(),
            self.spans.len().min(MAX_SPANS_WRITTEN)
        );
        for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{name}\",\"count\":{count},\"total_s\":{total:.9},\"self_s\":{own:.9}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("],\"spans\":[");
        for (id, span) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let parent = if span.parent == NONE {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                out,
                "{}\n{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.op,
                span.start_ns,
                span.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.open("root", 0, NONE);
        let ((), child, child_s) = t.span("child", 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_s = t.close(root);
        let own = t.self_times();
        assert!(child_s >= 0.002 && root_s >= child_s);
        assert!((own[root as usize] - (root_s - child_s)).abs() < 1e-9);
        assert!((own[child as usize] - child_s).abs() < 1e-12);
        assert_eq!(t.len(), 2);
    }
}
