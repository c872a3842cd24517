//! Live in-flight request registry: every admitted request, from admission
//! to response, visible at `GET /v1/debug/inflight`.
//!
//! The HTTP worker registers each request right after popping it off the
//! admission queue (so it knows the peer address and the queue wait);
//! in-process callers register inside [`crate::service::ScheduleService`]
//! alongside the trace context they host. Registration returns an RAII
//! [`InflightGuard`] — the entry disappears when the request finishes, by
//! any path, including panics.
//!
//! Each entry carries a [`ProgressBoard`] handle. When the request leads a
//! solve, the service clones that handle into the solver configuration, so
//! the entry's `nodes` / `incumbent` / `steals` fields tick live while the
//! search runs — all relaxed-atomic reads, no locks shared with the solver
//! hot path. Requests that never solve (cache hits, coalesced followers)
//! simply read zero.
//!
//! Memory is strictly bounded by concurrency: one entry per admitted
//! request, each a couple hundred bytes plus one 64-slot progress board,
//! and the worker-pool size caps how many are live at once.

use crate::wire::{InflightInfo, InflightResponse};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tessel_solver::ProgressBoard;

thread_local! {
    /// The entry of the request this thread is currently serving, so the
    /// service pipeline can update stage/deadline/progress without threading
    /// a handle through every call signature (mirrors the [`tessel_obs`]
    /// request context). A stack, so a request that transitively issues
    /// another registered request restores the outer entry on drop.
    static CURRENT: RefCell<Vec<Arc<InflightEntry>>> = const { RefCell::new(Vec::new()) };
}

/// One admitted-but-unanswered request.
#[derive(Debug)]
pub struct InflightEntry {
    trace_id: String,
    method: String,
    path: String,
    peer: Option<String>,
    started: Instant,
    deadline: Mutex<Option<Instant>>,
    stage: Mutex<&'static str>,
    board: ProgressBoard,
}

impl InflightEntry {
    /// Marks the pipeline stage the request is currently in.
    pub fn set_stage(&self, stage: &'static str) {
        *self.stage.lock().expect("inflight stage lock") = stage;
    }

    /// Records the request's resolved deadline (known only after parameter
    /// resolution, which happens after registration).
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.deadline.lock().expect("inflight deadline lock") = deadline;
    }

    /// The live solver-progress board of this request.
    #[must_use]
    pub fn board(&self) -> &ProgressBoard {
        &self.board
    }

    fn info(&self) -> InflightInfo {
        let now = Instant::now();
        let deadline = *self.deadline.lock().expect("inflight deadline lock");
        let progress = self.board.snapshot();
        InflightInfo {
            trace_id: self.trace_id.clone(),
            method: self.method.clone(),
            path: self.path.clone(),
            peer: self.peer.clone(),
            stage: (*self.stage.lock().expect("inflight stage lock")).to_string(),
            elapsed_ms: now.saturating_duration_since(self.started).as_millis() as u64,
            deadline_remaining_ms: deadline
                .map(|d| d.saturating_duration_since(now).as_millis() as u64),
            nodes: progress.nodes,
            incumbent: progress.incumbent,
            incumbents: progress.incumbents,
            steals: progress.steals,
            memo_drops: progress.memo_drops,
            worker_depths: progress
                .worker_depths
                .iter()
                .map(|&(_, depth)| depth)
                .collect(),
        }
    }
}

/// Registry of every admitted request, ordered oldest first.
#[derive(Debug, Default)]
pub struct InflightRegistry {
    next_id: AtomicU64,
    entries: Mutex<BTreeMap<u64, Arc<InflightEntry>>>,
}

impl InflightRegistry {
    /// Registers one admitted request and makes it the calling thread's
    /// current entry. Drop the returned guard when the request finishes.
    #[must_use]
    pub fn register(
        &self,
        trace_id: String,
        method: String,
        path: String,
        peer: Option<String>,
    ) -> InflightGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(InflightEntry {
            trace_id,
            method,
            path,
            peer,
            started: Instant::now(),
            deadline: Mutex::new(None),
            stage: Mutex::new("queued"),
            board: ProgressBoard::new(),
        });
        self.entries
            .lock()
            .expect("inflight registry lock")
            .insert(id, Arc::clone(&entry));
        CURRENT.with(|current| current.borrow_mut().push(entry));
        InflightGuard { registry: self, id }
    }

    /// Entries currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("inflight registry lock").len()
    }

    /// `true` when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `GET /v1/debug/inflight` response body, oldest request first.
    #[must_use]
    pub fn snapshot(&self) -> InflightResponse {
        InflightResponse {
            inflight: self
                .entries
                .lock()
                .expect("inflight registry lock")
                .values()
                .map(|entry| entry.info())
                .collect(),
        }
    }
}

/// RAII registration handle: removes the entry (and pops the thread's
/// current-entry stack) when the request finishes.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    registry: &'a InflightRegistry,
    id: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .entries
            .lock()
            .expect("inflight registry lock")
            .remove(&self.id);
        CURRENT.with(|current| {
            current.borrow_mut().pop();
        });
    }
}

/// Runs `f` against the calling thread's current in-flight entry, if any.
pub fn with_current<R>(f: impl FnOnce(&InflightEntry) -> R) -> Option<R> {
    CURRENT.with(|current| current.borrow().last().map(|entry| f(entry)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_snapshot_and_deregister() {
        let registry = InflightRegistry::default();
        assert!(registry.is_empty());
        {
            let _guard = registry.register(
                "a".repeat(32),
                "POST".into(),
                "/v1/search".into(),
                Some("127.0.0.1:5000".into()),
            );
            assert_eq!(registry.len(), 1);
            let snap = registry.snapshot();
            assert_eq!(snap.inflight.len(), 1);
            let entry = &snap.inflight[0];
            assert_eq!(entry.trace_id, "a".repeat(32));
            assert_eq!(entry.stage, "queued");
            assert_eq!(entry.peer.as_deref(), Some("127.0.0.1:5000"));
            assert_eq!(entry.deadline_remaining_ms, None);
            assert_eq!(entry.nodes, 0);
            assert_eq!(entry.incumbent, None);
        }
        assert!(registry.is_empty(), "guard drop deregisters");
    }

    #[test]
    fn stage_deadline_and_progress_flow_into_the_snapshot() {
        let registry = InflightRegistry::default();
        let _guard = registry.register("b".repeat(32), "CALL".into(), "/v1/search".into(), None);
        with_current(|entry| {
            entry.set_stage("solve");
            entry.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
            entry.board().add_nodes(17);
            entry.board().record_incumbent(9);
            entry.board().add_memo_drops(3);
            entry.board().set_worker_depth(0, 4);
        })
        .expect("a current entry exists");
        let snap = registry.snapshot();
        let entry = &snap.inflight[0];
        assert_eq!(entry.stage, "solve");
        assert_eq!(entry.nodes, 17);
        assert_eq!(entry.incumbent, Some(9));
        assert_eq!(entry.incumbents, 1);
        assert_eq!(entry.memo_drops, 3);
        assert_eq!(entry.worker_depths, vec![4]);
        let remaining = entry.deadline_remaining_ms.expect("deadline is set");
        assert!(
            remaining > 3_500_000 && remaining <= 3_600_000,
            "{remaining}"
        );
    }

    #[test]
    fn nested_registrations_restore_the_outer_entry() {
        let registry = InflightRegistry::default();
        let _outer = registry.register("c".repeat(32), "POST".into(), "/outer".into(), None);
        {
            let _inner = registry.register("d".repeat(32), "CALL".into(), "/inner".into(), None);
            assert_eq!(registry.len(), 2);
            with_current(|entry| assert_eq!(entry.path, "/inner")).unwrap();
        }
        assert_eq!(registry.len(), 1);
        with_current(|entry| assert_eq!(entry.path, "/outer")).unwrap();
    }

    #[test]
    fn registry_is_ordered_oldest_first() {
        let registry = InflightRegistry::default();
        let _a = registry.register("1".repeat(32), "POST".into(), "/a".into(), None);
        let _b = registry.register("2".repeat(32), "POST".into(), "/b".into(), None);
        let snap = registry.snapshot();
        assert_eq!(snap.inflight[0].path, "/a");
        assert_eq!(snap.inflight[1].path, "/b");
    }
}
