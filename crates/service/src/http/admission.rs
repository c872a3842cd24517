//! The pop/shed policy between the event loop and the worker pool.
//!
//! This module owns one decision: *which waiting request runs next, and
//! which one is turned away when the queue is full*. Pop order is
//! fewest-served client first (round-robin fairness across source IPs), then
//! highest priority, then earliest deadline, then oldest arrival; a full
//! queue sheds the *least valuable* waiting request — lowest priority,
//! largest queue share, latest deadline — instead of refusing the newest
//! arrival. The event loop answers the victim with `429` + `Retry-After`.

use super::parse::ParsedRequest;
use crate::metrics::TransportMetrics;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A unit of work for the pool: which connection, which slot in its response
/// order, and the request itself.
pub(super) struct Job {
    pub(super) token: u64,
    pub(super) seq: u64,
    pub(super) request: ParsedRequest,
    /// The connection closes after this job's response: the sender asked
    /// for it, or the request streams and so owns the connection to its
    /// end. Decided once, where the event loop stops reading the
    /// connection, and the only `close` anything downstream consults — the
    /// response's `Connection` header and the socket can never disagree.
    pub(super) close: bool,
    /// Microseconds the final (completing) parse pass took; the `parse`
    /// stage of the request's trace.
    pub(super) parse_micros: u64,
    /// When the job entered the worker queue; the gap to worker pickup is
    /// the `queue_wait` stage.
    pub(super) enqueued: Instant,
    /// Source IP, the admission queue's fairness unit.
    pub(super) client: Option<IpAddr>,
    /// Admission priority scanned from the request body (`"priority"`);
    /// higher pops first. Defaults to 0.
    pub(super) priority: i64,
    /// Absolute admission deadline derived from the body's `"deadline_ms"`;
    /// earlier pops first among equal priorities, and a later deadline is
    /// shed first under overload.
    pub(super) deadline: Option<Instant>,
}

/// One request waiting for a worker, with its admission bookkeeping.
struct Waiting {
    job: Job,
    /// Monotone admission counter; the final tie-breaker for both pop
    /// (oldest first) and shed (newest first).
    arrival: u64,
}

impl Waiting {
    /// The job's deadline as a sort key: "no deadline" — `(true, _)` — ranks
    /// after every real one.
    fn deadline_key(&self) -> (bool, Option<Instant>) {
        (self.job.deadline.is_none(), self.job.deadline)
    }
}

/// State behind the [`AdmissionQueue`] lock.
struct AdmissionState {
    waiting: Vec<Waiting>,
    /// Requests handed to workers so far, per client — the fairness
    /// account: the client with the fewest served requests pops first.
    served: HashMap<Option<IpAddr>, u64>,
    arrivals: u64,
    closed: bool,
}

/// What [`AdmissionQueue::offer`] did with a parsed request.
pub(super) enum OfferOutcome {
    /// The request is waiting for a worker. Admitting into a full queue
    /// evicts the least valuable waiting request — lowest priority first,
    /// then the client holding the most queue slots, then the latest
    /// deadline (no deadline sorts latest), then the newest arrival —
    /// returned here so the event loop can answer it with `429`.
    Admitted { shed: Option<Job> },
    /// The server is shutting down; the job was dropped unserved.
    Closed,
}

/// Deadline/priority-aware bounded admission queue between the event loop
/// and the worker pool.
///
/// Pop order: fewest-served client first (round-robin fairness across
/// source IPs), then highest priority, then earliest deadline (none sorts
/// last), then oldest arrival. Overload sheds the least valuable waiting
/// request (see [`OfferOutcome::Admitted`]).
pub(super) struct AdmissionQueue {
    state: Mutex<AdmissionState>,
    available: Condvar,
    capacity: usize,
    transport: Arc<TransportMetrics>,
}

impl AdmissionQueue {
    pub(super) fn new(capacity: usize, transport: Arc<TransportMetrics>) -> Self {
        AdmissionQueue {
            state: Mutex::new(AdmissionState {
                waiting: Vec::new(),
                served: HashMap::new(),
                arrivals: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            transport,
        }
    }

    pub(super) fn offer(&self, job: Job) -> OfferOutcome {
        let mut state = self.state.lock().expect("admission lock");
        if state.closed {
            return OfferOutcome::Closed;
        }
        let arrival = state.arrivals;
        state.arrivals += 1;
        state.waiting.push(Waiting { job, arrival });
        let shed = if state.waiting.len() > self.capacity {
            // Least valuable first: lowest priority, then the client
            // hogging the most slots, then the latest deadline, then the
            // newest arrival. (The newcomer itself is a candidate — a
            // low-priority late-deadline arrival into a queue of urgent
            // work sheds itself.)
            let mut share: HashMap<Option<IpAddr>, usize> = HashMap::new();
            for w in &state.waiting {
                *share.entry(w.job.client).or_insert(0) += 1;
            }
            let least_valuable = |w: &Waiting| {
                let share = share[&w.job.client];
                (Reverse(w.job.priority), share, w.deadline_key(), w.arrival)
            };
            let victim = (0..state.waiting.len())
                .max_by_key(|&index| least_valuable(&state.waiting[index]))
                .expect("non-empty waiting list");
            Some(state.waiting.swap_remove(victim).job)
        } else {
            None
        };
        self.transport
            .admission_queue_depth
            .store(state.waiting.len() as u64, Relaxed);
        drop(state);
        self.available.notify_one();
        OfferOutcome::Admitted { shed }
    }

    /// Blocks until a request is available (or `None` after [`close`] once
    /// the queue has drained) and returns the most urgent waiting request.
    pub(super) fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission lock");
        loop {
            if let Some(index) = Self::select(&state) {
                let picked = state.waiting.swap_remove(index);
                *state.served.entry(picked.job.client).or_insert(0) += 1;
                self.transport
                    .admission_queue_depth
                    .store(state.waiting.len() as u64, Relaxed);
                self.transport
                    .admission_wait
                    .observe_micros(picked.job.enqueued.elapsed().as_micros() as u64);
                return Some(picked.job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("admission lock");
        }
    }

    /// Index of the most urgent waiting request: fewest-served client,
    /// then highest priority, then earliest deadline, then oldest arrival.
    fn select(state: &AdmissionState) -> Option<usize> {
        let most_urgent = |w: &Waiting| {
            let served = state.served.get(&w.job.client).copied().unwrap_or(0);
            (served, Reverse(w.job.priority), w.deadline_key(), w.arrival)
        };
        (0..state.waiting.len()).min_by_key(|&index| most_urgent(&state.waiting[index]))
    }

    /// Marks the queue closed and wakes every worker; waiting requests
    /// still drain before `pop` starts returning `None`.
    pub(super) fn close(&self) {
        let mut state = self.state.lock().expect("admission lock");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }
}
