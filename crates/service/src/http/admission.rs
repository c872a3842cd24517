//! The pop/shed policy between the event loop and the worker pool.
//!
//! This module owns one decision: *which waiting request runs next, and
//! which one is turned away when the queue is full*. Pop order is
//! fewest-served client first (round-robin fairness across source IPs), then
//! highest priority, then earliest deadline, then oldest arrival; a full
//! queue sheds the *least valuable* waiting request — lowest priority,
//! largest queue share, latest deadline — instead of refusing the newest
//! arrival. The event loop answers the victim with `429` + `Retry-After`,
//! through the same books as any other answer.

use super::parse::{scan_json_integer, ParsedRequest};
use crate::inflight::HandedBooks;
use crate::metrics::TransportMetrics;
use crate::service::Probe;
use crate::wire::SearchRequest;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One request the event loop read: which connection, which slot in its
/// response order, and the request itself.
pub(super) struct Ticket {
    pub(super) token: u64,
    pub(super) seq: u64,
    pub(super) request: ParsedRequest,
    /// The connection closes after this request's response (the sender
    /// asked, the request streams, or its bytes were refused): decided once,
    /// by the event loop, and the only `close` the response's `Connection`
    /// header consults.
    pub(super) close: bool,
    /// When the event loop read the bytes that completed the request: its
    /// arrival, from which its books' clock and its `deadline_ms` count, in
    /// the admission queue and in the search alike.
    pub(super) received: Instant,
    /// Source IP, the admission queue's fairness unit.
    pub(super) client: Option<IpAddr>,
}

/// A unit of work for the pool: a request, the books the event loop opened
/// for it, and what the loop already learnt about it.
pub(super) struct Job {
    pub(super) ticket: Ticket,
    /// The request's books (the `parse` stage and any the loop's probe
    /// timed, the trace ID and the clock), off every thread until a worker
    /// takes them over.
    pub(super) books: HandedBooks,
    /// The event loop's probe of a search that missed: the worker finishes
    /// the search from there.
    pub(super) probed: Option<Box<Probed>>,
    /// When [`AdmissionQueue::offer`] took the job (after any probe); the
    /// gap to worker pickup, or to a shed, is the `queue_wait` stage.
    pub(super) enqueued: Instant,
    /// The body's `"priority"` (default 0) and `received` plus its
    /// `"deadline_ms"`: the admission hints.
    pub(super) priority: i64,
    pub(super) deadline: Option<Instant>,
}

impl Job {
    /// The job for `ticket`, its books and probe, with the admission hints
    /// read from its body. Its deadline counts from its arrival, as the
    /// search's does.
    pub(super) fn new(ticket: Ticket, books: HandedBooks, probed: Option<Probed>) -> Self {
        let hint = |name| scan_json_integer(&ticket.request.body, name);
        Job {
            priority: hint("priority").unwrap_or(0),
            deadline: (hint("deadline_ms").filter(|&ms| ms >= 0))
                .map(|ms| ticket.received + Duration::from_millis(ms as u64)),
            enqueued: ticket.received,
            books,
            probed: probed.map(Box::new),
            ticket,
        }
    }
}

/// A search the event loop took as far as its cache lookup, which missed:
/// the decoded request and its probe (the canonical labeling and the cache
/// key).
pub(super) struct Probed {
    pub(super) request: SearchRequest,
    pub(super) probe: Probe,
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
    /// Requests handed to workers per client, counted only while that
    /// client still has a request waiting — the fairness account: the
    /// client with the fewest served requests pops first. A client whose
    /// last waiting request leaves the queue drops out, so a newcomer and a
    /// returning client start level and the map holds at most one entry per
    /// waiting request.
    served: HashMap<Option<IpAddr>, u64>,
    arrivals: u64,
    closed: bool,
}

impl AdmissionState {
    /// Drops `client`'s fairness count once it has no request waiting.
    fn forget_if_idle(&mut self, client: Option<IpAddr>) {
        if !self.waiting.iter().any(|w| w.job.ticket.client == client) {
            self.served.remove(&client);
        }
    }
}

/// What [`AdmissionQueue::offer`] did with a parsed request.
pub(super) enum OfferOutcome {
    /// The request is waiting for a worker; admitting into a full queue
    /// evicts the least valuable waiting request, returned here so the
    /// event loop can answer it with `429`.
    Admitted { shed: Option<Box<Job>> },
    /// The server is shutting down; the job was dropped unserved.
    Closed,
}

/// Deadline/priority-aware bounded admission queue between the event loop
/// and the worker pool, ordered as the module header says.
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

    pub(super) fn offer(&self, mut job: Job) -> OfferOutcome {
        job.enqueued = Instant::now();
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
                *share.entry(w.job.ticket.client).or_insert(0) += 1;
            }
            let least_valuable = |w: &Waiting| {
                let share = share[&w.job.ticket.client];
                (Reverse(w.job.priority), share, w.deadline_key(), w.arrival)
            };
            let victim = (0..state.waiting.len())
                .max_by_key(|&index| least_valuable(&state.waiting[index]))
                .expect("non-empty waiting list");
            let victim = state.waiting.swap_remove(victim).job;
            state.forget_if_idle(victim.ticket.client);
            Some(Box::new(victim))
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
                *state.served.entry(picked.job.ticket.client).or_insert(0) += 1;
                state.forget_if_idle(picked.job.ticket.client);
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
            let served = state.served.get(&w.job.ticket.client).copied().unwrap_or(0);
            (served, Reverse(w.job.priority), w.deadline_key(), w.arrival)
        };
        (0..state.waiting.len()).min_by_key(|&index| most_urgent(&state.waiting[index]))
    }

    /// Clients with a fairness count (at most one per waiting request).
    #[cfg(test)]
    pub(super) fn counted_clients(&self) -> usize {
        self.state.lock().expect("admission lock").served.len()
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
