//! The event loop's decisions, without a socket.
//!
//! This module owns one decision: *when bytes move and where a request is
//! answered* — when a buffered request is parsed, whether the loop or the
//! pool answers it, in what order responses reach the wire, and when a
//! connection closes. [`LoopCore`] takes events (an accept, bytes read,
//! bytes written, worker completions, a tick) and returns [`Action`]s for
//! the shell in `event_loop`. It holds no fd and reads no clock: each event
//! brings its `now`, from which the idle sweep, a request's arrival and the
//! `write` stage count. The `checker` test module plays it against the real
//! service over every interleaving of a small script.

use super::admission::{AdmissionQueue, OfferOutcome, Ticket};
use super::parse::{parse_request, ParseCursor, ParsedRequest};
use super::reply::{shed, Reply};
use super::route::{error_response, is_search, split_target, stream_requested};
use super::ServerConfig;
use crate::inflight::{self, Stage};
use crate::metrics::{ServiceMetrics, TransportMetrics};
use crate::service::ScheduleService;
use crate::wire::{FlightRecordInfo, StageTimingInfo};
use core::net::IpAddr;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

#[cfg(test)]
mod checker;

/// Unflushed response bytes beyond which a connection stops being read
/// (resumed once the peer drains its side).
const WRITE_BACKPRESSURE_BYTES: usize = 256 * 1024;
/// Largest request body the event loop probes itself; larger searches go to
/// the pool. Four times the benchmark's largest hit (X over 4 devices,
/// 1.9 KB); X over 16 devices (7.2 KB) probes in about 0.4 ms on a 2-vCPU
/// host, and canonicalization grows much faster than the body.
const LOOP_PROBE_MAX_BODY_BYTES: usize = 8 * 1024;

/// A finished response (or stream fragment) on its way to the event loop.
#[derive(Debug)]
pub(super) struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
    /// A lossy incumbent event, dropped past [`WRITE_BACKPRESSURE_BYTES`] of
    /// unflushed backlog.
    droppable: bool,
    /// The response's flight record, on the completion that finishes its
    /// request slot: a stream sends its head and incumbent events as
    /// fragments without one first.
    pub(super) flight: Option<Box<PendingFlight>>,
}

impl Completion {
    /// The terminal completion of `ticket`'s response, carrying its flight
    /// record: built only by `Reply::finish`, so every response has one.
    pub(super) fn terminal(ticket: &Ticket, bytes: Vec<u8>, flight: PendingFlight) -> Self {
        Completion {
            token: ticket.token,
            seq: ticket.seq,
            bytes,
            close: ticket.close,
            droppable: false,
            flight: Some(Box::new(flight)),
        }
    }

    /// One fragment of a streaming response; `droppable` marks an incumbent.
    pub(super) fn fragment(token: u64, seq: u64, bytes: Vec<u8>, droppable: bool) -> Self {
        Completion {
            token,
            seq,
            bytes,
            close: false,
            droppable,
            flight: None,
        }
    }
}

/// A flight record waiting for its `write` stage: the gap from `created`
/// (the response encoded) to the first write pass that offers its bytes to
/// the socket, so a response held behind an earlier pipelined one waits
/// inside it. Time-to-wire that never blocks on a slow peer.
#[derive(Debug)]
pub(super) struct PendingFlight {
    pub(super) record: FlightRecordInfo,
    pub(super) created: Instant,
}

impl PendingFlight {
    /// Adds the `write` stage, which ended at `written`, and deposits the
    /// record — also for a connection that is gone: the request was served.
    fn deposit(self, service: &ScheduleService, written: Instant) {
        let write_micros = written.saturating_duration_since(self.created).as_micros() as u64;
        let mut record = self.record;
        record.total_micros += write_micros;
        record.stages.push(StageTimingInfo {
            name: Stage::Write.name().to_string(),
            micros: write_micros,
        });
        let (path, _query) = split_target(&record.path);
        let label = ServiceMetrics::endpoint_label(path);
        let metrics = service.metrics();
        metrics.observe_endpoint_micros(label, record.total_micros);
        metrics.observe_stage(Stage::Write, write_micros);
        service.record_flight(record);
    }
}

/// The readiness a connection's socket is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Want {
    pub(super) read: bool,
    pub(super) write: bool,
}

/// What the shell must do, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Action {
    /// Offer [`LoopCore::unwritten`] to the socket, then report what it
    /// took with [`LoopCore::written`] (also when that is nothing).
    Write(u64),
    /// Register the socket for this readiness.
    Interest(u64, Want),
    /// Drop the socket; the core has forgotten the connection.
    Close(u64),
}

/// One request's response on its way into the write buffer.
#[derive(Default)]
struct Slot {
    bytes: Vec<u8>,
    /// The response's record, once it is complete; an unfinished slot (a
    /// stream) forwards its bytes but holds its place in the order.
    flight: Option<PendingFlight>,
}

/// Per-connection state machine.
struct Conn {
    /// Unparsed request bytes, and how far parsing has got through them.
    read_buf: Vec<u8>,
    cursor: ParseCursor,
    /// Encoded responses waiting for the socket.
    write_buf: Vec<u8>,
    /// Records of the responses in `write_buf`, deposited after the next
    /// write pass.
    flights: Vec<PendingFlight>,
    /// Sequence numbers of the next parsed request and of the response that
    /// goes out next: pipelined responses leave in request order.
    next_seq: u64,
    next_to_send: u64,
    /// Responses that cannot be written yet (out of order, or a stream).
    pending: BTreeMap<u64, Slot>,
    /// Requests dispatched but not yet completed.
    in_flight: usize,
    /// Last completed request or response write, for the idle sweep.
    last_activity: Instant,
    /// No further requests are accepted; close once everything is flushed.
    draining: bool,
    peer_closed: bool,
    interest: Want,
    /// Source IP: the per-IP accept cap's and admission's fairness unit.
    peer_ip: IpAddr,
}

impl Conn {
    /// Opens the next response slot (a request's, or a `400`'s).
    fn open_slot(&mut self, transport: &TransportMetrics) -> u64 {
        self.in_flight += 1;
        if self.in_flight == 1 {
            transport.connections_idle.fetch_sub(1, Relaxed);
        }
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn backlogged(&self) -> bool {
        self.write_buf.len() >= WRITE_BACKPRESSURE_BYTES
    }

    fn idle(&self) -> bool {
        self.in_flight == 0
    }
}

/// The event loop's state and decisions; see the module header.
pub(super) struct LoopCore {
    conns: HashMap<u64, Conn>,
    /// Open connections per source IP (entries removed at zero).
    per_ip: HashMap<IpAddr, usize>,
    next_token: u64,
    admission: Arc<AdmissionQueue>,
    service: Arc<ScheduleService>,
    transport: Arc<TransportMetrics>,
    /// `workers`, `max_pipelined`, `idle_timeout`, `max_conns_per_ip`.
    config: ServerConfig,
    /// Events in the readiness batch being handled.
    batch_events: usize,
    /// Jobs handed to the pool whose terminal completion has not come back:
    /// waiting in the admission queue or held by a worker.
    at_pool: usize,
    /// Lower bound on the earliest idle-connection deadline, kept in O(1) as
    /// connections go idle (activity only pushes real deadlines later): a
    /// sweep comes early, never late, and only then scans every connection.
    idle_deadline: Option<Instant>,
    actions: VecDeque<Action>,
}

impl LoopCore {
    pub(super) fn new(
        config: &ServerConfig,
        admission: &Arc<AdmissionQueue>,
        service: &Arc<ScheduleService>,
        transport: &Arc<TransportMetrics>,
    ) -> Self {
        let config = ServerConfig {
            workers: config.workers.max(1),
            max_pipelined: config.max_pipelined.max(1),
            ..config.clone()
        };
        LoopCore {
            conns: HashMap::new(),
            per_ip: HashMap::new(),
            next_token: 0,
            admission: admission.clone(),
            service: service.clone(),
            transport: transport.clone(),
            config,
            batch_events: 0,
            at_pool: 0,
            idle_deadline: None,
            actions: VecDeque::new(),
        }
    }

    /// The next thing the shell must do, oldest first.
    pub(super) fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// Starts a readiness batch of `events` events.
    pub(super) fn begin_batch(&mut self, events: usize) {
        self.batch_events = events;
    }

    /// A connection from `ip` was accepted, registered readable: its token,
    /// or `None` over the per-IP cap (the cheapest rejection: drop it).
    pub(super) fn accept(&mut self, ip: IpAddr, now: Instant) -> Option<u64> {
        let open = self.per_ip.entry(ip).or_insert(0);
        let cap = self.config.max_conns_per_ip;
        if cap > 0 && *open >= cap {
            self.transport.rejected_per_ip.fetch_add(1, Relaxed);
            return None;
        }
        *open += 1;
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn {
            read_buf: Vec::new(),
            cursor: ParseCursor::default(),
            write_buf: Vec::new(),
            flights: Vec::new(),
            next_seq: 0,
            next_to_send: 0,
            pending: BTreeMap::new(),
            in_flight: 0,
            last_activity: now,
            draining: false,
            peer_closed: false,
            interest: Want {
                read: true,
                write: false,
            },
            peer_ip: ip,
        };
        self.conns.insert(token, conn);
        self.transport.connections_open.fetch_add(1, Relaxed);
        self.transport.connections_idle.fetch_add(1, Relaxed);
        self.transport.connections_accepted.fetch_add(1, Relaxed);
        self.note_idle(now);
        Some(token)
    }

    /// Whether the socket may be read: readiness reported after reads were
    /// paused is stale.
    pub(super) fn reading(&self, token: u64) -> bool {
        (self.conns.get(&token)).is_some_and(|conn| conn.interest.read)
    }

    /// `bytes` arrived; none means the peer closed its sending half (it is
    /// still owed its responses). Bytes alone are not activity, so a
    /// slow-loris peer trickling a head forever is still swept.
    pub(super) fn received(&mut self, token: u64, bytes: &[u8], now: Instant) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.read_buf.extend_from_slice(bytes);
            conn.peer_closed |= bytes.is_empty();
            self.parse_ready(token, now);
            self.flush(token);
        }
    }

    /// The bytes a write pass offers the socket.
    pub(super) fn unwritten(&self, token: u64) -> &[u8] {
        (self.conns.get(&token)).map_or(&[], |conn| &conn.write_buf)
    }

    /// A write pass put `n` bytes on the wire at `now`: deposits the flight
    /// records waiting for it, then closes a connection that is draining or
    /// half-closed and owed nothing, or re-arms its interest.
    pub(super) fn written(&mut self, token: u64, n: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.write_buf.drain(..n);
        if n > 0 {
            conn.last_activity = now;
        }
        for flight in conn.flights.drain(..) {
            flight.deposit(&self.service, now);
        }
        let owed = !conn.write_buf.is_empty() || !conn.idle() || !conn.pending.is_empty();
        if (conn.draining || conn.peer_closed) && !owed {
            return self.hangup(token, now);
        }
        self.update_interest(token);
    }

    /// Workers finished `batch`; each connection touched then parses what
    /// its freed pipelining capacity allows (readiness would not report it).
    pub(super) fn completed(&mut self, batch: Vec<Completion>, now: Instant) {
        let mut tokens: Vec<u64> = Vec::new();
        for completion in batch {
            if !tokens.contains(&completion.token) {
                tokens.push(completion.token);
            }
            // Every job a worker takes ends in exactly one completion with
            // a flight record.
            self.at_pool -= usize::from(completion.flight.is_some());
            self.deliver(completion, now);
        }
        for token in tokens {
            self.parse_ready(token, now);
            self.update_interest(token);
        }
    }

    /// Closes the connections idle for the idle timeout by `now`; returns
    /// when the next sweep is due, if any connection is idle.
    pub(super) fn tick(&mut self, now: Instant) -> Option<Instant> {
        if self.idle_deadline.is_some_and(|due| now >= due) {
            let timeout = self.config.idle_timeout;
            let expired =
                |conn: &Conn| conn.idle() && now.duration_since(conn.last_activity) >= timeout;
            let expired: Vec<u64> = (self.conns.iter())
                .filter_map(|(&token, conn)| expired(conn).then_some(token))
                .collect();
            for token in expired {
                self.transport.idle_closed.fetch_add(1, Relaxed);
                self.hangup(token, now);
            }
            // The one place the exact earliest deadline is recomputed.
            self.idle_deadline = (self.conns.values())
                .filter_map(|conn| conn.idle().then_some(conn.last_activity + timeout))
                .min();
        }
        self.idle_deadline
    }

    /// Closes every connection and the admission queue (workers drain out).
    pub(super) fn shutdown(&mut self, now: Instant) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.hangup(token, now);
        }
        self.admission.close();
    }

    /// Forgets the connection and tells the shell to drop its socket; a
    /// response still owed is dropped when its completion finds none.
    pub(super) fn hangup(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.transport.connections_open.fetch_sub(1, Relaxed);
        if conn.idle() {
            self.transport.connections_idle.fetch_sub(1, Relaxed);
        }
        if let Some(count) = self.per_ip.get_mut(&conn.peer_ip) {
            *count -= 1;
            if *count == 0 {
                self.per_ip.remove(&conn.peer_ip);
            }
        }
        let held = conn.pending.into_values().filter_map(|slot| slot.flight);
        for flight in conn.flights.into_iter().chain(held) {
            flight.deposit(&self.service, now);
        }
        self.actions.push_back(Action::Close(token));
    }

    /// A connection went idle at `now`: sweep no later than a timeout on.
    fn note_idle(&mut self, now: Instant) {
        let due = now + self.config.idle_timeout;
        self.idle_deadline = Some(self.idle_deadline.map_or(due, |set| set.min(due)));
    }

    /// Asks the shell for a write pass on the connection, once.
    fn flush(&mut self, token: u64) {
        if !self.actions.contains(&Action::Write(token)) {
            self.actions.push_back(Action::Write(token));
        }
    }

    /// Re-registers the connection if the readiness it wants changed, unless
    /// a write pass is due: that knows how many bytes the socket took.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wanted = Want {
            read: !conn.draining
                && !conn.peer_closed
                && conn.in_flight < self.config.max_pipelined
                && !conn.backlogged(),
            write: !conn.write_buf.is_empty(),
        };
        if wanted != conn.interest && !self.actions.contains(&Action::Write(token)) {
            conn.interest = wanted;
            self.actions.push_back(Action::Interest(token, wanted));
        }
    }

    /// Slots a completion, moves every response now in request order (and
    /// its record) into the write buffer, and asks for a write pass.
    fn deliver(&mut self, completion: Completion, now: Instant) {
        let Some(conn) = self.conns.get_mut(&completion.token) else {
            if let Some(flight) = completion.flight {
                flight.deposit(&self.service, now);
            }
            return;
        };
        // A stalled stream consumer costs bounded memory: lossy fragments
        // (incumbent events) are dropped past the backlog cap.
        let fin = completion.flight.is_some();
        if !(completion.droppable && conn.backlogged()) {
            let slot = conn.pending.entry(completion.seq).or_default();
            slot.bytes.extend_from_slice(&completion.bytes);
            slot.flight = slot.flight.take().or(completion.flight.map(|f| *f));
        }
        let mut became_idle = false;
        if fin {
            conn.in_flight -= 1;
            became_idle = conn.idle();
            if became_idle {
                self.transport.connections_idle.fetch_add(1, Relaxed);
            }
            conn.draining |= completion.close;
        }
        // An unfinished slot (an in-progress stream) forwards what it has
        // and blocks later responses until its terminal fragment arrives.
        while let Some(mut slot) = conn.pending.first_entry() {
            if *slot.key() != conn.next_to_send {
                break;
            }
            conn.write_buf.append(&mut slot.get_mut().bytes);
            if slot.get().flight.is_none() {
                break;
            }
            conn.flights.extend(slot.remove().flight);
            conn.next_to_send += 1;
        }
        if became_idle {
            self.note_idle(now);
        }
        self.flush(completion.token);
    }

    /// Whether the loop probes `request` itself (and answers it on a hit)
    /// rather than handing it to the pool: a plain `POST /v1/search` of at
    /// most [`LOOP_PROBE_MAX_BODY_BYTES`], alone in its readiness batch,
    /// while the pool is idle (the hand-off is pure cost) or saturated (a
    /// hit would wait behind the solves: every worker holds a job, nobody
    /// queues). In between, an idle worker answers and the loop stays free.
    fn answers_itself(&self, request: &ParsedRequest) -> bool {
        let pool_idle = self.at_pool == 0;
        let queued = self.transport.admission_queue_depth.load(Relaxed);
        let pool_saturated = self.at_pool >= self.config.workers && queued == 0;
        self.batch_events == 1
            && (pool_idle || pool_saturated)
            && request.body.len() <= LOOP_PROBE_MAX_BODY_BYTES
            && is_search(request)
            && !stream_requested(request)
    }

    /// Parses every complete request buffered, up to the pipelining cap,
    /// and opens its books; each arrives at `now`, its books' and
    /// deadline's zero. Then it is answered here or handed to the pool.
    fn parse_ready(&mut self, token: u64, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.draining || conn.in_flight >= self.config.max_pipelined {
                return;
            }
            // Only the completing scan is timed: the `parse` stage is what
            // produced the request, not the wait for its last bytes.
            let (parsed, parse_micros) =
                inflight::timed(|| parse_request(&conn.read_buf, &mut conn.cursor));
            let (request, refusal) = match parsed {
                Ok(None) => return,
                Ok(Some((request, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    conn.cursor = ParseCursor::default();
                    conn.last_activity = now;
                    if conn.next_seq > 0 {
                        self.transport.keepalive_reuses.fetch_add(1, Relaxed);
                    }
                    if conn.in_flight > 0 {
                        self.transport.pipelined_requests.fetch_add(1, Relaxed);
                    }
                    (request, None)
                }
                // Refused bytes are answered with books of an empty request
                // line, and the connection closes.
                Err(message) => (ParsedRequest::default(), Some(message)),
            };
            let seq = conn.open_slot(&self.transport);
            // The one place a request's `close` is decided, so whatever
            // answers it says `Connection: close` exactly when the loop will
            // close. A stream owns the connection to its terminal frame.
            let close = refusal.is_some() || request.close || stream_requested(&request);
            conn.draining |= close;
            let client = Some(conn.peer_ip);
            let answer_here = self.answers_itself(&request);
            let ticket = Ticket {
                token,
                seq,
                request,
                close,
                received: now,
                client,
            };
            let reply = Reply::open(&self.service, ticket, parse_micros);
            if let Some(message) = refusal {
                let response = error_response(400, "bad_request", &message);
                return self.deliver(reply.single_shot(&response), now);
            }
            let job = if answer_here {
                match reply.on_loop() {
                    Ok(done) => {
                        // Straight into the connection's in-order write
                        // path: no completion queue, no wakeup byte.
                        self.transport.answered_on_loop.fetch_add(1, Relaxed);
                        self.deliver(done, now);
                        continue;
                    }
                    // A miss: a worker finishes it from the probe.
                    Err(missed) => *missed,
                }
            } else {
                reply.hand_over(None)
            };
            match self.admission.offer(job) {
                OfferOutcome::Admitted { shed: None } => self.at_pool += 1,
                // Overload: the least valuable waiting request is answered
                // with 429. One job came in and one left: `at_pool` stands.
                OfferOutcome::Admitted { shed: Some(victim) } => {
                    self.transport.admission_shed.fetch_add(1, Relaxed);
                    let answered = shed(&self.service, *victim);
                    self.deliver(answered, now);
                }
                OfferOutcome::Closed => return self.hangup(token, now),
            }
        }
    }
}
