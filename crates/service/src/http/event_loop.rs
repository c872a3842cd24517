//! The single-threaded readiness loop that owns every socket.
//!
//! This module owns one decision: *when bytes move* — which connections are
//! read, when a buffered request is parsed and offered to admission, in what
//! order finished responses reach the wire, and when a connection is closed.
//! The listener, a wakeup pipe and every connection sit in one
//! level-triggered `Poller`, so thousands of idle keep-alive clients cost one
//! sleeping thread. Each [`Conn`] reads and writes incrementally — a slow or
//! malicious peer can never stall the loop — and pipelined responses are
//! reordered to request order. Workers answer through [`Completions`]; idle
//! connections (slow-loris peers included) are swept after the idle timeout.

use super::admission::{AdmissionQueue, Job, OfferOutcome};
use super::parse::{parse_request, scan_json_integer, ParseCursor};
use super::reply::encode_response;
use super::route::{error_response, split_target, stream_requested};
use super::ServerConfig;
use crate::inflight::Stage;
use crate::metrics::{ServiceMetrics, TransportMetrics};
use crate::service::ScheduleService;
use crate::sys::{Event, Interest, Poller};
use crate::wire::{FlightRecordInfo, StageTimingInfo};
use std::collections::{BTreeMap, HashMap};
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Unflushed response bytes beyond which a connection stops being read
/// (resumed once the peer drains its side).
const WRITE_BACKPRESSURE_BYTES: usize = 256 * 1024;
/// Reads drained from one connection per readiness event before yielding to
/// the other connections (level-triggered epoll re-arms automatically).
const READS_PER_EVENT: usize = 16;

/// Event-loop registration token of the listener socket.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop registration token of the wakeup pipe.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// A finished response (or response fragment) travelling back to the event
/// loop.
#[derive(Debug)]
pub(super) struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
    /// This completion finishes its request slot. Streaming responses send
    /// many `fin: false` fragments (head, incumbent events) before one final
    /// `fin: true` completion; everything else is a single `fin: true`.
    fin: bool,
    /// The fragment may be discarded when the connection's unflushed write
    /// backlog passes [`WRITE_BACKPRESSURE_BYTES`] — used for lossy
    /// incumbent events, never for heads or terminal frames (which are
    /// always `droppable: false`, and a droppable fragment is never `fin`).
    droppable: bool,
    /// Flight-recorder entry finalized once the event loop's write pass has
    /// run for this response (`None` for transport-level error responses).
    pub(super) flight: Option<Box<PendingFlight>>,
}

impl Completion {
    /// An ordinary single-shot response: finishes the slot, never dropped.
    pub(super) fn full(token: u64, seq: u64, bytes: Vec<u8>, close: bool) -> Self {
        Completion {
            token,
            seq,
            bytes,
            close,
            fin: true,
            droppable: false,
            flight: None,
        }
    }

    /// One fragment of a streaming response: leaves the slot and the
    /// connection open. `droppable` marks a lossy incumbent event.
    pub(super) fn fragment(token: u64, seq: u64, bytes: Vec<u8>, droppable: bool) -> Self {
        Completion {
            fin: false,
            droppable,
            ..Completion::full(token, seq, bytes, false)
        }
    }
}

/// A worker-built flight record waiting for its `write` stage: the event
/// loop stamps `created.elapsed()` after flushing the response and deposits
/// the record. This measures completion-to-write-pass, an approximation of
/// time-to-wire that never blocks on a slow peer draining the socket.
#[derive(Debug)]
pub(super) struct PendingFlight {
    pub(super) service: Arc<ScheduleService>,
    pub(super) record: FlightRecordInfo,
    pub(super) created: Instant,
}

/// The way back to the event loop, shared by every worker (and by the
/// solver-thread callbacks of a streaming search): completions queue here,
/// and a byte down the wakeup pipe rouses the loop.
#[derive(Debug)]
pub(super) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: PipeWriter,
}

impl Completions {
    /// Queues a completion and rouses the event loop. One wakeup byte per
    /// completion; the loop drains in batches, so a full (64 KiB) pipe is
    /// unreachable in practice and a short block here is harmless anyway.
    pub(super) fn push(&self, completion: Completion) {
        self.queue.lock().expect("completion lock").push(completion);
        self.wake();
    }

    /// Rouses the event loop (on its own, how shutdown interrupts the wait).
    pub(super) fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    read_buf: Vec<u8>,
    /// Incremental-parse progress over `read_buf` (head scan + chunked-body
    /// decode).
    cursor: ParseCursor,
    /// Encoded responses waiting for the socket.
    write_buf: Vec<u8>,
    /// `write_buf` prefix already written.
    written: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number whose response goes out next (pipelined responses are
    /// reordered to request order).
    next_to_send: u64,
    /// Response bytes per sequence number that cannot be written yet (out of
    /// order, or an in-progress stream). The flag marks the slot finished;
    /// an unfinished slot forwards bytes but holds its place in the order.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched but not yet completed.
    in_flight: usize,
    /// Last socket activity, for the idle-timeout sweep.
    last_activity: Instant,
    /// No further requests are accepted; close once everything is flushed.
    draining: bool,
    /// The peer closed its sending half.
    peer_closed: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Source IP: the per-IP accept cap's and admission's fairness unit.
    peer_ip: IpAddr,
}

impl Conn {
    fn new(stream: TcpStream, peer_ip: IpAddr) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            cursor: ParseCursor::default(),
            write_buf: Vec::new(),
            written: 0,
            next_seq: 0,
            next_to_send: 0,
            pending: BTreeMap::new(),
            in_flight: 0,
            last_activity: Instant::now(),
            draining: false,
            peer_closed: false,
            interest: Interest::READABLE,
            peer_ip,
        }
    }

    /// Opens the next response slot — for a parsed request, or for the `400`
    /// that answers an unparseable one — and returns its sequence number.
    fn open_slot(&mut self, transport: &TransportMetrics) -> u64 {
        self.in_flight += 1;
        if self.in_flight == 1 {
            transport.connections_idle.fetch_sub(1, Relaxed);
        }
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn flushed(&self) -> bool {
        self.written == self.write_buf.len()
    }

    fn idle(&self) -> bool {
        self.in_flight == 0
    }

    /// The interest this connection should be registered with right now.
    fn wanted_interest(&self, max_pipelined: usize) -> Interest {
        let backpressured = self.write_buf.len() - self.written >= WRITE_BACKPRESSURE_BYTES;
        Interest {
            readable: !self.draining
                && !self.peer_closed
                && self.in_flight < max_pipelined
                && !backpressured,
            writable: !self.flushed(),
        }
    }
}

/// The single-threaded readiness loop that owns every socket.
pub(super) struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: PipeReader,
    conns: HashMap<u64, Conn>,
    /// Open connections per source IP (entries removed at zero).
    per_ip: HashMap<IpAddr, usize>,
    next_token: u64,
    admission: Arc<AdmissionQueue>,
    completions: Arc<Completions>,
    transport: Arc<TransportMetrics>,
    stop: Arc<AtomicBool>,
    idle_timeout: Duration,
    max_pipelined: usize,
    /// Open connections allowed per source IP (`0` = unlimited).
    max_conns_per_ip: usize,
    /// Lower bound on the earliest idle-connection deadline, maintained in
    /// O(1) as connections go idle. Activity only pushes real deadlines
    /// later, so a sweep scheduled from this bound can fire early (and find
    /// nothing) but never late. `None` means no idle connection exists.
    /// This keeps the per-event work O(events), not O(connections) — the
    /// full scan happens only when the bound actually elapses.
    idle_deadline: Option<Instant>,
}

impl EventLoop {
    /// Registers `listener` and a fresh wakeup pipe with a new poller. The
    /// loop does nothing until [`EventLoop::run`]; the returned
    /// [`Completions`] is the writing end workers answer through.
    pub(super) fn new(
        listener: TcpListener,
        config: &ServerConfig,
        admission: Arc<AdmissionQueue>,
        transport: Arc<TransportMetrics>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<(Self, Arc<Completions>)> {
        listener.set_nonblocking(true)?;
        let (wake_rx, waker) = std::io::pipe()?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        });
        let event_loop = EventLoop {
            poller,
            listener,
            wake_rx,
            conns: HashMap::new(),
            per_ip: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            admission,
            completions: completions.clone(),
            transport,
            stop,
            idle_timeout: config.idle_timeout,
            max_pipelined: config.max_pipelined.max(1),
            max_conns_per_ip: config.max_conns_per_ip,
            idle_deadline: None,
        };
        Ok((event_loop, completions))
    }

    /// Serves until the stop flag is raised, then closes every connection
    /// and the admission queue.
    pub(super) fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.stop.load(Relaxed) {
                break;
            }
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        // The pipe is readable, so one read returns whatever
                        // bytes are queued without blocking; leftovers re-arm
                        // the (level-triggered) poller for the next iteration.
                        let _ = self.wake_rx.read(&mut [0u8; 1024]);
                        self.apply_completions();
                    }
                    token => {
                        if event.hangup {
                            // The connection is dead in both directions (or
                            // errored); dropping the fd is the only way to
                            // consume the level-triggered condition. Any
                            // in-flight response is undeliverable anyway and
                            // is dropped when its completion finds no
                            // connection.
                            self.close_conn(token);
                            continue;
                        }
                        if event.readable {
                            self.conn_readable(token);
                        }
                        if event.writable {
                            self.flush(token);
                        }
                    }
                }
            }
            if self
                .idle_deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                self.sweep_idle();
            }
        }
        // Shutdown: close every connection and the admission queue so the
        // workers drain and exit.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        self.admission.close();
    }

    /// The wait timeout: time until the (lower bound on the) earliest idle
    /// deadline, if any connection is idle.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.idle_deadline
            .map(|deadline| deadline.saturating_duration_since(now))
    }

    /// Notes that a connection went idle now: the next sweep must happen no
    /// later than one idle timeout from now.
    fn note_idle(&mut self) {
        let candidate = Instant::now() + self.idle_timeout;
        let earliest = self
            .idle_deadline
            .map_or(candidate, |set| set.min(candidate));
        self.idle_deadline = Some(earliest);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let ip = peer.ip();
                    if self.max_conns_per_ip > 0
                        && self.per_ip.get(&ip).copied().unwrap_or(0) >= self.max_conns_per_ip
                    {
                        // Dropping the stream closes it: the cheapest
                        // possible rejection, before any read or parse work.
                        self.transport.rejected_per_ip.fetch_add(1, Relaxed);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let readable = Interest::READABLE;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, readable)
                        .is_err()
                    {
                        continue;
                    }
                    *self.per_ip.entry(ip).or_insert(0) += 1;
                    self.conns.insert(token, Conn::new(stream, ip));
                    self.transport.connections_open.fetch_add(1, Relaxed);
                    self.transport.connections_idle.fetch_add(1, Relaxed);
                    self.transport.connections_accepted.fetch_add(1, Relaxed);
                    self.note_idle();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // `WouldBlock`: the backlog is drained.
                Err(_) => break,
            }
        }
    }

    fn apply_completions(&mut self) {
        let batch = std::mem::take(&mut *self.completions.queue.lock().expect("completion lock"));
        let mut tokens: Vec<u64> = Vec::new();
        for completion in batch {
            if !tokens.contains(&completion.token) {
                tokens.push(completion.token);
            }
            self.deliver(completion);
        }
        // Completions freed pipelining capacity: parse any requests already
        // sitting in the read buffer. Without this, a client that pipelined
        // past `max_pipelined` in one burst and then went quiet would never
        // get the tail served — epoll only fires on new *socket* data, not
        // on bytes already buffered in user space.
        for token in tokens {
            self.parse_ready(token);
            self.update_interest(token);
        }
    }

    /// Records a finished response (or streaming fragment) for `seq`, moves
    /// every byte that is now in request order into the write buffer,
    /// flushes what the socket accepts, then finalizes the request's
    /// flight-recorder entry (the `write` stage is the
    /// worker-completion-to-write-pass gap).
    fn deliver(&mut self, completion: Completion) {
        let (token, fin) = (completion.token, completion.fin);
        if let Some(conn) = self.conns.get_mut(&token) {
            // Lossy fragments (incumbent events) are discarded when the
            // peer is not draining its socket, so a stalled stream consumer
            // costs bounded memory. `fin` bookkeeping below still runs —
            // droppable fragments are never `fin` by construction.
            let backlogged = conn.write_buf.len() - conn.written >= WRITE_BACKPRESSURE_BYTES;
            if !(completion.droppable && backlogged) {
                let slot = conn.pending.entry(completion.seq).or_default();
                slot.0.extend_from_slice(&completion.bytes);
                slot.1 |= fin;
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
            // Drain in request order. An unfinished slot (an in-progress
            // stream) forwards the bytes it has and stays put, blocking
            // later responses until its terminal fragment arrives.
            while let Some(slot) = conn.pending.get_mut(&conn.next_to_send) {
                conn.write_buf.append(&mut slot.0);
                if !slot.1 {
                    break;
                }
                conn.pending.remove(&conn.next_to_send);
                conn.next_to_send += 1;
            }
            if became_idle {
                self.note_idle();
            }
            self.flush(token);
        }
        // The record is deposited even when the connection is gone: the
        // request *was* served, and the trace is most interesting exactly
        // when the client gave up waiting for it.
        if let Some(pending) = completion.flight {
            let pending = *pending;
            let write_micros = pending.created.elapsed().as_micros() as u64;
            let mut record = pending.record;
            record.total_micros += write_micros;
            record.stages.push(StageTimingInfo {
                name: Stage::Write.name().to_string(),
                micros: write_micros,
            });
            let (path, _query) = split_target(&record.path);
            let label = ServiceMetrics::endpoint_label(path);
            let metrics = pending.service.metrics();
            metrics.observe_endpoint_micros(label, record.total_micros);
            metrics.observe_stage(Stage::Write, write_micros);
            pending.service.record_flight(record);
        }
    }

    /// Writes as much of the connection's write buffer as the socket
    /// accepts, then closes (if draining and done) or re-arms interest.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut should_close = false;
        while !conn.flushed() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(n) if n > 0 => {
                    conn.written += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => {
                    should_close = true;
                    break;
                }
            }
        }
        if !should_close && conn.flushed() {
            conn.write_buf.clear();
            conn.written = 0;
            should_close =
                (conn.draining || conn.peer_closed) && conn.idle() && conn.pending.is_empty();
        }
        if should_close {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.interest.readable {
            // Stale readiness after reads were paused; ignore.
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        for _ in 0..READS_PER_EVENT {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                // Note: receiving bytes does NOT refresh `last_activity`.
                // Only a *completed* request (see `parse_ready`) or a
                // response write counts as activity, so a slow-loris peer
                // trickling an incomplete head forever is still reaped by
                // the idle sweep.
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.close_conn(token),
            }
        }
        self.parse_ready(token);
        // Closes a connection the peer has left with nothing owed to it;
        // re-arms interest otherwise.
        self.flush(token);
    }

    /// Parses every complete request sitting in the read buffer (up to the
    /// pipelining cap) and dispatches each to the worker pool.
    fn parse_ready(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.draining || conn.in_flight >= self.max_pipelined {
                return;
            }
            // Only the completing pass is timed: a request trickling in
            // across many read events re-enters here per event, but the
            // `parse` stage records the cost of the scan that produced the
            // request, not the waiting in between.
            let parse_started = Instant::now();
            let (request, consumed) = match parse_request(&conn.read_buf, &mut conn.cursor) {
                Ok(None) => return,
                Ok(Some(parsed)) => parsed,
                Err(message) => {
                    let seq = conn.open_slot(&self.transport);
                    let response = error_response(400, "bad_request", &message);
                    let bytes = encode_response(&response, false, |_| {});
                    self.deliver(Completion::full(token, seq, bytes, true));
                    return;
                }
            };
            conn.read_buf.drain(..consumed);
            conn.cursor = ParseCursor::default();
            conn.last_activity = Instant::now();
            if conn.next_seq > 0 {
                self.transport.keepalive_reuses.fetch_add(1, Relaxed);
            }
            if conn.in_flight > 0 {
                self.transport.pipelined_requests.fetch_add(1, Relaxed);
            }
            let seq = conn.open_slot(&self.transport);
            // A streaming response owns the connection until its terminal
            // frame; stop parsing further pipelined requests behind it. This
            // is the one place a request's `close` is decided — whatever
            // answers the job (worker, shed, a 400 for an undecodable body)
            // says `Connection: close` exactly when the loop will close.
            let close = request.close || stream_requested(&request);
            conn.draining |= close;
            let parse_micros = parse_started.elapsed().as_micros() as u64;
            let client = Some(conn.peer_ip);
            let priority = scan_json_integer(&request.body, "priority").unwrap_or(0);
            let deadline = scan_json_integer(&request.body, "deadline_ms")
                .filter(|&ms| ms >= 0)
                .map(|ms| Instant::now() + Duration::from_millis(ms as u64));
            let job = Job {
                token,
                seq,
                request,
                close,
                parse_micros,
                enqueued: Instant::now(),
                client,
                priority,
                deadline,
            };
            match self.admission.offer(job) {
                OfferOutcome::Admitted { shed: None } => {}
                OfferOutcome::Admitted { shed: Some(victim) } => {
                    // Overload: the least valuable *waiting* request is
                    // answered with 429 + Retry-After so the newcomer (or a
                    // more urgent waiter) keeps its slot.
                    self.transport.admission_shed.fetch_add(1, Relaxed);
                    let response = error_response(
                        429,
                        "overloaded",
                        "shed by admission control: retry shortly",
                    );
                    let bytes = encode_response(&response, !victim.close, |head| {
                        head.push_str("Retry-After: 1\r\n")
                    });
                    self.deliver(Completion::full(
                        victim.token,
                        victim.seq,
                        bytes,
                        victim.close,
                    ));
                }
                OfferOutcome::Closed => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wanted = conn.wanted_interest(self.max_pipelined);
        if wanted != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, wanted)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            conn.interest = wanted;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(conn.stream.as_raw_fd());
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
            // `conn.stream` drops here, closing the socket.
        }
    }

    /// Closes connections whose idle deadline has passed.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) >= self.idle_timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.transport.idle_closed.fetch_add(1, Relaxed);
            self.close_conn(token);
        }
        // This sweep is the one place the exact earliest deadline is
        // recomputed; between sweeps `idle_deadline` is maintained as a
        // cheap lower bound.
        self.idle_deadline = self
            .conns
            .values()
            .filter(|c| c.idle())
            .map(|c| c.last_activity + self.idle_timeout)
            .min();
    }
}
