//! A deterministic checker of the event loop's protocol.
//!
//! It drives a [`LoopCore`] with the real [`ScheduleService`], a real
//! [`AdmissionQueue`] and workers it steps itself ([`Worker::answer`], one
//! job at a time, on this thread), and plays every interleaving of a small
//! script: a few connections, each sending a few pipelined searches. A step
//! is one of: connection c's next request arrives; c's peer half-closes;
//! an idle worker pops a job; a busy worker finishes its job; the loop
//! applies the completions workers have queued. Each step is one readiness
//! batch, except that bytes arriving while completions are queued share a
//! batch with the wakeup pipe, which is readable by then. Sockets take
//! every byte they are offered. After every step the checker asserts the
//! protocol's invariants:
//!
//! * each request is answered exactly once, in per-connection order, with a
//!   status its kind allows (or `429`);
//! * the core's `at_pool` equals the jobs out at the pool: waiting in the
//!   admission queue, held by a worker, or finished but not yet applied;
//! * books close once: no request is left on the in-flight registry or on
//!   the thread between steps, and every response carrying a trace ID has
//!   exactly one flight record, whose total covers the sum of its stages;
//! * `requests = hits + misses + coalesced + failures` once everything is
//!   answered (`≥` before);
//! * every `429` carries `Retry-After`, and there is one per shed;
//! * the loop answers no hit while one worker is idle and another holds a
//!   job.
//!
//! When nothing is left to do, one tick an idle timeout later must close
//! every connection. The clock the core sees starts ten seconds in the past,
//! so a request with a one-second deadline has always outlived it when a
//! worker takes it on: it must answer `408` whoever probes it.
//!
//! [`small_bound_is_exhaustive`] plays every interleaving of the small
//! bound in tier-1 and prints how many it played. Seeded random walks cover
//! the deep bound (three connections of three requests, two workers):
//! `TESSEL_FUZZ_SEED=<seed> cargo test --release -p tessel-service --lib
//! checker -- --include-ignored --nocapture`. A failure prints the bound,
//! the seed and the schedule.

use super::super::admission::{AdmissionQueue, Job};
use super::super::event_loop::Completions;
use super::super::fuzz::{fuzz_seed, Rng};
use super::super::reply::Worker;
use super::*;
use crate::service::ServiceConfig;
use crate::wire::SearchRequest;
use tessel_placement::{synthetic_placement, ShapeKind};

/// What a scripted request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The placement the cache is warmed with.
    Hit,
    /// A placement the cache does not hold.
    Miss,
    /// A fresh placement whose body, padded past the loop's probe limit,
    /// only a worker probes, with a one-second deadline.
    Large,
    /// A fresh placement with `deadline_ms` 0.
    Expired,
    /// `Miss`'s placement at priority -1: the first to be shed.
    Cheap,
}

const KINDS: [Kind; 5] = [
    Kind::Hit,
    Kind::Miss,
    Kind::Large,
    Kind::Expired,
    Kind::Cheap,
];

impl Kind {
    /// The status a request of this kind must answer with, unless shed.
    fn status(self) -> u16 {
        match self {
            Kind::Hit | Kind::Miss | Kind::Cheap => 200,
            Kind::Large | Kind::Expired => 408,
        }
    }

    /// The request's bytes on the wire.
    fn wire(self) -> Vec<u8> {
        let (shape, devices) = match self {
            Kind::Hit => (ShapeKind::V, 2),
            Kind::Miss | Kind::Cheap => (ShapeKind::V, 3),
            Kind::Large => (ShapeKind::X, 2),
            Kind::Expired => (ShapeKind::M, 2),
        };
        let mut request = small_search(shape, devices);
        request.deadline_ms = match self {
            Kind::Large => Some(1000),
            Kind::Expired => Some(0),
            _ => None,
        };
        request.priority = (self == Kind::Cheap).then_some(-1);
        let mut body = serde_json::to_string(&request).expect("the request serialises");
        if self == Kind::Large {
            body.push_str(&" ".repeat(LOOP_PROBE_MAX_BODY_BYTES));
        }
        let head = format!(
            "POST /v1/search HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        [head.into_bytes(), body.into_bytes()].concat()
    }
}

/// A search of `devices` devices shaped `shape` that solves in a few
/// milliseconds.
fn small_search(shape: ShapeKind, devices: usize) -> SearchRequest {
    let mut request = SearchRequest::for_placement(synthetic_placement(shape, devices).unwrap());
    request.num_micro_batches = Some(2);
    request.max_repetend_micro_batches = Some(1);
    request
}

/// What the checker plays: one script per connection, the pool's size and
/// the admission queue's capacity, and whether peers half-close after
/// their last request.
#[derive(Debug, Clone)]
struct Bound {
    scripts: Vec<Vec<Kind>>,
    workers: usize,
    capacity: usize,
    half_close: bool,
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Connection c's next request arrives.
    Send(usize),
    /// Connection c's peer closes its sending half.
    HalfClose(usize),
    /// Idle worker w pops the most urgent waiting job.
    Pop(usize),
    /// Worker w answers the job it holds.
    Finish(usize),
    /// The loop applies every completion the workers queued.
    Wake,
}

/// One response as the client read it.
struct Answer {
    status: u16,
    head: String,
    body: String,
    trace: Option<String>,
}

/// A connection as its client sees it.
struct Client {
    token: u64,
    ip: IpAddr,
    script: Vec<Kind>,
    sent: usize,
    half_closed: bool,
    /// Bytes written to the socket and not yet read as a whole response.
    inbox: Vec<u8>,
    answers: Vec<Answer>,
    closed: bool,
}

/// One play of a schedule, from a fresh service.
struct Run {
    bound: Bound,
    core: LoopCore,
    service: Arc<ScheduleService>,
    transport: Arc<TransportMetrics>,
    admission: Arc<AdmissionQueue>,
    worker: Worker,
    /// The job each worker holds.
    held: Vec<Option<Job>>,
    /// Completions workers queued that the loop has not applied.
    queued: Vec<Completion>,
    clients: Vec<Client>,
    origin: Instant,
    ticks: u32,
    /// Flight records the warming search left.
    warm_records: usize,
    played: Vec<Step>,
}

impl Run {
    fn new(bound: &Bound) -> Self {
        // Tens of thousands of requests: their `info` completion lines would
        // bury the test output (warnings still print).
        tessel_obs::set_level(tessel_obs::Level::Warn);
        let service = Arc::new(
            ScheduleService::new(ServiceConfig::default()).expect("the default service starts"),
        );
        service
            .search(&small_search(ShapeKind::V, 2))
            .expect("the warming search solves");
        let transport = Arc::new(TransportMetrics::new());
        let admission = Arc::new(AdmissionQueue::new(bound.capacity, transport.clone()));
        let config = ServerConfig {
            workers: bound.workers,
            max_conns_per_ip: 1,
            ..ServerConfig::default()
        };
        let mut core = LoopCore::new(&config, &admission, &service, &transport);
        let (_, waker) = std::io::pipe().expect("a pipe");
        let worker = Worker {
            service: service.clone(),
            transport: transport.clone(),
            timeseries: None,
            completions: Arc::new(Completions {
                queue: std::sync::Mutex::default(),
                waker,
            }),
        };
        let origin = Instant::now()
            .checked_sub(Duration::from_secs(10))
            .expect("the monotonic clock has run for ten seconds");
        let clients = (bound.scripts.iter().enumerate())
            .map(|(c, script)| {
                let ip = IpAddr::from([10, 0, 0, c as u8 + 1]);
                Client {
                    token: core
                        .accept(ip, origin)
                        .expect("a first connection is accepted"),
                    ip,
                    script: script.clone(),
                    sent: 0,
                    half_closed: false,
                    inbox: Vec::new(),
                    answers: Vec::new(),
                    closed: false,
                }
            })
            .collect();
        let mut run = Run {
            bound: bound.clone(),
            core,
            warm_records: service.debug_requests().recent.len(),
            service,
            transport,
            admission,
            worker,
            held: (0..bound.workers).map(|_| None).collect(),
            queued: Vec::new(),
            clients,
            origin,
            ticks: 0,
            played: Vec::new(),
        };
        // The per-IP cap: a second connection from the first client's
        // address is refused before any byte is read.
        assert_eq!(run.core.accept(run.clients[0].ip, origin), None);
        assert_eq!(run.transport.rejected_per_ip.load(Relaxed), 1);
        run.act();
        run
    }

    /// The instant the core sees for the next event: a millisecond later
    /// than the last.
    fn now(&mut self) -> Instant {
        self.ticks += 1;
        self.origin + Duration::from_millis(u64::from(self.ticks))
    }

    /// The steps enabled now, in a fixed order. Workers are
    /// interchangeable, so only the first idle worker may pop.
    fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for (c, client) in self.clients.iter().enumerate() {
            if client.sent < client.script.len() {
                steps.push(Step::Send(c));
            } else if self.bound.half_close && !client.half_closed && !client.closed {
                steps.push(Step::HalfClose(c));
            }
        }
        if self.transport.admission_queue_depth.load(Relaxed) > 0 {
            steps.extend(self.held.iter().position(Option::is_none).map(Step::Pop));
        }
        steps.extend(
            (0..self.held.len())
                .filter(|&w| self.held[w].is_some())
                .map(Step::Finish),
        );
        if !self.queued.is_empty() {
            steps.push(Step::Wake);
        }
        steps
    }

    fn play(&mut self, step: Step) {
        self.played.push(step);
        let on_loop = self.transport.answered_on_loop.load(Relaxed);
        let now = self.now();
        self.core.begin_batch(1);
        match step {
            Step::Send(c) => {
                let client = &mut self.clients[c];
                let wire = client.script[client.sent].wire();
                client.sent += 1;
                assert!(
                    self.core.reading(client.token),
                    "a connection with work to send is not read"
                );
                // Completions queued before the read share its batch: the
                // wakeup pipe is readable by then.
                let token = client.token;
                let woken = !self.queued.is_empty();
                self.core.begin_batch(1 + usize::from(woken));
                self.core.received(token, &wire, now);
                if woken {
                    self.act();
                    self.core.completed(std::mem::take(&mut self.queued), now);
                }
            }
            Step::HalfClose(c) => {
                self.clients[c].half_closed = true;
                self.core.received(self.clients[c].token, &[], now);
            }
            Step::Pop(w) => self.held[w] = Some(self.admission.pop().expect("a waiting job")),
            Step::Finish(w) => {
                let job = self.held[w].take().expect("a held job");
                self.queued.push(self.worker.answer(job));
            }
            Step::Wake => self.core.completed(std::mem::take(&mut self.queued), now),
        }
        self.act();
        self.check();
        if self.transport.answered_on_loop.load(Relaxed) > on_loop {
            let busy = self.held.iter().flatten().count();
            self.assert(
                busy == 0 || busy == self.held.len(),
                "the loop answered a hit while one worker was idle and another busy",
            );
        }
    }

    /// Carries out the core's actions the way the shell does, with sockets
    /// that take every byte.
    fn act(&mut self) {
        while let Some(action) = self.core.next_action() {
            let Some(client) = self.clients.iter_mut().find(|c| c.token == action.token()) else {
                continue;
            };
            match action {
                Action::Write(token) if !client.closed => {
                    let bytes = self.core.unwritten(token).to_vec();
                    client.inbox.extend_from_slice(&bytes);
                    let now = self.origin + Duration::from_millis(u64::from(self.ticks));
                    self.core.written(token, bytes.len(), now);
                }
                Action::Close(_) => client.closed = true,
                Action::Write(_) | Action::Interest(..) => {}
            }
        }
        for client in &mut self.clients {
            while let Some(answer) = take_response(&mut client.inbox) {
                client.answers.push(answer);
            }
        }
    }

    /// Fails with the bound and the schedule played so far.
    #[track_caller]
    fn assert(&self, holds: bool, what: &str) {
        assert!(
            holds,
            "{what}\n  bound: {:?}\n  schedule: {:?}",
            self.bound, self.played
        );
    }

    /// The invariants that hold after every step; returns the 429s read.
    fn check(&self) -> u64 {
        let mut with_trace = 0;
        let mut shed = 0;
        let records = self.service.debug_requests().recent;
        for client in &self.clients {
            self.assert(
                client.answers.len() <= client.sent,
                "an answer to a request never sent",
            );
            for (answer, kind) in client.answers.iter().zip(&client.script) {
                let allowed = answer.status == kind.status() || answer.status == 429;
                self.assert(allowed, &format!("{kind:?} answered {}", answer.head));
                let cached = answer.body.contains("\"cached\":true");
                self.assert(
                    *kind != Kind::Hit || answer.status != 200 || cached,
                    "a hit answered uncached",
                );
                if answer.status == 429 {
                    shed += 1;
                    self.assert(
                        answer.head.contains("\r\nRetry-After: 1\r\n"),
                        "a 429 without Retry-After",
                    );
                }
                let Some(trace) = &answer.trace else {
                    continue;
                };
                with_trace += 1;
                let mut mine = records.iter().filter(|r| &r.trace_id == trace);
                let record = mine.next();
                self.assert(mine.next().is_none(), "two flight records for one response");
                let Some(record) = record else {
                    self.assert(false, &format!("no flight record for {}", answer.head));
                    continue;
                };
                self.assert(
                    record.status == answer.status,
                    "the record's status is not the answer's",
                );
            }
        }
        for record in &records {
            let stages: u64 = record.stages.iter().map(|s| s.micros).sum();
            self.assert(
                record.total_micros >= stages,
                &format!("a record's stages add up to more than its total: {record:?}"),
            );
        }
        self.assert(
            records.len() == self.warm_records + with_trace,
            "flight records without a response",
        );
        // A 429 waits behind the responses its connection owes first.
        let sheds = self.transport.admission_shed.load(Relaxed);
        self.assert(shed <= sheds, "a 429 nobody shed");
        let out = self.transport.admission_queue_depth.load(Relaxed) as usize
            + self.held.iter().flatten().count()
            + self.queued.len();
        self.assert(
            self.core.at_pool == out,
            "`at_pool` is not the jobs out at the pool",
        );
        self.assert(
            self.service.debug_inflight().inflight.is_empty()
                && inflight::with_current(|_| ()).is_none(),
            "books left open between steps",
        );
        let m = self.service.metrics_snapshot();
        let ended = m.cache_hits + m.cache_misses + m.coalesced + m.timeouts + m.errors;
        self.assert(ended <= m.requests, "a request ended twice");
        shed
    }

    /// What must hold once no step is enabled; then the idle sweep.
    fn finish(&mut self) {
        for client in &self.clients {
            self.assert(
                client.answers.len() == client.script.len(),
                "a request was never answered",
            );
            self.assert(client.inbox.is_empty(), "bytes after the last response");
        }
        self.assert(self.core.at_pool == 0, "jobs out at an idle pool");
        let sheds = self.transport.admission_shed.load(Relaxed);
        self.assert(self.check() == sheds, "a shed without its 429");
        let m = self.service.metrics_snapshot();
        let ended = m.cache_hits + m.cache_misses + m.coalesced + m.timeouts + m.errors;
        self.assert(
            ended == m.requests,
            &format!("requests != hits + misses + coalesced + failures: {m:?}"),
        );
        let last = self.origin + Duration::from_millis(u64::from(self.ticks));
        let timeout = ServerConfig::default().idle_timeout;
        let open = self.transport.connections_open.load(Relaxed);
        let due = self.core.idle_deadline;
        let due_in_time = due.is_some_and(|due| due <= last + timeout);
        self.assert(
            open == 0 || due_in_time,
            "idle connections with no sweep due",
        );
        let next = self.core.tick(last + timeout);
        self.assert(next.is_none(), "a sweep due with nothing idle");
        self.act();
        self.assert(
            self.core.conns.is_empty() && self.core.per_ip.is_empty(),
            "the sweep left an idle connection",
        );
        self.assert(
            self.clients.iter().all(|c| c.closed)
                && self.transport.connections_open.load(Relaxed) == 0,
            "a connection closed without its socket",
        );
        let ip = self.clients[0].ip;
        let readmitted = self.core.accept(ip, last + timeout).is_some();
        self.assert(readmitted, "the per-IP cap did not readmit");
    }
}

impl Action {
    fn token(self) -> u64 {
        match self {
            Action::Write(token) | Action::Interest(token, _) | Action::Close(token) => token,
        }
    }
}

/// Takes one whole response off the front of `inbox`.
fn take_response(inbox: &mut Vec<u8>) -> Option<Answer> {
    let end = inbox.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8(inbox[..end].to_vec()).expect("an ASCII head");
    let header = |name: &str| {
        (head.lines())
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
            .map(str::to_string)
    };
    let length: usize = header("Content-Length")?.parse().expect("a length");
    if inbox.len() < end + length {
        return None;
    }
    let body = String::from_utf8(inbox[end..end + length].to_vec()).expect("a UTF-8 body");
    inbox.drain(..end + length);
    let status = head[9..12].parse().expect("a status");
    let trace = header("X-Tessel-Trace-Id");
    Some(Answer {
        status,
        head,
        body,
        trace,
    })
}

/// Plays every schedule of `bound`; returns how many schedules and steps.
fn explore(bound: &Bound) -> (usize, usize) {
    // The choice made at each depth of the last schedule, and how many
    // there were: the next schedule takes the next choice at the deepest
    // depth that has one.
    let mut trail: Vec<(usize, usize)> = Vec::new();
    let (mut schedules, mut steps) = (0, 0);
    loop {
        let mut run = Run::new(bound);
        let mut depth = 0;
        loop {
            let enabled = run.enabled();
            if enabled.is_empty() {
                break;
            }
            if depth == trail.len() {
                trail.push((0, enabled.len()));
            }
            assert_eq!(trail[depth].1, enabled.len(), "a replay diverged");
            run.play(enabled[trail[depth].0]);
            depth += 1;
        }
        run.finish();
        schedules += 1;
        steps += depth;
        trail.truncate(depth);
        while let Some((choice, of)) = trail.pop() {
            if choice + 1 < of {
                trail.push((choice + 1, of));
                break;
            }
        }
        if trail.is_empty() {
            return (schedules, steps);
        }
    }
}

/// Plays `walks` random schedules of random bounds at up to `connections`
/// connections of `requests` requests and two workers; returns the steps.
fn walk(seed: u64, walks: usize, connections: usize, requests: usize) -> usize {
    let mut rng = Rng(seed | 1);
    let mut steps = 0;
    for _ in 0..walks {
        let scripts = (0..1 + rng.below(connections))
            .map(|_| {
                (0..1 + rng.below(requests))
                    .map(|_| KINDS[rng.below(KINDS.len())])
                    .collect()
            })
            .collect();
        let bound = Bound {
            scripts,
            workers: 1 + rng.below(2),
            capacity: 1 + rng.below(2),
            half_close: rng.below(2) == 0,
        };
        let mut run = Run::new(&bound);
        loop {
            let enabled = run.enabled();
            if enabled.is_empty() {
                break;
            }
            let step = enabled[rng.below(enabled.len())];
            let played = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.play(step)));
            if let Err(panic) = played {
                eprintln!("seed {seed:#x}: the walk failed");
                std::panic::resume_unwind(panic);
            }
            steps += 1;
        }
        run.finish();
    }
    steps
}

#[test]
fn small_bound_is_exhaustive() {
    use Kind::*;
    let bounds = [
        // A hit pipelined behind a miss, a sheddable miss beside them: with
        // two workers, and with one and peers that half-close.
        (vec![vec![Miss, Hit], vec![Cheap]], 2, 1, false),
        (vec![vec![Miss, Hit], vec![Cheap]], 1, 1, true),
        // The queue holds one job and three arrive, one too large for the
        // loop to probe.
        (vec![vec![Miss, Large], vec![Cheap]], 1, 1, false),
        (vec![vec![Expired, Hit], vec![Hit]], 2, 2, false),
        // Three connections, one request each.
        (vec![vec![Hit], vec![Miss], vec![Large]], 2, 1, false),
        (vec![vec![Expired], vec![Hit], vec![Cheap]], 1, 1, false),
    ];
    let (mut schedules, mut steps) = (0, 0);
    for (scripts, workers, capacity, half_close) in bounds {
        let bound = Bound {
            scripts,
            workers,
            capacity,
            half_close,
        };
        let (played, stepped) = explore(&bound);
        schedules += played;
        steps += stepped;
    }
    println!("loop checker: {schedules} schedules, {steps} states, every interleaving");
}

#[test]
fn random_walks_at_the_deep_bound() {
    let steps = walk(fuzz_seed(), 20, 3, 3);
    println!("loop checker: 20 walks, {steps} states");
}

#[test]
#[ignore = "10,000 walks: CI's fingerprint-stress job runs them with --include-ignored"]
fn random_walks_at_the_deep_bound_10k() {
    let seed = fuzz_seed();
    let steps = walk(seed, 10_000, 3, 3);
    println!("loop checker: seed {seed:#x}, 10,000 walks, {steps} states");
}
