//! Static peer membership with health probing and circuit breaking.
//!
//! Each peer named by a `--peer` flag gets one keep-alive [`HttpClient`]
//! (guarded by a mutex — cluster traffic to one peer serializes on one
//! socket, which is plenty for cache exchange) plus a health record. A
//! background prober hits every peer's `/healthz` on an interval so the
//! `/v1/cluster` endpoint and the `tessel_cluster_peers_healthy` gauge stay
//! current even on an idle daemon.
//!
//! Failures trip a **circuit breaker**: after
//! [`ClusterConfig::circuit_failure_threshold`] consecutive failures the
//! peer's circuit opens for [`ClusterConfig::circuit_cooldown`], and every
//! call in that window fails instantly with [`PeerError::CircuitOpen`]
//! instead of paying a connect timeout. The prober keeps probing an open
//! circuit, so a recovered peer is readmitted within one probe interval.
//! Callers degrade on any [`PeerError`] — an unreachable owner means *solve
//! locally*, never a failed request.
//!
//! [`ClusterConfig::circuit_failure_threshold`]: super::ClusterConfig::circuit_failure_threshold
//! [`ClusterConfig::circuit_cooldown`]: super::ClusterConfig::circuit_cooldown

use crate::http::{parse::scan_json_integer, HttpClient};
use crate::wire::PeerStatusInfo;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identity and address of one peer daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerConfig {
    /// The peer's `--node-id` (its ring identity).
    pub node_id: String,
    /// The peer's HTTP address, e.g. `127.0.0.1:7701`.
    pub addr: String,
}

/// Why a peer call did not produce a response.
#[derive(Debug)]
pub enum PeerError {
    /// The circuit is open: the peer failed repeatedly and the cooldown has
    /// not elapsed. No network I/O was attempted.
    CircuitOpen,
    /// The call itself failed (connect, timeout, malformed response).
    Io(std::io::Error),
}

impl fmt::Display for PeerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerError::CircuitOpen => write!(f, "circuit open"),
            PeerError::Io(e) => write!(f, "{e}"),
        }
    }
}

#[derive(Debug)]
struct PeerHealth {
    healthy: bool,
    consecutive_failures: u64,
    circuit_open_until: Option<Instant>,
    last_error: Option<String>,
    /// Estimated peer clock minus local clock, in milliseconds, from the
    /// most recent successful probe (peer `/healthz` timestamp vs. the probe
    /// RTT midpoint). `None` until the first successful probe.
    clock_offset_ms: Option<i64>,
}

/// One peer: its config, its keep-alive client and its health record.
#[derive(Debug)]
pub struct Peer {
    config: PeerConfig,
    client: Mutex<HttpClient>,
    health: Mutex<PeerHealth>,
    failure_threshold: u64,
    circuit_cooldown: Duration,
}

impl Peer {
    fn new(
        config: PeerConfig,
        connect_timeout: Duration,
        io_timeout: Duration,
        failure_threshold: u64,
        circuit_cooldown: Duration,
    ) -> std::io::Result<Self> {
        let client = HttpClient::with_timeouts(&config.addr, connect_timeout, io_timeout)?;
        Ok(Peer {
            config,
            client: Mutex::new(client),
            health: Mutex::new(PeerHealth {
                healthy: false,
                consecutive_failures: 0,
                circuit_open_until: None,
                last_error: None,
                clock_offset_ms: None,
            }),
            failure_threshold,
            circuit_cooldown,
        })
    }

    /// The peer's ring identity.
    #[must_use]
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// The peer's HTTP address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.config.addr
    }

    /// `true` while the circuit is open (and the cooldown has not elapsed).
    #[must_use]
    pub fn circuit_open(&self) -> bool {
        self.health
            .lock()
            .expect("peer health lock")
            .circuit_open_until
            .is_some_and(|until| Instant::now() < until)
    }

    /// Issues one request to the peer, honouring the circuit breaker.
    ///
    /// # Errors
    ///
    /// [`PeerError::CircuitOpen`] without touching the network while the
    /// breaker is open; [`PeerError::Io`] on call failure (which also feeds
    /// the breaker).
    pub fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), PeerError> {
        self.call_with_headers(method, path, body, &[])
    }

    /// Like [`Peer::call`], but sends `extra_headers` with the request — the
    /// cluster tier uses this to propagate the originating request's
    /// `X-Tessel-Trace-Id` so remote fetches, replication PUTs and warm-up
    /// streams join one trace across daemons.
    ///
    /// # Errors
    ///
    /// Same as [`Peer::call`].
    pub fn call_with_headers(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> Result<(u16, String), PeerError> {
        if self.circuit_open() {
            return Err(PeerError::CircuitOpen);
        }
        self.execute(method, path, body, extra_headers)
    }

    /// Issues one request even while the circuit is open — the prober uses
    /// this to detect recovery.
    ///
    /// # Errors
    ///
    /// [`PeerError::Io`] on call failure.
    pub fn call_bypassing_circuit(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), PeerError> {
        self.execute(method, path, body, &[])
    }

    fn execute(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> Result<(u16, String), PeerError> {
        let result = {
            let mut client = self.client.lock().expect("peer client lock");
            client.call_with_headers(method, path, body, extra_headers)
        };
        match result {
            Ok((status, _headers, payload)) => {
                self.record_success();
                Ok((status, payload))
            }
            Err(e) => {
                self.record_failure(&e.to_string());
                Err(PeerError::Io(e))
            }
        }
    }

    fn record_success(&self) {
        let mut health = self.health.lock().expect("peer health lock");
        let recovered = health.circuit_open_until.is_some();
        health.healthy = true;
        health.consecutive_failures = 0;
        health.circuit_open_until = None;
        health.last_error = None;
        drop(health);
        if recovered {
            tessel_obs::info(
                "cluster",
                "peer circuit closed",
                &[("peer", self.node_id()), ("addr", self.addr())],
            );
        }
    }

    fn record_failure(&self, error: &str) {
        let mut health = self.health.lock().expect("peer health lock");
        health.healthy = false;
        health.consecutive_failures += 1;
        health.last_error = Some(error.to_string());
        let mut opened = false;
        if health.consecutive_failures >= self.failure_threshold {
            // Only the closed-to-open transition is logged; re-arming an
            // already open circuit (the prober re-failing) stays quiet.
            opened = health
                .circuit_open_until
                .is_none_or(|until| Instant::now() >= until);
            health.circuit_open_until = Some(Instant::now() + self.circuit_cooldown);
        }
        let failures = health.consecutive_failures;
        drop(health);
        if opened {
            tessel_obs::warn(
                "cluster",
                "peer circuit opened",
                &[
                    ("peer", self.node_id()),
                    ("addr", self.addr()),
                    ("failures", &failures.to_string()),
                    ("error", error),
                ],
            );
        }
    }

    /// Records a clock-offset estimate from a successful probe: the peer's
    /// reported wall clock minus the probe's local RTT midpoint. Accurate to
    /// roughly half the RTT plus millisecond rounding — good enough to line
    /// up spans across daemons, not for ordering sub-millisecond events.
    pub fn record_clock_offset(&self, offset_ms: i64) {
        self.health
            .lock()
            .expect("peer health lock")
            .clock_offset_ms = Some(offset_ms);
    }

    /// The latest probe-estimated peer clock offset (peer minus local),
    /// milliseconds. `None` before the first successful probe.
    #[must_use]
    pub fn clock_offset_ms(&self) -> Option<i64> {
        self.health
            .lock()
            .expect("peer health lock")
            .clock_offset_ms
    }

    /// Point-in-time status row for `/v1/cluster`.
    #[must_use]
    pub fn status(&self) -> PeerStatusInfo {
        let health = self.health.lock().expect("peer health lock");
        PeerStatusInfo {
            node_id: self.config.node_id.clone(),
            addr: self.config.addr.clone(),
            healthy: health.healthy,
            circuit_open: health
                .circuit_open_until
                .is_some_and(|until| Instant::now() < until),
            consecutive_failures: health.consecutive_failures,
            last_error: health.last_error.clone(),
            clock_offset_ms: health.clock_offset_ms,
        }
    }
}

/// The fleet's peer table plus its background health prober.
#[derive(Debug)]
pub struct PeerSet {
    peers: Vec<Arc<Peer>>,
    stop: Arc<AtomicBool>,
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl PeerSet {
    /// Builds the table and starts the prober (when `probe_interval` is
    /// non-zero).
    ///
    /// # Errors
    ///
    /// Fails if any peer address does not resolve.
    pub fn new(
        configs: &[PeerConfig],
        connect_timeout: Duration,
        io_timeout: Duration,
        failure_threshold: u64,
        circuit_cooldown: Duration,
        probe_interval: Duration,
    ) -> std::io::Result<Self> {
        let peers: Vec<Arc<Peer>> = configs
            .iter()
            .map(|config| {
                Peer::new(
                    config.clone(),
                    connect_timeout,
                    io_timeout,
                    failure_threshold,
                    circuit_cooldown,
                )
                .map(Arc::new)
            })
            .collect::<std::io::Result<_>>()?;
        let stop = Arc::new(AtomicBool::new(false));
        let prober = if probe_interval.is_zero() || peers.is_empty() {
            None
        } else {
            let peers = peers.clone();
            let stop = stop.clone();
            Some(std::thread::spawn(move || {
                probe_loop(&peers, &stop, probe_interval);
            }))
        };
        Ok(PeerSet {
            peers,
            stop,
            prober: Mutex::new(prober),
        })
    }

    /// All peers, in `--peer` order.
    #[must_use]
    pub fn peers(&self) -> &[Arc<Peer>] {
        &self.peers
    }

    /// The peer registered as `node_id`, if any.
    #[must_use]
    pub fn get(&self, node_id: &str) -> Option<&Arc<Peer>> {
        self.peers.iter().find(|p| p.node_id() == node_id)
    }

    /// Number of peers whose last contact succeeded.
    #[must_use]
    pub fn healthy_count(&self) -> u64 {
        self.peers.iter().filter(|p| p.status().healthy).count() as u64
    }

    /// Number of peers with an open circuit right now.
    #[must_use]
    pub fn circuit_open_count(&self) -> u64 {
        self.peers.iter().filter(|p| p.circuit_open()).count() as u64
    }

    /// Stops and joins the prober. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.prober.lock().expect("prober handle lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PeerSet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Extracts the `unix_ms` integer a daemon's `/healthz` body reports.
fn parse_unix_ms(body: &str) -> Option<u64> {
    u64::try_from(scan_json_integer(body, "unix_ms")?).ok()
}

/// Probes every peer's `/healthz` each interval. Sleeps in short slices so
/// shutdown is prompt even with a long interval.
///
/// A successful probe doubles as a clock-offset measurement: the peer's
/// `unix_ms` stamp is compared against the probe's local send time plus half
/// the measured RTT (the classic NTP midpoint estimate), and the offset
/// feeds fleet-wide trace assembly.
fn probe_loop(peers: &[Arc<Peer>], stop: &AtomicBool, interval: Duration) {
    let slice = Duration::from_millis(25);
    loop {
        for peer in peers {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // Bypass the circuit: probing an open circuit is how recovery is
            // detected before the cooldown expires.
            let sent_unix_ms = crate::flight::now_unix_ms();
            let sent = Instant::now();
            if let Ok((200, body)) = peer.call_bypassing_circuit("GET", "/healthz", None) {
                let rtt_ms = sent.elapsed().as_millis() as u64;
                if let Some(peer_unix_ms) = parse_unix_ms(&body) {
                    let midpoint = sent_unix_ms + rtt_ms / 2;
                    peer.record_clock_offset(peer_unix_ms as i64 - midpoint as i64);
                }
            }
        }
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(slice.min(interval - slept));
            slept += slice;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lone_peer(threshold: u64, cooldown: Duration) -> Peer {
        // 127.0.0.1:9 (discard) refuses connections immediately on any sane
        // test host.
        Peer::new(
            PeerConfig {
                node_id: "dead".into(),
                addr: "127.0.0.1:9".into(),
            },
            Duration::from_millis(100),
            Duration::from_millis(100),
            threshold,
            cooldown,
        )
        .unwrap()
    }

    #[test]
    fn repeated_failures_open_the_circuit() {
        let peer = lone_peer(2, Duration::from_secs(30));
        assert!(!peer.circuit_open());
        assert!(matches!(
            peer.call("GET", "/healthz", None),
            Err(PeerError::Io(_))
        ));
        assert!(!peer.circuit_open(), "one failure is below the threshold");
        assert!(matches!(
            peer.call("GET", "/healthz", None),
            Err(PeerError::Io(_))
        ));
        assert!(peer.circuit_open(), "threshold reached");
        // While open, calls fail fast without touching the network.
        assert!(matches!(
            peer.call("GET", "/healthz", None),
            Err(PeerError::CircuitOpen)
        ));
        let status = peer.status();
        assert!(!status.healthy);
        assert!(status.circuit_open);
        assert_eq!(status.consecutive_failures, 2);
        assert!(status.last_error.is_some());
    }

    #[test]
    fn cooldown_expiry_readmits_calls() {
        let peer = lone_peer(1, Duration::from_millis(20));
        let _ = peer.call("GET", "/healthz", None);
        assert!(peer.circuit_open());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!peer.circuit_open(), "cooldown elapsed");
        // The next call is attempted for real again (and fails again).
        assert!(matches!(
            peer.call("GET", "/healthz", None),
            Err(PeerError::Io(_))
        ));
    }

    #[test]
    fn clock_offsets_parse_and_round_trip() {
        assert_eq!(
            parse_unix_ms("{\"status\": \"ok\", \"unix_ms\": 1700000000123}"),
            Some(1_700_000_000_123)
        );
        assert_eq!(parse_unix_ms("{\"unix_ms\":7}"), Some(7));
        assert_eq!(parse_unix_ms("{\"status\": \"ok\"}"), None);
        assert_eq!(parse_unix_ms("{\"unix_ms\": \"nope\"}"), None);

        let peer = lone_peer(3, Duration::from_secs(1));
        assert_eq!(peer.clock_offset_ms(), None);
        assert_eq!(peer.status().clock_offset_ms, None);
        peer.record_clock_offset(-42);
        assert_eq!(peer.clock_offset_ms(), Some(-42));
        assert_eq!(peer.status().clock_offset_ms, Some(-42));
    }

    #[test]
    fn peer_set_lookup_and_counters() {
        let set = PeerSet::new(
            &[
                PeerConfig {
                    node_id: "b".into(),
                    addr: "127.0.0.1:9".into(),
                },
                PeerConfig {
                    node_id: "c".into(),
                    addr: "127.0.0.1:9".into(),
                },
            ],
            Duration::from_millis(50),
            Duration::from_millis(50),
            3,
            Duration::from_secs(1),
            Duration::ZERO, // no prober in unit tests
        )
        .unwrap();
        assert_eq!(set.peers().len(), 2);
        assert!(set.get("b").is_some());
        assert!(set.get("nope").is_none());
        assert_eq!(set.healthy_count(), 0);
        assert_eq!(set.circuit_open_count(), 0);
        set.shutdown();
    }
}
