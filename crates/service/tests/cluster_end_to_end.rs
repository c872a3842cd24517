//! Multi-daemon end-to-end test of the cluster tier, over real sockets:
//! with daemons A and B peered, a placement solved on A is returned by B as
//! a **remote cache hit** (identical schedule, translated into B's request
//! labeling, `tessel_cluster_remote_hits_total` incremented); a placement
//! solved on the non-owner is **replicated** to its owner; a restarted owner
//! **warms** its shard from the surviving peer; and killing a daemon
//! mid-fleet **degrades** the survivor to local solving with no failed
//! requests.
//!
//! Both listeners are bound (ephemeral ports) *before* either service is
//! constructed, so each daemon's `--peer` address is real from the start —
//! no port-guessing races.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tessel_core::ir::{BlockKind, PlacementSpec};
use tessel_service::cache::CacheParams;
use tessel_service::http::http_call;
use tessel_service::wire::{
    CacheExchange, ReplicationAck, SearchRequest, SearchResponse, WireSearchEntry,
};
use tessel_service::{
    ClusterConfig, HashRing, HttpServer, PeerConfig, ScheduleService, ServerConfig, ServiceConfig,
};

const VNODES: usize = 32;

fn v_shape(devices: usize) -> PlacementSpec {
    let mut b = PlacementSpec::builder(format!("v{devices}"), devices);
    b.set_memory_capacity(Some(devices as i64 + 1));
    let mut prev: Option<usize> = None;
    for d in 0..devices {
        let deps: Vec<usize> = prev.into_iter().collect();
        prev = Some(
            b.add_block(format!("f{d}"), BlockKind::Forward, [d], 1, 1, deps)
                .unwrap(),
        );
    }
    for d in (0..devices).rev() {
        let deps: Vec<usize> = prev.into_iter().collect();
        prev = Some(
            b.add_block(format!("b{d}"), BlockKind::Backward, [d], 2, -1, deps)
                .unwrap(),
        );
    }
    b.build().unwrap()
}

/// A cheap-to-solve two-device pipeline whose durations are scaled by `tag`,
/// so different tags give different canonical fingerprints — used to mint
/// placements owned by a chosen ring member.
fn chain_shape(tag: u64) -> PlacementSpec {
    let mut b = PlacementSpec::builder(format!("chain{tag}"), 2);
    b.set_memory_capacity(Some(3));
    let f0 = b
        .add_block("f0", BlockKind::Forward, [0], tag, 1, [])
        .unwrap();
    let f1 = b
        .add_block("f1", BlockKind::Forward, [1], tag, 1, [f0])
        .unwrap();
    let b1 = b
        .add_block("b1", BlockKind::Backward, [1], 2 * tag, -1, [f1])
        .unwrap();
    b.add_block("b0", BlockKind::Backward, [0], 2 * tag, -1, [b1])
        .unwrap();
    b.build().unwrap()
}

/// The first `chain_shape` tag (from `start`) whose fingerprint the ring
/// assigns to `owner`.
fn chain_owned_by(ring: &HashRing, owner: &str, start: u64) -> (u64, PlacementSpec) {
    for tag in start..start + 64 {
        let placement = chain_shape(tag);
        if ring.owner_of(placement.canonicalize().fingerprint) == owner {
            return (tag, placement);
        }
    }
    panic!(
        "no chain shape in {start}..{} is owned by {owner}",
        start + 64
    );
}

fn cluster_config(node_id: &str, peers: Vec<PeerConfig>) -> ClusterConfig {
    let mut cluster = ClusterConfig::new(node_id, peers);
    cluster.vnodes = VNODES;
    cluster.probe_interval = Duration::from_millis(200);
    cluster.connect_timeout = Duration::from_millis(300);
    cluster.peer_timeout = Duration::from_secs(5);
    cluster.circuit_failure_threshold = 2;
    cluster.circuit_cooldown = Duration::from_secs(5);
    cluster
}

fn start_node(
    node_id: &str,
    listener: TcpListener,
    peers: Vec<PeerConfig>,
) -> (HttpServer, Arc<ScheduleService>) {
    let service = Arc::new(
        ScheduleService::new(ServiceConfig {
            default_micro_batches: 4,
            default_max_repetend: 3,
            cluster: Some(cluster_config(node_id, peers)),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let server = HttpServer::serve_listener(
        service.clone(),
        listener,
        &ServerConfig {
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, service)
}

fn post_search(addr: &str, placement: &PlacementSpec) -> (u16, SearchResponse) {
    let body = serde_json::to_string(&SearchRequest::for_placement(placement.clone())).unwrap();
    let (status, response) = http_call(addr, "POST", "/v1/search", Some(&body)).unwrap();
    assert_eq!(status, 200, "{response}");
    (status, serde_json::from_str(&response).unwrap())
}

fn metrics_text(addr: &str) -> String {
    let (status, body) = http_call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    body
}

/// The value of a plain `name value` metric line.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn wait_until(timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if ready() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn fleet_shares_one_logical_cache_and_degrades_without_failures() {
    // Bind both listeners first so each node can name the other's real
    // address in its peer config.
    let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
    let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = listener_a.local_addr().unwrap().to_string();
    let addr_b = listener_b.local_addr().unwrap().to_string();

    // Choose node ids so the acceptance placement's OWNER runs on listener
    // A: "a placement solved on A is returned by B as a remote cache hit"
    // requires B's ring lookup to point at A.
    let placement = v_shape(3);
    let fingerprint = placement.canonicalize().fingerprint;
    let ring = HashRing::new(["alpha", "beta"], VNODES);
    let (id_a, id_b) = if ring.owner_of(fingerprint) == "alpha" {
        ("alpha", "beta")
    } else {
        ("beta", "alpha")
    };

    let (server_a, service_a) = start_node(
        id_a,
        listener_a,
        vec![PeerConfig {
            node_id: id_b.into(),
            addr: addr_b.clone(),
        }],
    );
    let (server_b, service_b) = start_node(
        id_b,
        listener_b,
        vec![PeerConfig {
            node_id: id_a.into(),
            addr: addr_a.clone(),
        }],
    );
    assert!(service_a.cluster().unwrap().owns(fingerprint));
    assert!(!service_b.cluster().unwrap().owns(fingerprint));

    // --- Remote cache hit -------------------------------------------------
    // Solve on A (the owner)...
    let (_, first) = post_search(&addr_a, &placement);
    assert!(!first.cached, "first solve is a miss");
    // ...then ask B for a device-relabeled variant of the same placement. B
    // misses locally, fetches from A, and must return the identical schedule
    // translated into the request's (permuted) labeling.
    let order: Vec<usize> = (0..placement.num_blocks()).collect();
    let permuted = placement.permuted(&[2, 0, 1], &order).unwrap();
    let (_, second) = post_search(&addr_b, &permuted);
    assert!(second.cached, "remote hit must report cached");
    assert_eq!(second.fingerprint, first.fingerprint);
    assert_eq!(second.period, first.period);
    assert_eq!(second.bubble_rate, first.bubble_rate);
    assert_eq!(
        second.schedule.num_micro_batches(),
        first.schedule.num_micro_batches()
    );
    // Correctly translated: the schedule is valid in the REQUEST's labeling.
    second.schedule.validate(&permuted).unwrap();
    first.schedule.validate(&placement).unwrap();

    // The wire payload is SLIM: the owner's `GET /v1/cache/{fp}` body — the
    // exact bytes the remote hit consumed — carries no canonical placement
    // (no key, no block lists), only the canonical-labeled schedule.
    let (status, raw) =
        http_call(&addr_a, "GET", &format!("/v1/cache/{fingerprint}"), None).unwrap();
    assert_eq!(status, 200);
    assert!(
        !raw.contains("canonical_placement"),
        "remote hits must not ship the canonical placement: {raw}"
    );
    assert!(
        !raw.contains("\"deps\""),
        "remote hits must not ship placement blocks: {raw}"
    );

    let metrics_b = metrics_text(&addr_b);
    assert_eq!(
        metric_value(&metrics_b, "tessel_cluster_remote_hits_total"),
        1
    );
    assert_eq!(metric_value(&metrics_b, "tessel_cache_misses_total"), 0);
    let metrics_a = metrics_text(&addr_a);
    assert_eq!(
        metric_value(&metrics_a, "tessel_cluster_remote_hits_total"),
        0
    );

    // B adopted the entry: the next identical request is a LOCAL hit.
    let (_, third) = post_search(&addr_b, &permuted);
    assert!(third.cached);
    assert_eq!(
        metric_value(&metrics_text(&addr_b), "tessel_cluster_remote_hits_total"),
        1,
        "local hit must not consult the owner again"
    );

    // --- Replication to the owner ----------------------------------------
    // Solve a placement OWNED BY A on B: B solves it locally (A has nothing
    // cached for it) and replicates the entry to A asynchronously.
    let ring_b = HashRing::new([id_a, id_b], VNODES);
    let (_, chain_a) = chain_owned_by(&ring_b, id_a, 1);
    let chain_a_fp = chain_a.canonicalize().fingerprint;
    let (_, solved) = post_search(&addr_b, &chain_a);
    assert!(!solved.cached);
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (status, _) =
                http_call(&addr_a, "GET", &format!("/v1/cache/{chain_a_fp}"), None).unwrap();
            status == 200
        }),
        "the owner never received the replicated entry"
    );
    let metrics_a = metrics_text(&addr_a);
    assert_eq!(
        metric_value(&metrics_a, "tessel_cluster_replications_received_total"),
        1
    );
    let metrics_b = metrics_text(&addr_b);
    assert_eq!(
        metric_value(&metrics_b, "tessel_cluster_replications_sent_total"),
        1
    );
    assert!(metric_value(&metrics_b, "tessel_cluster_remote_misses_total") >= 1);

    // The cluster status endpoint sees a healthy fleet and resolves owners.
    let (status, cluster_doc) = http_call(
        &addr_b,
        "GET",
        &format!("/v1/cluster?fp={chain_a_fp}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(
        cluster_doc.contains(&format!("\"node\":\"{id_a}\"")),
        "{cluster_doc}"
    );
    assert!(cluster_doc.contains("\"is_local\":false"), "{cluster_doc}");

    // --- Warm-up after an owner restart -----------------------------------
    // Kill A, restart it empty on the same address, and warm it from B. B
    // holds two entries owned by A (the v-shape it adopted on the remote
    // hit, and the replicated chain), so the fresh A recovers both without
    // solving anything.
    server_a.shutdown();
    drop(service_a);
    let listener_a2 = TcpListener::bind(&addr_a).expect("rebind the owner's address");
    let (server_a2, service_a2) = start_node(
        id_a,
        listener_a2,
        vec![PeerConfig {
            node_id: id_b.into(),
            addr: addr_b.clone(),
        }],
    );
    let warmed = service_a2.warm_cache_from_peers();
    assert_eq!(warmed, 2, "restarted owner warms its shard from the peer");
    assert_eq!(service_a2.cache_entries().len(), 2);
    let metrics_a2 = metrics_text(&addr_a);
    assert_eq!(
        metric_value(&metrics_a2, "tessel_cluster_warmup_entries_total"),
        2
    );
    // The warmed entry serves a cache hit without a solve.
    let (_, warmed_hit) = post_search(&addr_a, &placement);
    assert!(warmed_hit.cached);
    assert_eq!(warmed_hit.period, first.period);

    // --- Degrade when a peer dies mid-fleet --------------------------------
    // Kill A for good. B must keep answering placements A owns by solving
    // locally: slower, never a failed request.
    server_a2.shutdown();
    drop(service_a2);
    let (_, chain_dead) = chain_owned_by(&ring_b, id_a, 100);
    let (_, degraded) = post_search(&addr_b, &chain_dead);
    assert!(!degraded.cached, "degraded request solves locally");
    let metrics_b = metrics_text(&addr_b);
    assert!(metric_value(&metrics_b, "tessel_cluster_remote_errors_total") >= 1);
    // Another A-owned placement also succeeds (by now the breaker may be
    // open, which must look exactly the same to the client).
    let (_, degraded_again) = post_search(&addr_b, &chain_owned_by(&ring_b, id_a, 200).1);
    assert!(!degraded_again.cached);
    // The health prober notices the dead peer and opens its circuit.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (_, doc) = http_call(&addr_b, "GET", "/v1/cluster", None).unwrap();
            doc.contains("\"circuit_open\":true")
        }),
        "the dead peer's circuit never opened"
    );

    server_b.shutdown();
}

/// PUTs one exchange to `addr` and returns the owner's ack (the route
/// answers 200 when anything was accepted, 400 with the same ack body when
/// every entry was rejected).
fn put_replication(addr: &str, exchange: &CacheExchange) -> ReplicationAck {
    let body = serde_json::to_string(exchange).unwrap();
    let path = format!("/v1/cache/{}", exchange.fingerprint);
    let (status, response) = http_call(addr, "PUT", &path, Some(&body)).unwrap();
    assert!(status == 200 || status == 400, "{status}: {response}");
    serde_json::from_str(&response).unwrap()
}

/// A full wire entry built from a search of `canon_placement` ITSELF — the
/// request labeling then *is* canonical labeling, so the schedule slots
/// straight into a replication payload.
fn full_entry_from_search(
    fingerprint: tessel_core::fingerprint::Fingerprint,
    canon_placement: &PlacementSpec,
    response: &SearchResponse,
) -> WireSearchEntry {
    WireSearchEntry {
        fingerprint,
        params: CacheParams {
            num_micro_batches: response.num_micro_batches,
            max_repetend_micro_batches: 3,
        },
        canonical_placement: Some(canon_placement.clone()),
        schedule: response.schedule.clone(),
        period: response.period,
        repetend_micro_batches: response.repetend_micro_batches,
        bubble_rate: response.bubble_rate,
        utilization: response.utilization.clone(),
        solver: tessel_solver::SolverTotals::default(),
        search_millis: response.search_millis,
    }
}

/// A fleet round-trips relabeled traffic — remote hits and replication
/// succeed, and honest traffic trips no wire-mismatch counter. A poisoned
/// replication payload (a *consistent* entry whose placement simply is not
/// the claimed fingerprint's placement) passes every structural check and
/// is caught by the unconditional wire re-canonicalization.
#[test]
fn a_fleet_round_trips_and_catches_mislabeled_replication() {
    let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
    let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = listener_a.local_addr().unwrap().to_string();
    let addr_b = listener_b.local_addr().unwrap().to_string();
    let placement = v_shape(3);
    let fingerprint = placement.canonicalize().fingerprint;
    let ring = HashRing::new(["alpha", "beta"], VNODES);
    let (id_a, id_b) = if ring.owner_of(fingerprint) == "alpha" {
        ("alpha", "beta")
    } else {
        ("beta", "alpha")
    };
    let (server_a, service_a) = start_node(
        id_a,
        listener_a,
        vec![PeerConfig {
            node_id: id_b.into(),
            addr: addr_b.clone(),
        }],
    );
    let (server_b, _service_b) = start_node(
        id_b,
        listener_b,
        vec![PeerConfig {
            node_id: id_a.into(),
            addr: addr_a.clone(),
        }],
    );
    assert!(service_a.cluster().unwrap().owns(fingerprint));

    // Remote hit: solve on the owner, fetch a relabeled variant via the peer.
    let (_, first) = post_search(&addr_a, &placement);
    assert!(!first.cached);
    let order: Vec<usize> = (0..placement.num_blocks()).collect();
    let permuted = placement.permuted(&[2, 0, 1], &order).unwrap();
    let (_, second) = post_search(&addr_b, &permuted);
    assert!(second.cached, "a relabeled remote request must hit");
    assert_eq!(second.period, first.period);
    second.schedule.validate(&permuted).unwrap();

    // Replication: solve an A-owned placement on B, owner adopts it.
    let (_, chain_a) = chain_owned_by(&HashRing::new([id_a, id_b], VNODES), id_a, 1);
    let chain_a_fp = chain_a.canonicalize().fingerprint;
    post_search(&addr_b, &chain_a);
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (status, _) =
                http_call(&addr_a, "GET", &format!("/v1/cache/{chain_a_fp}"), None).unwrap();
            status == 200
        }),
        "the owner never accepted the replicated entry"
    );

    // A local re-request of the adopted entry is a local hit.
    let (_, again) = post_search(&addr_b, &permuted);
    assert!(again.cached);

    for addr in [&addr_a, &addr_b] {
        assert_eq!(
            metric_value(
                &metrics_text(addr),
                "tessel_fingerprint_wire_mismatches_total"
            ),
            0,
            "honest traffic must not trip the wire-mismatch counter"
        );
    }

    // Poison: claim fingerprint F (owned by A) for an entry whose placement
    // and schedule really belong to a DIFFERENT chain G. Every structural
    // check passes — only re-canonicalization exposes the lie.
    let ring_ab = HashRing::new([id_a, id_b], VNODES);
    let (tag_f, chain_f) = chain_owned_by(&ring_ab, id_a, 50);
    let fp_f = chain_f.canonicalize().fingerprint;
    let canon_g = chain_owned_by(&ring_ab, id_a, tag_f + 1).1.canonicalize();
    let (_, solved_g) = post_search(&addr_b, &canon_g.placement);
    let poisoned = full_entry_from_search(fp_f, &canon_g.placement, &solved_g);
    let ack = put_replication(
        &addr_a,
        &CacheExchange {
            fingerprint: fp_f,
            entries: vec![poisoned],
        },
    );
    assert_eq!(
        (ack.accepted, ack.rejected),
        (0, 1),
        "poisoned entry adopted"
    );
    assert_eq!(
        metric_value(
            &metrics_text(&addr_a),
            "tessel_fingerprint_wire_mismatches_total"
        ),
        1,
        "the catch must be visible in the wire-mismatch metric"
    );

    server_a.shutdown();
    server_b.shutdown();
}

/// Corrupted replication payloads are rejected by structural validation in
/// structural validation: a slim entry with no placement, an
/// entry whose inner fingerprint contradicts the exchange, and a tampered
/// schedule that does not validate against the shipped placement.
#[test]
fn corrupted_replication_payloads_are_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A single-member ring owns every fingerprint, so ownership never gets
    // in the way of the corruption checks.
    let (server, _service) = start_node("solo", listener, Vec::new());

    let canon = chain_shape(7).canonicalize();
    let fp = canon.fingerprint;
    let (_, solved) = post_search(&addr, &canon.placement);
    let valid = full_entry_from_search(fp, &canon.placement, &solved);

    // Sanity: the hand-built full entry passes the same validation gate.
    let ack = put_replication(
        &addr,
        &CacheExchange {
            fingerprint: fp,
            entries: vec![valid.clone()],
        },
    );
    assert_eq!((ack.accepted, ack.rejected), (1, 0), "valid entry rejected");

    // Corruption 1: a slim entry (placement stripped) on the PUT path — the
    // owner has nothing to validate the schedule against, so it must reject.
    let mut slim = valid.clone();
    slim.canonical_placement = None;
    // Corruption 2: the inner fingerprint contradicts the exchange header.
    let mut mislabeled = valid.clone();
    mislabeled.fingerprint = tessel_core::fingerprint::Fingerprint(fp.0 ^ 1);
    // Corruption 3: a tampered schedule — durations from a different chain —
    // that no longer validates against the shipped placement.
    let other = chain_shape(8).canonicalize();
    let (_, other_solved) = post_search(&addr, &other.placement);
    let mut tampered = valid.clone();
    tampered.schedule = other_solved.schedule.clone();

    for (what, entry) in [
        ("slim entry", slim),
        ("mislabeled fingerprint", mislabeled),
        ("tampered schedule", tampered),
    ] {
        let ack = put_replication(
            &addr,
            &CacheExchange {
                fingerprint: fp,
                entries: vec![entry],
            },
        );
        assert_eq!(
            (ack.accepted, ack.rejected),
            (0, 1),
            "{what} must be rejected"
        );
    }
    // Structural rejections do not trip the re-canonicalization counter:
    // the three payloads above never reach the fingerprint re-verification.
    assert_eq!(
        metric_value(
            &metrics_text(&addr),
            "tessel_fingerprint_wire_mismatches_total"
        ),
        0
    );

    // Corruption 4 — the cache-poisoning regression: a fully *consistent*
    // entry (chain-8's placement with chain-8's valid schedule) claiming
    // chain-7's fingerprint. Every structural check passes; the
    // unconditional re-canonicalization must still reject it, or a later
    // request for chain-7 would be served chain-8's schedule.
    let poisoned = full_entry_from_search(fp, &other.placement, &other_solved);
    let ack = put_replication(
        &addr,
        &CacheExchange {
            fingerprint: fp,
            entries: vec![poisoned],
        },
    );
    assert_eq!(
        (ack.accepted, ack.rejected),
        (0, 1),
        "consistent-but-mislabeled entry must be rejected"
    );
    assert_eq!(
        metric_value(
            &metrics_text(&addr),
            "tessel_fingerprint_wire_mismatches_total"
        ),
        1,
        "the catch must be visible in the wire-mismatch metric"
    );
    // The poison left no trace in the cache: chain-7's fingerprint still
    // serves chain-7's own schedule.
    let (_, again) = post_search(&addr, &canon.placement);
    assert!(again.cached, "the real entry must still be served");
    again.schedule.validate(&canon.placement).unwrap();

    server.shutdown();
}
