//! `tessel-server`: the schedule-search daemon.
//!
//! ```bash
//! tessel-server --addr 127.0.0.1:7700 --workers 4 --cache-file tessel-cache.json
//! ```
//!
//! Prints the bound address on startup (useful with `--addr 127.0.0.1:0`)
//! and serves until killed. See the crate docs for the HTTP routes.
//!
//! A fleet of daemons shares one logical cache when each member is started
//! with its own `--node-id` and a `--peer ID=HOST:PORT` flag per sibling:
//!
//! ```bash
//! tessel-server --addr 127.0.0.1:7700 --node-id a --peer b=127.0.0.1:7701
//! tessel-server --addr 127.0.0.1:7701 --node-id b --peer a=127.0.0.1:7700
//! ```

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use tessel_service::{
    ClusterConfig, HttpServer, PeerConfig, ScheduleService, ServerConfig, ServiceConfig,
};

/// The `--help` text; every flag the parser matches is named here, and
/// nothing else (a unit test holds the two to each other).
const USAGE: &str = "\
usage: tessel-server [--addr HOST:PORT] [--workers N] [--queue-depth N]
                   [--idle-timeout-ms MS] [--max-pipelined N]
                   [--max-conns-per-ip N] [--sample-interval-ms MS]
                   [--cache-file PATH] [--cache-capacity N] [--cache-shards N]
                   [--journal-compact-every N]
                   [--micro-batches N] [--max-repetend N]
                   [--default-deadline-ms MS]
                   [--node-id ID] [--peer ID=HOST:PORT]...
                   [--cluster-vnodes N] [--probe-interval-ms MS]
                   [--peer-timeout-ms MS] [--circuit-cooldown-ms MS]
                   [--canon-node-budget N]
                   [--log-level error|warn|info|debug|trace]
                   [--log-format text|json] [--help]

logging goes to stderr; --log-format json emits one JSON object
per line (each served request logs one line carrying its trace ID).

cluster mode: give this daemon a --node-id and one --peer flag per
sibling; the fleet then shares one logical cache sharded by a
consistent-hash ring over the canonical placement fingerprint.

a full request queue (--queue-depth) admits the newcomer and sheds
the waiting request with the lowest priority / largest queue share /
latest deadline (429 + Retry-After).

--sample-interval-ms sets the live-plane sampling cadence behind
GET /v1/debug/timeseries and `tessel-client top` (default 1000;
0 disables the sampler).";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(parsed) => parsed,
        None => {
            eprintln!("error: {flag} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let mut server_config = ServerConfig::default();
    let mut service_config = ServiceConfig::default();
    let mut log_level = tessel_obs::Level::Info;
    let mut log_format = tessel_obs::LogFormat::Text;
    let mut node_id: Option<String> = None;
    let mut peers: Vec<PeerConfig> = Vec::new();
    let mut cluster_vnodes: Option<usize> = None;
    let mut probe_interval: Option<Duration> = None;
    let mut peer_timeout: Option<Duration> = None;
    let mut circuit_cooldown: Option<Duration> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => server_config.addr = parse_value(&flag, args.next()),
            "--workers" => server_config.workers = parse_value(&flag, args.next()),
            "--queue-depth" => server_config.queue_depth = parse_value(&flag, args.next()),
            "--idle-timeout-ms" => {
                server_config.idle_timeout = Duration::from_millis(parse_value(&flag, args.next()));
            }
            "--max-pipelined" => server_config.max_pipelined = parse_value(&flag, args.next()),
            "--max-conns-per-ip" => {
                server_config.max_conns_per_ip = parse_value(&flag, args.next());
            }
            "--sample-interval-ms" => {
                server_config.sample_interval_ms = parse_value(&flag, args.next());
            }
            "--cache-file" => {
                service_config.cache_path = Some(parse_value::<String>(&flag, args.next()).into());
            }
            "--cache-capacity" => {
                service_config.cache.capacity_per_shard = parse_value(&flag, args.next());
            }
            "--cache-shards" => service_config.cache.shards = parse_value(&flag, args.next()),
            "--journal-compact-every" => {
                service_config.journal_compact_every = parse_value(&flag, args.next());
            }
            "--micro-batches" => {
                service_config.default_micro_batches = parse_value(&flag, args.next());
            }
            "--max-repetend" => {
                service_config.default_max_repetend = parse_value(&flag, args.next());
            }
            "--default-deadline-ms" => {
                service_config.default_deadline =
                    Some(Duration::from_millis(parse_value(&flag, args.next())));
            }
            "--canon-node-budget" => {
                service_config.canon_node_budget = parse_value(&flag, args.next());
            }
            "--log-level" => log_level = parse_value(&flag, args.next()),
            "--log-format" => log_format = parse_value(&flag, args.next()),
            "--node-id" => node_id = Some(parse_value(&flag, args.next())),
            "--peer" => {
                let spec: String = parse_value(&flag, args.next());
                let Some((id, addr)) = spec.split_once('=') else {
                    eprintln!("error: --peer needs ID=HOST:PORT, got `{spec}`");
                    usage()
                };
                peers.push(PeerConfig {
                    node_id: id.to_string(),
                    addr: addr.to_string(),
                });
            }
            "--cluster-vnodes" => cluster_vnodes = Some(parse_value(&flag, args.next())),
            "--probe-interval-ms" => {
                probe_interval = Some(Duration::from_millis(parse_value(&flag, args.next())));
            }
            "--peer-timeout-ms" => {
                peer_timeout = Some(Duration::from_millis(parse_value(&flag, args.next())));
            }
            "--circuit-cooldown-ms" => {
                circuit_cooldown = Some(Duration::from_millis(parse_value(&flag, args.next())));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage()
            }
        }
    }

    tessel_obs::init(log_level, log_format);

    match &node_id {
        Some(node_id) => {
            let mut cluster = ClusterConfig::new(node_id.clone(), peers);
            if let Some(vnodes) = cluster_vnodes {
                cluster.vnodes = vnodes;
            }
            if let Some(interval) = probe_interval {
                cluster.probe_interval = interval;
            }
            if let Some(timeout) = peer_timeout {
                cluster.peer_timeout = timeout;
            }
            if let Some(cooldown) = circuit_cooldown {
                cluster.circuit_cooldown = cooldown;
            }
            service_config.cluster = Some(cluster);
        }
        None => {
            // Cluster flags without an identity would be silently dead
            // configuration; refuse instead.
            let stray_cluster_flag = !peers.is_empty()
                || cluster_vnodes.is_some()
                || probe_interval.is_some()
                || peer_timeout.is_some()
                || circuit_cooldown.is_some();
            if stray_cluster_flag {
                eprintln!("error: cluster flags (--peer, --cluster-vnodes, --probe-interval-ms, --peer-timeout-ms, --circuit-cooldown-ms) require --node-id");
                usage()
            }
        }
    }

    let service = match ScheduleService::new(service_config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            tessel_obs::error(
                "server",
                "cannot initialise service",
                &[("error", &e.to_string())],
            );
            exit(1);
        }
    };
    let warm = service.cache_entries().len();
    let server = match HttpServer::serve(service.clone(), &server_config) {
        Ok(server) => server,
        Err(e) => {
            tessel_obs::error(
                "server",
                "cannot bind listen address",
                &[("addr", &server_config.addr), ("error", &e.to_string())],
            );
            exit(1);
        }
    };
    // Stdout keeps the one line scripts grep for (`--addr 127.0.0.1:0`
    // discovery); everything else goes through the structured logger.
    println!("tessel-server listening on http://{}", server.local_addr());
    tessel_obs::info(
        "server",
        "listening",
        &[("addr", &server.local_addr().to_string())],
    );
    if warm > 0 {
        tessel_obs::info(
            "server",
            "cache warm-started from journal",
            &[("entries", &warm.to_string())],
        );
    }
    if let Some(cluster) = service.cluster() {
        tessel_obs::info(
            "server",
            "cluster member starting",
            &[
                ("node", cluster.node_id()),
                ("ring", &format!("{:?}", cluster.ring().nodes())),
            ],
        );
        // Warm this node's shard of the logical cache from its peers without
        // delaying readiness: the daemon serves (solving if needed) while
        // the stream runs. (`warm_from_peers` logs the summary, with the
        // warm-up trace ID.)
        let warmer = service.clone();
        std::thread::spawn(move || {
            warmer.warm_cache_from_peers();
        });
    }
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
#[path = "shared/flag_surface.rs"]
mod flag_surface;

#[cfg(test)]
mod tests {
    #[test]
    fn the_usage_names_exactly_the_flags_the_parser_matches() {
        super::flag_surface::assert_usage_matches_parser(
            super::USAGE,
            include_str!("tessel_server.rs"),
        );
    }
}
