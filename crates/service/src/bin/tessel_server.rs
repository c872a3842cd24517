//! `tessel-server`: the schedule-search daemon.
//!
//! ```bash
//! tessel-server --addr 127.0.0.1:7700 --workers 4 --cache-file tessel-cache.json
//! ```
//!
//! Prints the bound address on startup (useful with `--addr 127.0.0.1:0`)
//! and serves until killed. See the crate docs for the HTTP routes.

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use tessel_service::{HttpServer, ScheduleService, ServerConfig, ServiceConfig};

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
                   [--canon-node-budget N]
                   [--log-level error|warn|info|debug|trace]
                   [--log-format text|json] [--help]

logging goes to stderr; --log-format json emits one JSON object
per line (each served request logs one line carrying its trace ID).

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
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage()
            }
        }
    }

    tessel_obs::init(log_level, log_format);

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
    let server = match HttpServer::serve(service, &server_config) {
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
