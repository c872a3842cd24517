//! `tessel-client`: CLI client for the schedule-search daemon.
//!
//! ```bash
//! tessel-client --addr 127.0.0.1:7700 health
//! tessel-client search --shape v4 --micro-batches 8
//! tessel-client search --shape v4 --repeat 3
//! tessel-client search --shape v4 --timing
//! tessel-client search --shape v6 --stream
//! tessel-client search --placement-file my_placement.json --deadline-ms 500
//! tessel-client cache
//! tessel-client inspect 1a2b3c4d5e6f7081
//! tessel-client metrics
//! ```
//!
//! `search` accepts either `--placement-file` (a JSON `PlacementSpec`) or
//! `--shape KIND DEVICES` shorthand (`v4`, `x2`, `m8`, `k4`, `nn8`) built
//! from the paper's synthetic shapes. `--repeat N` issues the same request
//! `N` times over **one kept-alive TCP connection** (the daemon's
//! keep-alive transport serves them all on a single socket; repeats after
//! the first are expected to report `"cached":true`). Each response body is
//! printed on its own line; any non-2xx status exits non-zero.
//!
//! `search --stream` asks the daemon for anytime incumbent streaming
//! (`POST /v1/search?stream=1`): the period of each repetend that improves
//! the search's answer prints to stderr with its elapsed time the moment the
//! daemon finds it, and the final response JSON prints to stdout.
//!
//! Many searches of one placement cost one solve without a batch call: the
//! daemon's canonical-fingerprint cache answers relabeled repeats, and
//! concurrent identical misses coalesce onto a single in-flight search.

use std::process::exit;
use tessel_placement::shapes::{synthetic_placement, ShapeKind};
use tessel_service::http::{http_call, http_call_streaming};
use tessel_service::wire::{SearchRequest, StreamEvent};
use tessel_service::HttpClient;

/// The `usage` text; every flag the parser matches is named here, and
/// nothing else (a unit test holds the two to each other).
const USAGE: &str = "\
usage: tessel-client [--addr HOST:PORT] COMMAND
commands:
  health                              liveness probe
  metrics                             Prometheus metrics
  cache                               list cache entries
  inspect FINGERPRINT                 inspect one fingerprint
  cluster [--fp FINGERPRINT]          ring membership and peer health
                                      (--fp also reports the owner)
  top [--interval-ms MS] [--window N] [--cluster] [--once]
                                      live terminal dashboard of the
                                      daemon's sampled rates and
                                      in-flight requests; --cluster
                                      fans out to every ring member,
                                      --once prints one frame and
                                      exits (for scripts/CI)
  fingerprint [--placement-file PATH | --shape KINDn]
                                      print the canonical fingerprint
                                      (computed locally, no daemon)
  search [--placement-file PATH | --shape KINDn]
         [--rotate-devices N]
         [--micro-batches N] [--max-repetend N] [--deadline-ms MS]
         [--priority N] [--repeat N]
         [--timing] [--stream] [--dry-run]

search --repeat N issues the request N times over one kept-alive
TCP connection (later repeats hit the daemon's result cache).
search --timing prints each response's Server-Timing per-stage
breakdown (and trace ID) to stderr, one line per request; stdout
stays pure response JSON.
search --rotate-devices N relabels the placement's devices by a
rotation of N before sending — the daemon still answers from the
canonical-fingerprint cache and translates the schedule back.
search --stream streams each improving period to stderr as the
daemon finds it (period + elapsed ms); the final response JSON
prints to stdout when the search completes.
search --priority N raises (or, negative, lowers) the request's
admission priority under daemon overload.
search --dry-run prints the request body JSON that would be sent
without contacting the daemon — handy for piping to curl.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// The value after `flag`, parsed; a missing or unparsable one is a usage
/// error naming the flag.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(parsed) => parsed,
        None => {
            eprintln!("error: {flag} needs a valid value");
            usage()
        }
    }
}

/// Builds the placement shared by `search` and `fingerprint`:
/// `--placement-file PATH` or `--shape KINDn`.
fn placement_from_flags(
    path: Option<&str>,
    shape: Option<&str>,
) -> Option<tessel_core::ir::PlacementSpec> {
    if let Some(path) = path {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                exit(1)
            }
        };
        match serde_json::from_str(&text) {
            Ok(parsed) => return Some(parsed),
            Err(e) => {
                eprintln!("error: {path} is not a valid placement: {e}");
                exit(1)
            }
        }
    }
    if let Some(spec) = shape {
        match parse_shape(spec) {
            Some(built) => return Some(built),
            None => {
                eprintln!("error: unknown shape `{spec}` (try v4, x2, m8, k4, nn8)");
                exit(1)
            }
        }
    }
    None
}

fn parse_shape(spec: &str) -> Option<tessel_core::ir::PlacementSpec> {
    let spec = spec.to_lowercase();
    let (kind, devices) = if let Some(rest) = spec.strip_prefix("nn") {
        (ShapeKind::NN, rest)
    } else if let Some(rest) = spec.strip_prefix('v') {
        (ShapeKind::V, rest)
    } else if let Some(rest) = spec.strip_prefix('x') {
        (ShapeKind::X, rest)
    } else if let Some(rest) = spec.strip_prefix('m') {
        (ShapeKind::M, rest)
    } else if let Some(rest) = spec.strip_prefix('k') {
        (ShapeKind::K, rest)
    } else {
        return None;
    };
    let devices: usize = devices.parse().ok()?;
    synthetic_placement(kind, devices).ok()
}

/// Prints one `--timing` line to stderr: the request's trace ID and the
/// `Server-Timing` per-stage breakdown
/// (`timing[<trace>]: parse=0.012ms solve=3.400ms ...`).
fn print_timing(headers: &[(String, String)]) {
    let lookup = |wanted: &str| {
        headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(wanted))
            .map(|(_, value)| value.as_str())
    };
    let trace = lookup("x-tessel-trace-id").unwrap_or("-");
    match lookup("server-timing") {
        Some(value) => {
            let stages: Vec<String> = value
                .split(',')
                .map(|part| {
                    let part = part.trim();
                    match part.split_once(";dur=") {
                        Some((name, ms)) => format!("{name}={ms}ms"),
                        None => part.to_string(),
                    }
                })
                .collect();
            eprintln!("timing[{trace}]: {}", stages.join(" "));
        }
        None => eprintln!("timing[{trace}]: (no Server-Timing header in response)"),
    }
}

/// One dashboard frame for one daemon: its sampled rate/gauge window plus
/// the live in-flight table. Unreachable daemons render as a one-line note
/// so a dying fleet member never kills the dashboard.
fn render_top_frame(addr: &str, window: usize, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "── {addr} ──");
    match http_call(
        addr,
        "GET",
        &format!("/v1/debug/timeseries?window={window}"),
        None,
    ) {
        Ok((200, body)) => {
            match serde_json::from_str::<tessel_service::wire::TimeseriesResponse>(&body) {
                Ok(series) => {
                    let _ = writeln!(
                        out,
                        "  {:<20} {:>10} {:>10} {:>10} {:>10}",
                        "series", "last", "avg", "p95", "max"
                    );
                    for s in &series.series {
                        let _ = writeln!(
                            out,
                            "  {:<20} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                            s.name, s.last, s.avg, s.p95, s.max
                        );
                    }
                    let _ = writeln!(
                        out,
                        "  ({} ticks @ {} ms)",
                        series.ticks, series.interval_ms
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "  (unparseable timeseries: {e})");
                }
            }
        }
        Ok((404, _)) => {
            let _ = writeln!(out, "  (sampler disabled on this daemon)");
        }
        Ok((status, _)) => {
            let _ = writeln!(out, "  (timeseries returned status {status})");
        }
        Err(e) => {
            let _ = writeln!(out, "  (unreachable: {e})");
            return;
        }
    }
    match http_call(addr, "GET", "/v1/debug/inflight", None) {
        Ok((200, body)) => {
            match serde_json::from_str::<tessel_service::wire::InflightResponse>(&body) {
                Ok(inflight) if inflight.inflight.is_empty() => {
                    let _ = writeln!(out, "  in-flight: none");
                }
                Ok(inflight) => {
                    let _ = writeln!(
                        out,
                        "  {:<12} {:<22} {:<17} {:>9} {:>9} {:>12} {:>10}",
                        "trace", "request", "stage", "elapsed", "deadline", "nodes", "incumbent"
                    );
                    for entry in &inflight.inflight {
                        let trace = entry.trace_id.get(..12).unwrap_or(&entry.trace_id);
                        let deadline = entry
                            .deadline_remaining_ms
                            .map_or_else(|| "-".to_string(), |ms| format!("{ms}ms"));
                        let incumbent = entry
                            .incumbent
                            .map_or_else(|| "-".to_string(), |value| value.to_string());
                        let _ = writeln!(
                            out,
                            "  {:<12} {:<22} {:<17} {:>8}ms {:>9} {:>12} {:>10}",
                            trace,
                            format!("{} {}", entry.method, entry.path),
                            entry.stage,
                            entry.elapsed_ms,
                            deadline,
                            entry.nodes,
                            incumbent
                        );
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "  (unparseable inflight: {e})");
                }
            }
        }
        Ok((status, _)) => {
            let _ = writeln!(out, "  (inflight returned status {status})");
        }
        Err(e) => {
            let _ = writeln!(out, "  (unreachable: {e})");
        }
    }
}

/// The daemon addresses the `top` dashboard polls: just `addr`, or — with
/// `--cluster` — `addr` plus every peer the daemon's `/v1/cluster` lists.
fn top_targets(addr: &str, cluster: bool) -> Vec<String> {
    let mut targets = vec![addr.to_string()];
    if !cluster {
        return targets;
    }
    match http_call(addr, "GET", "/v1/cluster", None) {
        Ok((200, body)) => {
            match serde_json::from_str::<tessel_service::wire::ClusterStatusResponse>(&body) {
                Ok(status) => {
                    for peer in status.peers {
                        if !targets.contains(&peer.addr) {
                            targets.push(peer.addr);
                        }
                    }
                }
                Err(e) => eprintln!("warning: unparseable /v1/cluster response: {e}"),
            }
        }
        Ok((404, _)) => eprintln!("warning: {addr} is not in cluster mode; watching it alone"),
        Ok((status, _)) => eprintln!("warning: /v1/cluster returned status {status}"),
        Err(e) => eprintln!("warning: cannot reach {addr} for membership: {e}"),
    }
    targets
}

fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> ! {
    match http_call(addr, method, path, body) {
        Ok((status, body)) => {
            println!("{body}");
            exit(if (200..300).contains(&status) { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e}");
            exit(1)
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7700".to_string();
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Global --addr may appear before the command.
    if args.len() >= 2 && args[0] == "--addr" {
        addr = args[1].clone();
        args.drain(0..2);
    }
    let Some(command) = args.first().cloned() else {
        usage()
    };
    let rest = &args[1..];

    match command.as_str() {
        "health" => call(&addr, "GET", "/healthz", None),
        "metrics" => call(&addr, "GET", "/metrics", None),
        "cache" => call(&addr, "GET", "/v1/cache", None),
        "inspect" => {
            let Some(fingerprint) = rest.first() else {
                eprintln!("error: inspect needs a fingerprint");
                usage()
            };
            call(&addr, "GET", &format!("/v1/cache/{fingerprint}"), None)
        }
        "cluster" => {
            let path = match rest {
                [] => "/v1/cluster".to_string(),
                [flag, fingerprint] if flag == "--fp" => format!("/v1/cluster?fp={fingerprint}"),
                _ => {
                    eprintln!("error: cluster takes an optional --fp FINGERPRINT");
                    usage()
                }
            };
            call(&addr, "GET", &path, None)
        }
        "top" => {
            let mut interval_ms = 1000u64;
            let mut window = 60usize;
            let mut cluster = false;
            let mut once = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--interval-ms" => interval_ms = parse_value(flag, it.next()),
                    "--window" => {
                        window = match it.next().and_then(|v| v.parse().ok()) {
                            Some(n) if n >= 1 => n,
                            _ => {
                                eprintln!("error: --window needs a tick count of at least 1");
                                usage()
                            }
                        };
                    }
                    "--cluster" => cluster = true,
                    "--once" => once = true,
                    other => {
                        eprintln!("error: unknown top flag `{other}`");
                        usage()
                    }
                }
            }
            let targets = top_targets(&addr, cluster);
            loop {
                let mut frame = String::new();
                for target in &targets {
                    render_top_frame(target, window, &mut frame);
                }
                if once {
                    print!("{frame}");
                    exit(0)
                }
                // One ANSI clear + home per refresh keeps the dashboard
                // in place instead of scrolling.
                print!("\x1b[2J\x1b[H{frame}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
            }
        }
        "fingerprint" => {
            let mut placement_file = None;
            let mut shape = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--placement-file" => placement_file = it.next().map(String::as_str),
                    "--shape" => shape = it.next().map(String::as_str),
                    other => {
                        eprintln!("error: unknown fingerprint flag `{other}`");
                        usage()
                    }
                }
            }
            let Some(placement) = placement_from_flags(placement_file, shape) else {
                eprintln!("error: fingerprint needs --placement-file or --shape");
                usage()
            };
            println!("{}", placement.canonicalize().fingerprint);
            exit(0)
        }
        "search" => {
            let mut placement_file = None;
            let mut shape = None;
            let mut rotate_devices = 0usize;
            let mut request_micro_batches = None;
            let mut request_max_repetend = None;
            let mut deadline_ms = None;
            let mut priority = None;
            let mut repeat = 1usize;
            let mut timing = false;
            let mut stream = false;
            let mut dry_run = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--placement-file" => {
                        let Some(path) = it.next() else { usage() };
                        placement_file = Some(path.as_str());
                    }
                    "--shape" => {
                        let Some(spec) = it.next() else { usage() };
                        shape = Some(spec.as_str());
                    }
                    "--rotate-devices" => rotate_devices = parse_value(flag, it.next()),
                    "--micro-batches" => {
                        request_micro_batches = Some(parse_value(flag, it.next()));
                    }
                    "--max-repetend" => {
                        request_max_repetend = Some(parse_value(flag, it.next()));
                    }
                    "--deadline-ms" => deadline_ms = Some(parse_value(flag, it.next())),
                    "--priority" => priority = Some(parse_value(flag, it.next())),
                    "--timing" => timing = true,
                    "--stream" => stream = true,
                    "--dry-run" => dry_run = true,
                    "--repeat" => {
                        repeat = match it.next().and_then(|v| v.parse().ok()) {
                            Some(n) if n >= 1 => n,
                            _ => {
                                eprintln!("error: --repeat needs a count of at least 1");
                                usage()
                            }
                        };
                    }
                    other => {
                        eprintln!("error: unknown search flag `{other}`");
                        usage()
                    }
                }
            }
            let Some(mut placement) = placement_from_flags(placement_file, shape) else {
                eprintln!("error: search needs --placement-file or --shape");
                usage()
            };
            if rotate_devices > 0 {
                // Relabel device d as (d + N) mod D, keeping block order.
                // The canonical fingerprint is invariant under this, so a
                // clustered daemon still serves the rotated request from the
                // shared logical cache.
                let d = placement.num_devices();
                let perm: Vec<usize> = (0..d).map(|dev| (dev + rotate_devices) % d).collect();
                let order: Vec<usize> = (0..placement.num_blocks()).collect();
                placement = match placement.permuted(&perm, &order) {
                    Ok(rotated) => rotated,
                    Err(e) => {
                        eprintln!("error: cannot rotate devices: {e}");
                        exit(1)
                    }
                };
            }
            let request = SearchRequest {
                placement,
                num_micro_batches: request_micro_batches,
                max_repetend_micro_batches: request_max_repetend,
                deadline_ms,
                priority,
            };
            let body = match serde_json::to_string(&request) {
                Ok(body) => body,
                Err(e) => {
                    eprintln!("error: cannot serialize request: {e}");
                    exit(1)
                }
            };
            if dry_run {
                println!("{body}");
                exit(0)
            }
            if stream {
                // Anytime mode: improving periods narrate on stderr as the
                // daemon finds them; stdout stays pure final-response JSON.
                let begun = std::time::Instant::now();
                let outcome = http_call_streaming(&addr, "/v1/search?stream=1", &body, |event| {
                    if let Ok(StreamEvent::Incumbent { value, elapsed_ms }) =
                        serde_json::from_str::<StreamEvent>(event)
                    {
                        eprintln!(
                            "incumbent: period={value} server={elapsed_ms}ms client={}ms",
                            begun.elapsed().as_millis()
                        );
                    }
                });
                match outcome {
                    Ok((status, last)) => match serde_json::from_str::<StreamEvent>(&last) {
                        Ok(StreamEvent::Result(response)) => {
                            match serde_json::to_string(&response) {
                                Ok(rendered) => println!("{rendered}"),
                                Err(_) => println!("{last}"),
                            }
                            exit(0)
                        }
                        Ok(StreamEvent::Error { status, body }) => {
                            eprintln!("error: search failed with status {status}");
                            match serde_json::to_string(&body) {
                                Ok(rendered) => println!("{rendered}"),
                                Err(_) => println!("{last}"),
                            }
                            exit(1)
                        }
                        // A non-streamed transport error (shed, queue full):
                        // the payload is a plain error body.
                        _ => {
                            println!("{last}");
                            exit(i32::from(!(200..300).contains(&status)))
                        }
                    },
                    Err(e) => {
                        eprintln!("error: streaming request failed: {e}");
                        exit(1)
                    }
                }
            }
            // One kept-alive connection carries every repeat: the first
            // request warms the daemon's cache, later ones exercise the
            // keep-alive transport and report `"cached":true`.
            let mut client = match HttpClient::new(&addr) {
                Ok(client) => client,
                Err(e) => {
                    eprintln!("error: cannot reach {addr}: {e}");
                    exit(1)
                }
            };
            let mut all_ok = true;
            for _ in 0..repeat {
                match client.call_with_headers("POST", "/v1/search", Some(&body), &[]) {
                    Ok((status, headers, response)) => {
                        println!("{response}");
                        if timing {
                            print_timing(&headers);
                        }
                        all_ok &= (200..300).contains(&status);
                    }
                    Err(e) => {
                        eprintln!("error: request failed: {e}");
                        exit(1)
                    }
                }
            }
            exit(i32::from(!all_ok))
        }
        _ => usage(),
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
            include_str!("tessel_client.rs"),
        );
    }
}
