//! The repository's one benchmark: five workloads, four end-to-end metrics and
//! a per-layer ledger timed from outside. See `README.md` next to this
//! package's manifest and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! benchmark --all [--trace] [--repeat K] [--seed S] [--seconds T]
//! ```
//!
//! `--workload` runs one workload in this process and ends with one JSON
//! line; `--all` runs every workload in a fresh child process each, prints
//! every metric by name, and writes `results.json` under the output
//! directory.

mod check;
mod gen;
mod host;
mod metrics;
mod stats;
mod trace;
mod workload;
mod workloads;

use metrics::{END_TO_END, EXACT, PER_LAYER};
use stats::{median, percentile, relative_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::{Ctx, Layers, Segment, Workload};
use workloads::search_cold::SearchCold;
use workloads::serve::{ServeHit, ServeMiss};
use workloads::solve::{SolveExact, SolveParallel};

pub const WORKLOADS: [&str; 5] = [
    "search_cold",
    "solve_exact",
    "solve_parallel",
    "serve_hit",
    "serve_miss",
];

/// Seconds one run measures when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// A run never reports from fewer segments than this.
const MIN_SEGMENTS: usize = 3;
/// Set-up runs at least this often, and until it has taken
/// [`SETUP_BUDGET_S`] in total or run [`MAX_SETUPS`] times; `setup_s` is the
/// median. A sub-millisecond set-up so runs hundreds of times, well past the
/// process's cold start.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 0.25;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    if args.repeat == 0 || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--repeat and --seconds must be positive".into());
    }
    Ok(args)
}

/// One workload's result: the metrics by name with their units, and the
/// counts the contract's result line carries.
#[derive(Debug, Clone)]
struct RunResult {
    attempted: usize,
    failed: usize,
    segments: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Operations per second of time spent inside the timed calls — what the
/// tracing overhead is judged on, since a traced segment does its replaying
/// between operations.
fn busy_ops_per_s(segment: &Segment) -> f64 {
    segment.ops as f64 / (segment.latencies_ms.iter().sum::<f64>() / 1e3)
}

/// Sets the workload up several times over and returns the last instance,
/// still up, with the duration of every set-up.
fn set_up<W: Workload>(ctx: &Ctx) -> Result<(W, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    loop {
        let clock = Instant::now();
        let workload = W::setup(ctx)?;
        setup_s.push(clock.elapsed().as_secs_f64());
        let enough = setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S || setup_s.len() >= MAX_SETUPS;
        if setup_s.len() >= MIN_SETUPS && enough {
            return Ok((workload, setup_s));
        }
        workload.teardown();
    }
}

/// The untraced run: segments until `seconds` have been measured, every
/// end-to-end metric as the median over segments.
fn measure<W: Workload>(workload: &mut W, seconds: f64, setup_s: &[f64]) -> RunResult {
    let mut segments: Vec<Segment> = Vec::new();
    let mut measured_s = 0.0;
    while segments.len() < MIN_SEGMENTS || measured_s < seconds {
        let segment = workload.segment(segments.len());
        measured_s += segment.wall_s;
        segments.push(segment);
    }
    let over_segments =
        |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    let values = [
        over_segments(&|s| s.ops as f64 / s.wall_s),
        over_segments(&|s| median(&s.latencies_ms)),
        over_segments(&|s| s.cpu_s * 1e3 / s.ops as f64),
        median(setup_s),
    ];
    RunResult {
        attempted: segments.iter().map(|s| s.ops).sum(),
        failed: segments.iter().map(|s| s.failed).sum(),
        segments: segments.len(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| (name, unit, value))
            .collect(),
    }
}

/// The traced run: one untraced segment as the reference — it also yields
/// the two caller-side numbers that are not end-to-end metrics — then one
/// segment with spans, whose trace is written out before the result.
fn trace_run<W: Workload>(workload: &mut W, ctx: &Ctx, seconds: f64) -> Result<RunResult, String> {
    let reference = workload.segment(0);
    let reference_p99_ms = percentile(&reference.latencies_ms, 99.0);
    let reference_rss_mb = host::peak_rss_mb();
    let mut tracer = Tracer::new();
    let mut layers = Layers::new();
    let segment = workload.traced_segment(1, &mut tracer, &mut layers)?;
    let attempted = reference.ops + segment.ops;
    let failed = reference.failed + segment.failed;
    layers.extend([
        ("trace.spans", tracer.len() as f64),
        (
            "trace.overhead_share",
            1.0 - busy_ops_per_s(&segment) / busy_ops_per_s(&reference),
        ),
        ("client.latency_ms_p99", reference_p99_ms),
        ("client.peak_rss_mb", reference_rss_mb),
        (
            "client.failed_share",
            failed as f64 / attempted.max(1) as f64,
        ),
        ("client.segment_ops", W::SEGMENT_OPS as f64),
        ("client.segment_s", segment.wall_s),
    ]);
    if let Some(unknown) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _, _)| n == *k))
    {
        return Err(format!("`{unknown}` is not a per-layer metric"));
    }
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let path = ctx.out_dir.join(format!("trace-{}.json", W::NAME));
    let stamp = host::stamp(ctx.seed, seconds, &[(W::NAME, W::SEGMENT_OPS)]);
    tracer
        .write(&path, W::NAME, &stamp)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(RunResult {
        attempted,
        failed,
        segments: 1,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect(),
    })
}

fn drive<W: Workload>(ctx: &Ctx, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let (mut workload, setup_s) = set_up::<W>(ctx)?;
    let result = if traced {
        trace_run(&mut workload, ctx, seconds)
    } else {
        Ok(measure(&mut workload, seconds, &setup_s))
    };
    workload.teardown();
    result
}

fn run_workload(args: &Args, name: &str) -> Result<RunResult, String> {
    let ctx = Ctx {
        seed: args.seed,
        out_dir: host::out_dir(),
    };
    let result = match name {
        "search_cold" => drive::<SearchCold>(&ctx, args.seconds, args.trace),
        "solve_exact" => drive::<SolveExact>(&ctx, args.seconds, args.trace),
        "solve_parallel" => drive::<SolveParallel>(&ctx, args.seconds, args.trace),
        "serve_hit" => drive::<ServeHit>(&ctx, args.seconds, args.trace),
        "serve_miss" => drive::<ServeMiss>(&ctx, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }?;
    // A per-layer row reads exactly 0 when the workload bypasses the layer;
    // the result line carries those rows, the listing leaves them out.
    for (metric, unit, value) in &result.metrics {
        if args.trace && *value == 0.0 {
            continue;
        }
        println!(
            "{name:<15} {metric:<40} {value:>16.6} {unit:<6} ({} segment{}, {} ops)",
            result.segments,
            if result.segments == 1 { "" } else { "s" },
            result.attempted
        );
    }
    println!(
        "{name:<15} {:<40} {:>16.6} {:<6} ({} of {} ops failed)",
        "failed_share",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
        result.failed,
        result.attempted
    );
    Ok(result)
}

/// Runs one workload in a fresh child process and parses its result line.
fn run_child(args: &Args, name: &str, traced: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("the {name} child exited with {}", output.status));
    }
    let root: serde::Value = serde_json::from_str(last).map_err(|e| format!("{name}: {e}"))?;
    let fields = root.as_map().ok_or("result line is not an object")?;
    let number = |v: &serde::Value| match v {
        serde::Value::UInt(u) => Some(*u as f64),
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    };
    let mut values = BTreeMap::new();
    for key in ["attempted", "failed"] {
        let value = serde::field(fields, key).ok().and_then(number);
        values.insert(key.to_string(), value.ok_or(format!("{name}: no `{key}`"))?);
    }
    let metrics = serde::field(fields, "metrics").map_err(|e| e.to_string())?;
    for (metric, entry) in metrics.as_map().ok_or("`metrics` is not an object")? {
        let value = entry
            .as_map()
            .and_then(|m| serde::field(m, "value").ok())
            .and_then(number);
        values.insert(
            metric.clone(),
            value.ok_or(format!("{name}: {metric} has no value"))?,
        );
    }
    Ok(values)
}

/// `--all`: every workload in its own child process, `--repeat` times over.
fn run_all(args: &Args) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("--all measures optimized builds only; rebuild with --release".into());
    }
    // results[workload][metric] = one value per repetition.
    let mut results: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut layers: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for _ in 0..args.repeat {
        for name in WORKLOADS {
            for (metric, value) in run_child(args, name, false)? {
                results
                    .entry(name)
                    .or_default()
                    .entry(metric)
                    .or_default()
                    .push(value);
            }
            if args.trace {
                for (metric, value) in run_child(args, name, true)? {
                    layers
                        .entry(name)
                        .or_default()
                        .entry(metric)
                        .or_default()
                        .push(value);
                }
            }
        }
    }

    // Every end-to-end row against its bound.
    let mut ok = true;
    println!(
        "\n{:<15} {:<16} {:>14} {:<5} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "unit", "spread", "bound"
    );
    for name in WORKLOADS {
        let rows = &results[name];
        let failed: f64 = rows["failed"].iter().sum();
        if failed > 0.0 {
            ok = false;
            println!(
                "{name:<15} {failed} of {} operations failed",
                rows["attempted"].iter().sum::<f64>()
            );
        }
        for (metric, unit, _, bound) in END_TO_END {
            let values = &rows[metric];
            let spread = match values.len() {
                1 => 0.0,
                2 | 3 => {
                    let max = values.iter().copied().fold(f64::MIN, f64::max);
                    let min = values.iter().copied().fold(f64::MAX, f64::min);
                    (max - min) / median(values)
                }
                _ => relative_spread(values),
            };
            // `setup_s` is judged on its medians only, never on its spread.
            let within = spread <= bound || metric == "setup_s";
            ok &= within;
            println!(
                "{name:<15} {metric:<16} {:>14.4} {unit:<5} {:>7.1}% {:>5.0}%  {}",
                median(values),
                spread * 100.0,
                bound * 100.0,
                if args.repeat == 1 {
                    "-"
                } else if within {
                    "ok"
                } else {
                    "SPREAD EXCEEDS BOUND"
                }
            );
        }
    }

    // Every exact counter against its own repetitions.
    for (name, metrics) in EXACT {
        for metric in metrics {
            let values = layers.get(name).and_then(|rows| rows.get(*metric));
            if values.is_some_and(|v| v.iter().any(|x| *x != v[0])) {
                ok = false;
                println!("{name:<15} {metric} is marked exact but read {values:?}");
            }
        }
    }

    let segment_ops = [
        (SearchCold::NAME, SearchCold::SEGMENT_OPS),
        (SolveExact::NAME, SolveExact::SEGMENT_OPS),
        (SolveParallel::NAME, SolveParallel::SEGMENT_OPS),
        (ServeHit::NAME, ServeHit::SEGMENT_OPS),
        (ServeMiss::NAME, ServeMiss::SEGMENT_OPS),
    ];
    let mut out = format!(
        "{{\"host\":{},\"repeat\":{},\"workloads\":{{",
        host::stamp(args.seed, args.seconds, &segment_ops),
        args.repeat
    );
    for (i, name) in WORKLOADS.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{name}\":{{\"end_to_end\":{{",
            if i == 0 { "" } else { "," }
        );
        let rows: Vec<String> = results[name]
            .iter()
            .map(|(metric, values)| format!("\"{metric}\":{values:?}"))
            .collect();
        let _ = write!(out, "{}}},\"per_layer\":{{", rows.join(","));
        let rows: Vec<String> = layers
            .get(name)
            .into_iter()
            .flatten()
            .map(|(metric, values)| format!("\"{metric}\":{values:?}"))
            .collect();
        let _ = write!(out, "{}}}}}", rows.join(","));
    }
    out.push_str("}}\n");
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("results.json");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `SolverConfig::default()` reads this variable; the benchmark sets every
    // thread count itself and will not measure under an override.
    if std::env::var_os("TESSEL_TEST_THREADS").is_some() {
        eprintln!("benchmark: unset TESSEL_TEST_THREADS; it changes the solver's defaults");
        return ExitCode::from(2);
    }
    tessel_obs::init(tessel_obs::Level::Warn, tessel_obs::LogFormat::Text);

    let outcome = match &args.workload {
        Some(name) => run_workload(&args, name).map(|result| {
            println!("{}", result.json_line());
            true
        }),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
