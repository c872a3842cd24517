//! Writes `BENCH_search.json`: goodput of the daemon under sustained
//! overload (`admission_overload`), how far into its solve a streamed
//! search's first incumbent arrives (`anytime_streaming`) and the cost of
//! the live-plane sampler
//! (`observability_overhead`), next to the `host` they ran on (see
//! [`tessel_bench::report::emit_service`]). Request throughput and per-stage
//! latency belong to the benchmark package (`serve_hit`, `serve_miss`).
//!
//! ```bash
//! cargo run --release -p tessel-bench --bin bench_service
//! ```

fn main() {
    // Keep the measurement output readable: the socket-level rows would
    // otherwise interleave with one info log line per request.
    tessel_obs::init(tessel_obs::Level::Warn, tessel_obs::LogFormat::Text);
    tessel_bench::report::emit_service();
}
