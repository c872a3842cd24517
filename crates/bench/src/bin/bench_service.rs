//! Records the `admission_overload`, `anytime_streaming` and
//! `observability_overhead` sections of `BENCH_search.json`: goodput of the
//! daemon under sustained overload, the time to the first streamed incumbent
//! and the cost of the live-plane sampler (see
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
