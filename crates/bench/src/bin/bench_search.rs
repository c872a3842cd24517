//! Refreshes the tracked schedule-search performance snapshot.
//!
//! Runs the solver node-throughput comparison (seed vs current engine), the
//! end-to-end portfolio wall-clock comparison and the 1→N thread-scaling
//! curve of the work-stealing solver (node counts vs serial, shared-memo
//! hits, wall-clock, contention counters), then updates the `solver_scaling`,
//! `portfolio_search` and `solver_thread_scaling` sections of
//! `BENCH_search.json` (see [`tessel_bench::report`]).
//!
//! ```text
//! cargo run --release -p tessel-bench --bin bench_search           # all sections
//! cargo run --release -p tessel-bench --bin bench_search threads   # thread-scaling curve only
//! ```

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => tessel_bench::report::emit_all(),
        Some("threads") => tessel_bench::report::emit_thread_scaling(),
        Some(other) => {
            eprintln!("unknown section `{other}`; expected no argument or `threads`");
            std::process::exit(2);
        }
    }
    println!(
        "\nwrote {}",
        tessel_bench::report::bench_json_path().display()
    );
}
