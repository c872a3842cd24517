//! Daemon metrics: request counters, in-flight gauge, latency quantiles and
//! real Prometheus histograms.
//!
//! Every counter and gauge is declared **once**, as a `metric_group!` table
//! row — `field, "series_name", "HELP text";` — from which the macro derives
//! the live struct's relaxed-atomic field, the snapshot's field, its load in
//! `snapshot()` and its `# HELP` / `# TYPE` / sample triple in
//! `render_prometheus()` (`counter` when the name ends in `_total`, else
//! `gauge`). Adding a metric is adding a row; field order, JSON key order and
//! exposition order all follow the table.
//!
//! Counters are plain relaxed atomics (the hot path adds a handful of
//! `fetch_add`s per request). Latency is tracked two ways: a fixed
//! power-of-two histogram — bucket `i` counts requests that finished in
//! `[2^i, 2^(i+1))` microseconds — from which the JSON snapshot's p50/p99
//! estimates derive, plus [`tessel_obs::Histogram`] families with per-endpoint
//! (`tessel_http_request_duration_seconds`) and per-stage
//! (`tessel_request_stage_duration_seconds`) labels, exported as
//! `_bucket`/`_sum`/`_count` series. The whole struct renders to Prometheus
//! text exposition format for `GET /metrics`.

use crate::inflight::Stage;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tessel_obs::{render_prometheus_histogram, Histogram};
use tessel_solver::SolverTotals;

/// Declares one metric group from a single table (see the module docs):
/// `live` names the live struct and lists what it holds besides the table's
/// counters, `snapshot` names the snapshot struct, and `fn snapshot(this, …)`
/// is the generated sampler's signature — `this` is the live struct inside
/// `values` expressions, the arguments are sampled by the caller. A
/// `counters` row is an `AtomicU64` in the live struct and a `u64` in the
/// snapshot (extra `///` lines extend the live field's docs; `#[serde(default)]`
/// marks a field older snapshot documents may lack); a `values` row exists
/// only in the snapshot.
macro_rules! metric_group {
    (
        $(#[$($live_attr:tt)*])*
        live $Live:ident {
            $($(#[$($extra_attr:tt)*])* $extra_vis:vis $extra:ident: $extra_ty:ty = $extra_init:expr,)*
        }
        $(#[$($snap_attr:tt)*])*
        snapshot $Snap:ident;
        fn snapshot($this:ident $(, $arg:ident: $arg_ty:ty)*);
        counters {
            $(
                $(#[doc = $note:literal])* $(#[serde($($serde:tt)*)])?
                $field:ident, $name:literal, $help:literal;
            )*
        }
        values {
            $($value:ident: $value_ty:ty = $value_expr:expr, $value_name:literal, $value_help:literal;)*
        }
    ) => {
        $(#[$($live_attr)*])*
        #[derive(Debug)]
        pub struct $Live {
            $(#[doc = $help] $(#[doc = $note])* pub $field: AtomicU64,)*
            $($(#[$($extra_attr)*])* $extra_vis $extra: $extra_ty,)*
        }

        impl Default for $Live {
            fn default() -> Self {
                $Live {
                    $($field: AtomicU64::new(0),)*
                    $($extra: $extra_init,)*
                }
            }
        }

        $(#[$($snap_attr)*])*
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub struct $Snap {
            $(#[doc = $help] $(#[serde($($serde)*)])? pub $field: u64,)*
            $(#[doc = $value_help] pub $value: $value_ty,)*
        }

        impl $Live {
            /// Creates zeroed metrics.
            #[must_use]
            pub fn new() -> Self {
                Self::default()
            }

            /// Takes a consistent-enough snapshot (individual counters are
            /// read with relaxed ordering; exactness across counters is not
            /// required), folding in the values the caller sampled.
            #[must_use]
            pub fn snapshot(&self $(, $arg: $arg_ty)*) -> $Snap {
                let $this = self;
                $Snap {
                    $($field: $this.$field.load(Ordering::Relaxed),)*
                    $($value: $value_expr,)*
                }
            }
        }

        impl $Snap {
            /// Renders the snapshot in Prometheus text exposition format,
            /// one `# HELP` / `# TYPE` / sample triple per table row.
            #[must_use]
            pub fn render_prometheus(&self) -> String {
                let mut out = String::new();
                $(push_series(&mut out, $name, $help, &self.$field);)*
                $(push_series(&mut out, $value_name, $value_help, &self.$value);)*
                out
            }
        }
    };
}

/// Appends one series to a Prometheus text page. `_total` names are
/// counters, everything else is a gauge.
fn push_series(out: &mut String, name: &str, help: &str, value: &dyn std::fmt::Display) {
    let kind = if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    };
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Appends one histogram family to a Prometheus text page: its head, then the
/// `_bucket`/`_sum`/`_count` block of every `(label set, histogram)` pair.
fn push_histograms<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    series: impl IntoIterator<Item = (String, &'a Histogram)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (labels, histogram) in series {
        render_prometheus_histogram(out, name, &labels, histogram);
    }
}

/// Number of power-of-two latency buckets (`2^39` µs ≈ 6.4 days).
const BUCKETS: usize = 40;

/// The fixed label set of the per-endpoint request-duration histogram family.
///
/// Paths are coarsened to this set by [`ServiceMetrics::endpoint_label`] so an
/// attacker probing random URLs cannot mint unbounded label values.
pub const ENDPOINT_LABELS: [&str; 10] = [
    "/v1/search",
    "/v1/cache",
    "/v1/debug/requests",
    "/v1/debug/inflight",
    "/v1/debug/timeseries",
    "/v1/debug/trace",
    "/v1/debug/loglevel",
    "/metrics",
    "/healthz",
    "other",
];

metric_group! {
    /// Live metrics of a [`crate::ScheduleService`].
    live ServiceMetrics {
        latency_buckets: [AtomicU64; BUCKETS] = std::array::from_fn(|_| AtomicU64::new(0)),
        /// Request-duration histograms, one per [`ENDPOINT_LABELS`] entry.
        endpoint_durations: [Histogram; ENDPOINT_LABELS.len()] = std::array::from_fn(|_| Histogram::new()),
        /// Stage-duration histograms, indexed by [`Stage`].
        stage_durations: [Histogram; Stage::ALL.len()] = std::array::from_fn(|_| Histogram::new()),
    }
    /// Point-in-time snapshot of [`ServiceMetrics`] (plus cache gauges), served
    /// as JSON by the in-process API and rendered to Prometheus text for
    /// `/metrics`.
    snapshot MetricsSnapshot;
    fn snapshot(this, cache_entries: u64, cache_evictions: u64);
    counters {
        requests, "tessel_requests_total", "Search requests received.";
        cache_hits, "tessel_cache_hits_total", "Requests served from the result cache.";
        cache_misses, "tessel_cache_misses_total", "Requests that ran a full search.";
        coalesced, "tessel_coalesced_total", "Requests coalesced onto an in-flight search.";
        timeouts, "tessel_timeouts_total", "Requests that exceeded their deadline.";
        errors, "tessel_errors_total", "Requests that failed for other reasons.";
        in_flight, "tessel_in_flight_searches", "Searches currently running.";
        solver_solves, "tessel_solver_solves_total", "Exact-solver invocations across completed searches.";
        solver_nodes, "tessel_solver_nodes_total", "Branch-and-bound nodes expanded across completed searches.";
        solver_pruned_bound, "tessel_solver_pruned_bound_total", "Solver nodes pruned by the makespan lower bound.";
        solver_pruned_dominance, "tessel_solver_pruned_dominance_total", "Solver nodes pruned by state dominance.";
        #[serde(default)]
        solver_memo_drops, "tessel_solver_memo_drops_total", "Finish vectors a dominance memo declined to record (memo limit reached).";
        /// The budget is `tessel_core::fingerprint::DEFAULT_NODE_BUDGET`
        /// unless configured.
        #[serde(default)]
        canon_budget_exhausted, "tessel_fingerprint_canon_budget_exhausted_total", "Canonical-labeling searches that hit the node budget and completed greedily.";
        /// Such records are dead weight from an older labeling scheme.
        #[serde(default)]
        journal_stale_dropped, "tessel_cache_journal_stale_dropped_total", "Journal records dropped at startup because re-canonicalization no longer reproduces their stored fingerprint.";
    }
    values {
        hit_rate: f64 = this.hit_rate(), "tessel_cache_hit_rate", "Cache hit rate.";
        cache_entries: u64 = cache_entries, "tessel_cache_entries", "Entries currently cached.";
        cache_evictions: u64 = cache_evictions, "tessel_cache_evictions_total", "LRU evictions so far.";
        latency_p50_ms: f64 = this.latency_quantile_ms(0.50), "tessel_request_latency_p50_ms", "Median request latency (bucket upper bound).";
        latency_p99_ms: f64 = this.latency_quantile_ms(0.99), "tessel_request_latency_p99_ms", "99th-percentile request latency (bucket upper bound).";
    }
}

impl ServiceMetrics {
    /// Cache hit rate over all completed requests (0 when idle).
    fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let served = hits + self.cache_misses.load(Ordering::Relaxed);
        if served == 0 {
            0.0
        } else {
            hits as f64 / served as f64
        }
    }

    /// Folds one completed search's aggregate solver effort into the
    /// daemon-lifetime counters.
    pub fn record_solver(&self, totals: &SolverTotals) {
        for (counter, amount) in [
            (&self.solver_solves, totals.solves),
            (&self.solver_nodes, totals.nodes),
            (&self.solver_pruned_bound, totals.pruned_bound),
            (&self.solver_pruned_dominance, totals.pruned_dominance),
            (&self.solver_memo_drops, totals.memo_drops),
        ] {
            counter.fetch_add(amount, Ordering::Relaxed);
        }
    }

    /// Records one completed request's wall-clock latency.
    pub fn record_latency(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().max(1) as u64;
        let bucket = (63 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Coarsens a request path to its [`ENDPOINT_LABELS`] entry: an exact
    /// match, or — for the two endpoints that take a path argument —
    /// anything below the label.
    #[must_use]
    pub fn endpoint_label(path: &str) -> &'static str {
        const WITH_SUBPATHS: [&str; 2] = ["/v1/cache", "/v1/debug/trace"];
        ENDPOINT_LABELS
            .into_iter()
            .find(|label| match path.strip_prefix(label) {
                Some("") => true,
                Some(below) => below.starts_with('/') && WITH_SUBPATHS.contains(label),
                None => false,
            })
            .unwrap_or("other")
    }

    /// Records one completed request into the per-endpoint duration
    /// histogram. `label` must come from [`ServiceMetrics::endpoint_label`];
    /// anything else lands under `other`.
    pub fn observe_endpoint_micros(&self, label: &str, micros: u64) {
        let index = ENDPOINT_LABELS
            .iter()
            .position(|&known| known == label)
            .unwrap_or(ENDPOINT_LABELS.len() - 1);
        self.endpoint_durations[index].observe_micros(micros);
    }

    /// Records one stage duration into the per-stage histogram family.
    pub fn observe_stage(&self, stage: Stage, micros: u64) {
        self.stage_durations[stage as usize].observe_micros(micros);
    }

    /// Renders the request-duration and stage-duration histogram families in
    /// Prometheus text exposition format (appended to `GET /metrics` after
    /// the counter blocks).
    #[must_use]
    pub fn render_histograms(&self) -> String {
        let mut out = String::new();
        push_histograms(
            &mut out,
            "tessel_http_request_duration_seconds",
            "End-to-end request duration by endpoint.",
            (ENDPOINT_LABELS.iter().zip(&self.endpoint_durations))
                .map(|(label, histogram)| (format!("endpoint=\"{label}\""), histogram)),
        );
        push_histograms(
            &mut out,
            "tessel_request_stage_duration_seconds",
            "Time spent per request-lifecycle stage.",
            (Stage::ALL.iter().zip(&self.stage_durations))
                .map(|(stage, histogram)| (format!("stage=\"{}\"", stage.name()), histogram)),
        );
        out
    }

    /// Estimates the `q`-quantile (0..=1) of recorded latencies in
    /// milliseconds, as the upper bound of the containing bucket.
    #[must_use]
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        let counts = (self.latency_buckets.each_ref()).map(|b| b.load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper_micros = 1u64 << (i + 1).min(63);
                return upper_micros as f64 / 1000.0;
            }
        }
        f64::from(u32::MAX)
    }
}

metric_group! {
    /// Live transport-level metrics of the HTTP event loop.
    ///
    /// Owned by [`crate::HttpServer`]; the event-loop thread updates the gauges
    /// as connections open, go idle and close, and the snapshot is rendered into
    /// `GET /metrics` alongside the service-level counters.
    live TransportMetrics {
        /// Time requests spent waiting in the admission queue before a worker
        /// picked them up.
        pub admission_wait: Histogram = Histogram::new(),
    }
    /// Point-in-time snapshot of [`TransportMetrics`].
    #[derive(Eq)]
    snapshot TransportSnapshot;
    fn snapshot(this);
    counters {
        connections_open, "tessel_http_connections_open", "Connections currently open.";
        /// A subset of `connections_open`.
        connections_idle, "tessel_http_connections_idle", "Open connections with no request in flight.";
        connections_accepted, "tessel_http_connections_accepted_total", "Connections accepted since startup.";
        /// Counts every request on a connection that had already served at
        /// least one earlier request.
        keepalive_reuses, "tessel_http_keepalive_reuses_total", "Requests served over a reused (kept-alive) connection.";
        /// HTTP/1.1 pipelining.
        pipelined_requests, "tessel_http_pipelined_requests_total", "Requests parsed behind an in-flight request on the same connection.";
        idle_closed, "tessel_http_idle_closed_total", "Connections closed by the idle-timeout sweep.";
        /// Rejected at accept, before any parsing.
        rejected_per_ip, "tessel_http_rejected_per_ip_total", "Connections rejected by the per-IP accept cap.";
        /// A cache hit, or a search its probe refused, answered where it was
        /// read: no worker hand-off.
        #[serde(default)]
        answered_on_loop, "tessel_http_answered_on_loop_total", "Searches answered on the event loop without a worker hand-off.";
        // Admission-control series live under `tessel_admission_` (not
        // `tessel_http_`): they describe queueing policy, not the socket
        // layer, and the bench tooling greps for them by that prefix.
        #[serde(default)]
        admission_queue_depth, "tessel_admission_queue_depth", "Requests currently waiting in the admission queue.";
        /// A shed request is answered with 429 instead of being served.
        #[serde(default)]
        admission_shed, "tessel_admission_shed_total", "Requests shed by the admission queue under overload.";
    }
    values {}
}

impl TransportMetrics {
    /// Renders the admission-queue wait-time histogram in Prometheus text
    /// exposition format (appended to `GET /metrics` after the transport
    /// counters).
    #[must_use]
    pub fn render_admission_wait(&self) -> String {
        let mut out = String::new();
        push_histograms(
            &mut out,
            "tessel_admission_wait_seconds",
            "Time requests waited in the admission queue.",
            [(String::new(), &self.admission_wait)],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_snapshot_renders_gauges_and_counters() {
        let m = TransportMetrics::new();
        m.connections_open.fetch_add(3, Ordering::Relaxed);
        m.connections_idle.fetch_add(2, Ordering::Relaxed);
        m.keepalive_reuses.fetch_add(5, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.connections_open, 3);
        assert_eq!(snap.keepalive_reuses, 5);
        let text = snap.render_prometheus();
        assert!(text.contains("tessel_http_connections_open 3"));
        assert!(text.contains("# TYPE tessel_http_connections_open gauge"));
        assert!(text.contains("tessel_http_keepalive_reuses_total 5"));
        assert!(text.contains("# TYPE tessel_http_keepalive_reuses_total counter"));
        let json = serde_json::to_string(&snap).unwrap();
        let back: TransportSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn latency_quantiles_follow_the_buckets() {
        let m = ServiceMetrics::new();
        assert_eq!(m.latency_quantile_ms(0.5), 0.0);
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(100)); // bucket 6: [64, 128)
        }
        m.record_latency(Duration::from_millis(100)); // ~bucket 16
        let p50 = m.latency_quantile_ms(0.50);
        assert!((p50 - 0.128).abs() < 1e-9, "p50={p50}");
        let p99 = m.latency_quantile_ms(0.99);
        assert!((p99 - 0.128).abs() < 1e-9, "p99={p99}");
        let p100 = m.latency_quantile_ms(1.0);
        assert!(p100 > 100.0, "p100={p100}");
    }

    #[test]
    fn snapshot_and_prometheus_rendering() {
        let m = ServiceMetrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        m.record_latency(Duration::from_millis(2));
        m.record_solver(&SolverTotals {
            solves: 7,
            nodes: 1000,
            pruned_bound: 50,
            pruned_dominance: 40,
            steals: 3,
            shared_memo_hits: 9,
            cas_retries: 11,
            steal_failures: 12,
            memo_drops: 13,
            warmstart_micros: 14,
            parallel_micros: 15,
        });
        let snap = m.snapshot(4, 1);
        assert_eq!(snap.requests, 3);
        assert!((snap.hit_rate - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(snap.cache_entries, 4);
        assert_eq!(snap.solver_solves, 7);
        assert_eq!(snap.solver_nodes, 1000);
        assert_eq!(snap.solver_memo_drops, 13);
        let text = snap.render_prometheus();
        assert!(text.contains("tessel_requests_total 3"));
        assert!(text.contains("tessel_cache_hits_total 2"));
        assert!(text.contains("# TYPE tessel_requests_total counter"));
        assert!(text.contains("# TYPE tessel_cache_hit_rate gauge"));
        assert!(text.contains("tessel_solver_nodes_total 1000"));
        assert!(text.contains("tessel_solver_memo_drops_total 13"));
        assert!(text.contains("# TYPE tessel_solver_solves_total counter"));
        assert!(text.contains("# TYPE tessel_solver_memo_drops_total counter"));
        // JSON round trip for the in-process API.
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn endpoint_labels_coarsen_to_a_fixed_set() {
        assert_eq!(ServiceMetrics::endpoint_label("/v1/search"), "/v1/search");
        assert_eq!(ServiceMetrics::endpoint_label("/v1/search/x"), "other");
        assert_eq!(ServiceMetrics::endpoint_label("/v1/cache"), "/v1/cache");
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/cache/deadbeef"),
            "/v1/cache"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/requests"),
            "/v1/debug/requests"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/inflight"),
            "/v1/debug/inflight"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/timeseries"),
            "/v1/debug/timeseries"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label(&format!("/v1/debug/trace/{}", "a".repeat(32))),
            "/v1/debug/trace"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/loglevel"),
            "/v1/debug/loglevel"
        );
        assert_eq!(ServiceMetrics::endpoint_label("/v1/debug/nope"), "other");
        assert_eq!(ServiceMetrics::endpoint_label("/metrics"), "/metrics");
        assert_eq!(ServiceMetrics::endpoint_label("/../../etc/passwd"), "other");
        assert_eq!(ServiceMetrics::endpoint_label("/v1/searchx"), "other");
    }

    #[test]
    fn histogram_families_render_bucket_series() {
        let m = ServiceMetrics::new();
        m.observe_endpoint_micros("/v1/search", 3_000);
        m.observe_endpoint_micros("no-such-endpoint", 10); // lands in `other`
        m.observe_stage(Stage::Solve, 2_500);
        m.observe_stage(Stage::Write, 80);
        let text = m.render_histograms();
        assert!(text.contains("# TYPE tessel_http_request_duration_seconds histogram"));
        assert!(text.contains(
            "tessel_http_request_duration_seconds_bucket{endpoint=\"/v1/search\",le=\"0.005\"} 1"
        ));
        assert!(
            text.contains("tessel_http_request_duration_seconds_count{endpoint=\"/v1/search\"} 1")
        );
        assert!(text.contains("tessel_http_request_duration_seconds_count{endpoint=\"other\"} 1"));
        assert!(text.contains(
            "tessel_request_stage_duration_seconds_bucket{stage=\"solve\",le=\"0.0025\"} 1"
        ));
        assert!(text.contains("tessel_request_stage_duration_seconds_count{stage=\"write\"} 1"));
        // Each observation landed in its own stage's series and nowhere else.
        let total: u64 = Stage::ALL
            .iter()
            .map(|stage| {
                let needle = format!(
                    "tessel_request_stage_duration_seconds_count{{stage=\"{}\"}} ",
                    stage.name()
                );
                text.lines()
                    .find(|line| line.starts_with(&needle))
                    .and_then(|line| line.rsplit(' ').next())
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 2);
    }

    /// Asserts `text` is valid Prometheus text exposition: every sample's
    /// family has exactly one preceding `# HELP` and `# TYPE`, histogram
    /// samples use only `_bucket`/`_sum`/`_count` suffixes, and sample lines
    /// parse as `name{labels} value`.
    fn assert_valid_exposition(text: &str) {
        use std::collections::{HashMap, HashSet};
        let mut helped: HashSet<String> = HashSet::new();
        let mut typed: HashMap<String, String> = HashMap::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(helped.insert(name.clone()), "duplicate HELP for {name}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap().to_string();
                let kind = parts.next().expect("TYPE line missing kind").to_string();
                assert!(
                    matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                    "bad TYPE kind {kind} for {name}"
                );
                assert!(
                    helped.contains(&name),
                    "TYPE before HELP (or missing HELP) for {name}"
                );
                assert!(
                    typed.insert(name.clone(), kind).is_none(),
                    "duplicate TYPE for {name}"
                );
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line: {line}");
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').expect("sample missing value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "invalid metric name {name}"
            );
            if let Some(labels) = series
                .split_once('{')
                .map(|(_, rest)| rest.strip_suffix('}').expect("unterminated label set"))
            {
                for pair in labels.split(',') {
                    let (key, val) = pair.split_once('=').expect("label without =");
                    assert!(!key.is_empty() && val.starts_with('"') && val.ends_with('"'));
                }
            }
            // Resolve the family: histogram suffixes strip to the declared
            // family name, everything else must be declared verbatim.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    name.strip_suffix(suffix)
                        .filter(|base| typed.get(*base).map(String::as_str) == Some("histogram"))
                })
                .unwrap_or(name);
            let kind = typed
                .get(family)
                .unwrap_or_else(|| panic!("sample {name} has no TYPE"));
            assert!(helped.contains(family), "sample {name} has no HELP");
            if kind == "histogram" {
                assert_ne!(
                    name, family,
                    "histogram family {family} sampled without a suffix"
                );
            }
        }
    }

    #[test]
    fn metrics_page_is_valid_prometheus_exposition() {
        // Exactly the concatenation `GET /metrics` serves.
        let service = ServiceMetrics::new();
        service.requests.fetch_add(2, Ordering::Relaxed);
        service.record_latency(Duration::from_millis(3));
        service.observe_endpoint_micros("/v1/search", 3_000);
        service.observe_stage(Stage::Solve, 2_000);
        let transport = TransportMetrics::new();
        transport.connections_open.fetch_add(1, Ordering::Relaxed);
        transport.admission_shed.fetch_add(2, Ordering::Relaxed);
        transport.admission_wait.observe_micros(1_500);
        // The sampler's ring-derived gauges join the page too.
        let timeseries =
            tessel_obs::TimeSeries::new(&["requests_per_s", "cache_hit_ratio"], 8, 1000);
        timeseries.push(1_700_000_000_000, &[2.0, 0.5]);
        let mut sampled = String::new();
        timeseries.render_prometheus(&mut sampled);
        let page = format!(
            "{}{}{}{}{}",
            service.snapshot(0, 0).render_prometheus(),
            service.render_histograms(),
            transport.snapshot().render_prometheus(),
            transport.render_admission_wait(),
            sampled
        );
        assert!(page.contains("tessel_admission_shed_total 2"));
        assert!(page.contains("tessel_admission_queue_depth 0"));
        assert!(page.contains("tessel_admission_wait_seconds_count 1"));
        assert!(page.contains("tessel_timeseries_last{series=\"requests_per_s\"} 2"));
        assert_valid_exposition(&page);
    }

    #[test]
    fn exposition_validator_rejects_malformed_pages() {
        let ok = "# HELP m_total h\n# TYPE m_total counter\nm_total 1\n";
        assert_valid_exposition(ok);
        for bad in [
            "m_total 1\n",                   // no HELP/TYPE
            "# HELP m_total h\nm_total 1\n", // no TYPE
            "# HELP m_total h\n# HELP m_total h\n# TYPE m_total counter\nm_total 1\n",
            "# HELP m_total h\n# TYPE m_total counter\nm_total one\n",
        ] {
            assert!(
                std::panic::catch_unwind(|| assert_valid_exposition(bad)).is_err(),
                "validator accepted: {bad:?}"
            );
        }
    }
}
