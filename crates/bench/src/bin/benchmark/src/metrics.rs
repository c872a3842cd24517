//! The names, units and directions of every reported metric — the same
//! tables `BENCHMARK.json` carries (a unit test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: name, unit, direction, and the share of the parent's
/// median by which the metric may worsen before a change is a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("ops_per_s", "1/s", Higher, 0.25),
    ("latency_ms_p50", "ms", Lower, 0.25),
    ("cpu_ms_per_op", "ms", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics: name, unit, direction. The prefix names the layer.
pub const PER_LAYER: [(&str, &str, Better); 89] = [
    // solver: `Solver::minimize`, `greedy_schedule`, `makespan_lower_bound`,
    // `InstanceBuilder::build`.
    ("solver.nodes", "count", Lower),
    ("solver.nodes_per_s", "1/s", Higher),
    ("solver.busy_s", "s", Lower),
    ("solver.pruned_bound", "count", Higher),
    ("solver.pruned_dominance", "count", Higher),
    ("solver.prune_share", "ratio", Higher),
    ("solver.incumbents", "count", Lower),
    ("solver.v4mb6_s", "s", Lower),
    ("solver.m4mb5_s", "s", Lower),
    ("solver.x4mb3_s", "s", Lower),
    ("solver.k4mb4_s", "s", Lower),
    ("solver.greedy_us", "us", Lower),
    ("solver.lower_bound_us", "us", Lower),
    ("solver.instance_build_us", "us", Lower),
    // solver, two threads.
    ("solver.steals", "count", Lower),
    ("solver.steal_failures", "count", Lower),
    ("solver.cas_retries", "count", Lower),
    ("solver.memo_drops", "count", Lower),
    ("solver.shared_memo_hits", "count", Higher),
    ("solver.nodes_vs_serial", "ratio", Lower),
    ("solver.warmstart_us", "us", Lower),
    ("solver.parallel_us", "us", Lower),
    ("solver.speedup_vs_serial", "ratio", Higher),
    // core.search: `TesselSearch::run` and its `SearchStats`.
    ("core.search.candidates", "count", Lower),
    ("core.search.repetend_solves", "count", Lower),
    ("core.search.feasibility_probes", "count", Lower),
    ("core.search.improving_repetends", "count", Lower),
    ("core.search.solver_nodes", "count", Lower),
    ("core.search.phase_repetend_s", "s", Lower),
    ("core.search.phase_warmup_s", "s", Lower),
    ("core.search.phase_cooldown_s", "s", Lower),
    ("core.search.slowest_placement_s", "s", Lower),
    // core.repetend / completion / compose: Algorithm 1 step by step.
    ("core.repetend.enumerate_us_per_cand", "us", Lower),
    ("core.repetend.build_instance_us_p50", "us", Lower),
    ("solver.small_solve_us_p50", "us", Lower),
    ("solver.small_solves", "count", Lower),
    ("core.repetend.evaluate_us_p50", "us", Lower),
    ("core.completion.complete_ms", "ms", Lower),
    ("core.compose.compose_us_p50", "us", Lower),
    ("core.search.shadow_coverage", "ratio", Higher),
    // core.fingerprint, core.ir.
    ("core.fingerprint.canonicalize_us_p50", "us", Lower),
    ("core.fingerprint.canon_nodes", "count", Lower),
    ("core.fingerprint.canon_leaves", "count", Lower),
    ("core.fingerprint.budget_exhausted", "count", Lower),
    ("core.ir.validate_us_p50", "us", Lower),
    // compat/serde_json + service.wire.
    ("json.decode_request_us_p50", "us", Lower),
    ("json.request_bytes_p50", "bytes", Lower),
    ("json.decode_mb_per_s", "MB/s", Higher),
    ("json.encode_response_us_p50", "us", Lower),
    ("json.response_bytes_p50", "bytes", Lower),
    ("json.encode_mb_per_s", "MB/s", Higher),
    // service.cache.
    ("cache.get_hit_ns_p50", "ns", Lower),
    ("cache.get_miss_ns_p50", "ns", Lower),
    ("cache.insert_ns_p50", "ns", Lower),
    ("cache.journal_append_us_p50", "us", Lower),
    ("cache.journal_compact_ms", "ms", Lower),
    ("cache.journal_bytes", "bytes", Lower),
    ("cache.hits", "count", Higher),
    ("cache.misses", "count", Lower),
    ("cache.evictions", "count", Lower),
    ("cache.hit_share", "ratio", Higher),
    // service.service.
    ("service.search_hit_us_p50", "us", Lower),
    ("service.search_miss_ms_p50", "ms", Lower),
    ("service.hit_self_us_p50", "us", Lower),
    ("service.miss_self_us_p50", "us", Lower),
    ("service.coalesced", "count", Lower),
    // runtime.
    ("runtime.instantiate_us_p50", "us", Lower),
    ("runtime.simulate_us_p50", "us", Lower),
    // service.http.
    ("http.roundtrip_us_p50", "us", Lower),
    ("http.transport_self_us_p50", "us", Lower),
    ("http.stage.parse_us_p50", "us", Lower),
    ("http.stage.queue_wait_us_p50", "us", Lower),
    ("http.stage.cache_lookup_us_p50", "us", Lower),
    ("http.stage.solve_us_p50", "us", Lower),
    ("http.stage.translate_us_p50", "us", Lower),
    ("http.stage.serialize_us_p50", "us", Lower),
    ("http.stage.write_us_p50", "us", Lower),
    ("http.stage_unattributed_us_p50", "us", Lower),
    ("http.keepalive_reuses", "count", Higher),
    ("http.connections_accepted", "count", Lower),
    ("http.shed", "count", Lower),
    // placement / models.
    ("placement.build_ms", "ms", Lower),
    // The benchmark itself.
    ("trace.spans", "count", Lower),
    ("trace.overhead_share", "ratio", Lower),
    // What the caller sees but this host cannot hold steady (see README).
    ("client.latency_ms_p99", "ms", Lower),
    ("client.peak_rss_mb", "MB", Lower),
    ("client.failed_share", "ratio", Lower),
    ("client.segment_ops", "count", Higher),
    ("client.segment_s", "s", Lower),
];

/// Per-layer metrics that must repeat bit-for-bit for a seed, per workload
/// (`solve_parallel` has none: two threads explore a schedule-dependent tree).
pub const EXACT: [(&str, &[&str]); 4] = [
    (
        "search_cold",
        &[
            "core.search.candidates",
            "core.search.repetend_solves",
            "core.search.feasibility_probes",
            "core.search.solver_nodes",
            "solver.nodes",
            "solver.small_solves",
        ],
    ),
    (
        "solve_exact",
        &[
            "solver.nodes",
            "solver.pruned_bound",
            "solver.pruned_dominance",
            "solver.incumbents",
        ],
    ),
    (
        "serve_hit",
        &[
            "core.fingerprint.canon_nodes",
            "core.fingerprint.canon_leaves",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
        ],
    ),
    (
        "serve_miss",
        &[
            "core.fingerprint.canon_nodes",
            "core.fingerprint.canon_leaves",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "core.search.candidates",
            "core.search.solver_nodes",
            "solver.nodes",
        ],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn text(entry: &Value, key: &str) -> String {
        match serde::field(entry.as_map().unwrap(), key).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("{key}: {other:?}"),
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly these tables.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let root: Value =
            serde_json::from_str(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        let section = |name: &str| -> Vec<Value> {
            serde::field(root.as_map().unwrap(), name)
                .unwrap()
                .as_seq()
                .unwrap()
                .to_vec()
        };
        let listed: Vec<(String, String, String)> = section("per_layer")
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed = section("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, &(name, unit, better, bound)) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit);
            assert_eq!(text(entry, "better"), better.as_str());
            match serde::field(entry.as_map().unwrap(), "bound").unwrap() {
                Value::Float(b) => assert_eq!(*b, bound),
                other => panic!("bound: {other:?}"),
            }
        }
        let workloads: Vec<String> = section("workloads")
            .iter()
            .map(|e| text(e, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
