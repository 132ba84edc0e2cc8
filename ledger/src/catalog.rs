//! Every metric the benchmark reports, by name and unit — the same
//! list `BENCHMARK.json` carries (a unit test holds the two together).

/// A gated end-to-end metric: every workload reports all of them.
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// All end-to-end metrics are costs: lower is better.
pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "unit_us",
        unit: "us",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "allocs_per_unit",
        unit: "count",
        bound: 0.10,
    },
    EndToEndMetric {
        name: "wire_bytes_per_unit",
        unit: "B",
        bound: 0.05,
    },
    EndToEndMetric {
        name: "rss_mb",
        unit: "MB",
        bound: 0.10,
    },
];

/// A per-layer metric of the traced run: `(name, unit, better)`.
pub type LayerMetric = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [LayerMetric; 79] = [
    // loadgen: validity of the run and the ungated user-facing figures.
    ("loadgen.unit_raw_p50_us", "us", "lower"),
    ("loadgen.unit_raw_p99_us", "us", "lower"),
    ("loadgen.paced_p50_us", "us", "lower"),
    ("loadgen.paced_p99_us", "us", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("loadgen.ref_fast_us", "us", "lower"),
    ("loadgen.ref_spread", "ratio", "lower"),
    ("loadgen.cpu_us_per_unit", "us", "lower"),
    ("loadgen.span_overhead_pct", "%", "lower"),
    ("loadgen.pinned", "bool", "higher"),
    // op: per wire request, child spans of the traced slice.
    ("op.create_p50_us", "us", "lower"),
    ("op.validate_p50_us", "us", "lower"),
    ("op.fix_p50_us", "us", "lower"),
    ("op.get_p50_us", "us", "lower"),
    ("op.commit_p50_us", "us", "lower"),
    ("op.commit_p99_us", "us", "lower"),
    ("op.clean_p50_us", "us", "lower"),
    // net: server::net, reactor.
    ("net.rtt_overhead_us", "us", "lower"),
    ("net.window_overhead_us_per_req", "us", "lower"),
    ("net.threads_unit_us", "us", "lower"),
    ("net.epoll_unit_us", "us", "lower"),
    ("net.bytes_in_per_unit", "B", "lower"),
    ("net.bytes_out_per_unit", "B", "lower"),
    // wire: server::wire, protocol.
    ("wire.scan_ns_per_req", "ns", "lower"),
    ("wire.parse_ns_per_req", "ns", "lower"),
    ("wire.parse_mb_s", "MB/s", "higher"),
    ("wire.allocs_per_parse", "count", "lower"),
    // service: server::service, session, cache, admission.
    ("service.create_ns", "ns", "lower"),
    ("service.validate_ns", "ns", "lower"),
    ("service.fix_ns", "ns", "lower"),
    ("service.get_ns", "ns", "lower"),
    ("service.commit_ns", "ns", "lower"),
    ("service.clean_ns_per_tuple", "ns", "lower"),
    ("service.allocs.create", "count", "lower"),
    ("service.allocs.validate", "count", "lower"),
    ("service.allocs.fix", "count", "lower"),
    ("service.allocs.get", "count", "lower"),
    ("service.allocs.commit", "count", "lower"),
    ("service.allocs.clean_per_tuple", "count", "lower"),
    // exec: core::exec.
    ("exec.map_ordered_ns_per_item", "ns", "lower"),
    // engine: core::engine.
    ("engine.compile_ms", "ms", "lower"),
    ("engine.fixpoint_ns_per_tuple", "ns", "lower"),
    ("engine.rule_attempts_per_tuple", "count", "lower"),
    ("engine.master_lookups_per_tuple", "count", "lower"),
    ("engine.index_probes_per_tuple", "count", "lower"),
    ("engine.useful_ratio", "ratio", "higher"),
    // master: core::master, relation::index.
    ("master.lookup_ns", "ns", "lower"),
    ("master.index_build_ms", "ms", "lower"),
    ("master.rows", "count", "higher"),
    // monitor: core::monitor, audit.
    ("monitor.session_ns", "ns", "lower"),
    ("monitor.suggest_ns", "ns", "lower"),
    ("monitor.rounds_per_session", "count", "lower"),
    ("monitor.user_attrs_per_session", "count", "lower"),
    ("monitor.cells_fixed_per_tuple", "count", "higher"),
    // region: core::region.
    ("region.search_ms", "ms", "lower"),
    ("region.search_probes", "count", "lower"),
    ("region.recheck_ms", "ms", "lower"),
    ("region.recheck_probes", "count", "lower"),
    // storage: storage::journal, snapshot, spill, vfs.
    ("storage.writes_per_unit", "count", "lower"),
    ("storage.fsyncs_per_unit", "count", "lower"),
    ("storage.bytes_per_unit", "B", "lower"),
    ("storage.events_per_flush", "count", "higher"),
    ("storage.append_ns", "ns", "lower"),
    ("storage.sync_soft_us", "us", "lower"),
    ("storage.sync_disk_p50_us", "us", "lower"),
    ("storage.snapshot_ms", "ms", "lower"),
    ("storage.snapshots_in_run", "count", "lower"),
    ("storage.recover_ms", "ms", "lower"),
    // replication: server::replication.
    ("replication.quorum_wait_us", "us", "lower"),
    ("replication.syncs_per_commit", "count", "lower"),
    ("replication.events_per_sync", "count", "higher"),
    ("replication.idle_syncs_per_s", "1/s", "lower"),
    ("replication.lag_events_end", "count", "lower"),
    ("replication.quorum_timeouts", "count", "lower"),
    // trace: server::trace, metrics, diag.
    ("trace.overhead_pct", "%", "lower"),
    ("trace.stage_sum_ratio", "ratio", "higher"),
    ("trace.spans_recorded", "count", "higher"),
    // check
    ("check.exact_mismatches", "count", "lower"),
    ("check.failed_operations", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_server::wire::Json;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// of this catalogue, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();

        let listed = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (got, want) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), "lower");
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let listed = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (got, (name, unit, better)) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), *name);
            assert_eq!(field(got, "unit"), *unit);
            assert_eq!(field(got, "better"), *better);
        }
        let workloads = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::load::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        assert_eq!(
            json.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1),
            "one directory holds the benchmark"
        );
    }

    #[test]
    fn names_are_unique_and_units_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for (name, unit, better) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(matches!(better, "lower" | "higher"), "{name}");
        }
    }
}
