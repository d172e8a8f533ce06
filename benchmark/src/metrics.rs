//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is generated from these tables
//! (`-- manifest`) and `-- check` fails when the two disagree.

/// The measuring time of one driver run, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// The paper's NVM-DRAM average-speedup band (EXPERIMENTS.md, "Headline
/// claims"). The model is validated against such bands only, not against
/// hardware, so no error figure is given beside `sim_speedup`.
pub const PAPER_NVM_BAND: (f64, f64) = (1.7, 3.4);

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "regular_sweep",
        "PR/SpMV/CC protocol on an rmat27-shaped graph: long block sweeps and gather windows, hms access path >90% of host time, optimize() ~2%",
    ),
    (
        "traversal_frontier",
        "BFS/SSSP/BC protocol on a twitter-shaped graph: many short frontier windows and scalar gets, per-level kernel overhead and the PEBS-on iteration dominate",
    ),
    (
        "migrate_churn",
        "12 profile/optimize rounds of a moving hot window over 64 MiB in 4 configurations: analyzer, planner and staged/mbind migration dominate, kernels do nothing",
    ),
    (
        "serve_mixed",
        "four tenants (PR, BFS, SpMV, CC) x 12 queries through serve_protocols: scheduler quanta, the shared optimize round and an audit after every query",
    ),
    (
        "sharded_2core",
        "PR/SpMV/BFS protocol on 2 simulated cores of the regular_sweep graph: the hms::shard fork/join path a 1-core gain must not tax",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the system sees, reported by every workload. Host
/// metrics carry the spread this shared 2-vCPU host shows between runs;
/// simulated metrics carry the spread between *seeds* (same seed, same
/// code: they repeat exactly and `sim_digest` says so).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("host_wall_s", "s", Lower, 0.25),
        ("sim_maccess_per_s", "M/s", Higher, 0.25),
        ("peak_rss_mb", "MiB", Lower, 0.15),
        ("sim_time_ms", "ms", Lower, 0.06),
        ("sim_speedup", "x", Higher, 0.06),
        ("sim_p99_latency_ms", "ms", Lower, 0.15),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

/// Every application any workload runs, in report order.
pub const APPS: [&str; 6] = ["PR", "SpMV", "CC", "BFS", "SSSP", "BC"];

/// Metrics of single layers (layer = crate.module), reported by the traced
/// run. A layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| v.push(def(name, unit, better));

    // Headline figures of one workload only, kept under the names the
    // issue gave them.
    add("optimize_host_ms", "ms", Lower);
    add("migrate_host_mb_per_s", "MiB/s", Higher);
    add("host_ms_per_query", "ms", Lower);
    // The low 48 bits of the FNV-1a digest over every simulated statistic:
    // equal digests mean equal simulations. No direction is better.
    add("sim_digest", "hash", Lower);

    add("graph.rmat.gen_s", "s", Lower);
    add("graph.csr.weights_s", "s", Lower);

    add("apps.graph_data.load_s", "s", Lower);
    add("apps.kernel.instantiate_s", "s", Lower);
    add("apps.kernel.reset_s", "s", Lower);
    add("apps.kernel.checksum_s", "s", Lower);
    add("apps.kernel.iter1_s", "s", Lower);
    add("apps.kernel.iter2_s", "s", Lower);
    add("apps.kernel.baseline_iter_s", "s", Lower);
    add("apps.kernel.accesses", "count", Higher);
    for phase in ["iter1", "iter2", "baseline"] {
        for app in APPS {
            add(
                &format!("apps.kernel.{phase}_ns_per_access.{app}"),
                "ns",
                Lower,
            );
        }
    }
    for app in APPS {
        for mode in ["atmem", "baseline"] {
            add(&format!("apps.runner.protocol_s.{app}.{mode}"), "s", Lower);
        }
    }
    add("apps.synth.drive_s", "s", Lower);
    add("apps.synth.drive_ns_per_access", "ns", Lower);
    add("apps.serve.session_s", "s", Lower);
    add("apps.serve.queries", "count", Higher);

    for op in ["sweep", "gather", "scatter", "update", "get", "pebs_on"] {
        add(&format!("hms.machine.{op}_ns_per_access"), "ns", Lower);
    }
    add("hms.mapping.contiguous_get_ns_per_access", "ns", Lower);
    add("hms.mapping.fragmented_get_ns_per_access", "ns", Lower);
    add("hms.tlb.ns_per_lookup", "ns", Lower);
    add("hms.tlb.hit_ratio", "ratio", Higher);
    add("hms.tlb.misses", "count", Lower);
    add("hms.tlb.miss_ratio", "ratio", Lower);
    add("hms.cache.ns_per_probe", "ns", Lower);
    add("hms.cache.hit_ratio", "ratio", Higher);
    add("hms.cache.read_misses", "count", Lower);
    add("hms.cache.read_miss_ratio", "ratio", Lower);
    add("hms.pebs.ns_per_event", "ns", Lower);
    add("hms.machine.new_s", "s", Lower);
    add("hms.machine.cold_first_rep_s", "s", Lower);
    add("hms.machine.audit_s", "s", Lower);
    add("hms.shard.fork_join_us", "us", Lower);
    for app in ["PR", "SpMV", "BFS"] {
        add(&format!("hms.shard.scaling.{app}"), "x", Higher);
    }
    add("hms.mbind.host_mb_per_s", "MiB/s", Higher);
    add("hms.machine.copy_host_mb_per_s", "MiB/s", Higher);
    add("hms.machine.remap_us_per_region", "us", Lower);

    add("core.runtime.new_s", "s", Lower);
    add("core.profiler.start_s", "s", Lower);
    add("core.profiler.stop_s", "s", Lower);
    add("core.profiler.samples", "count", Higher);
    add("core.profiler.ns_per_sample", "ns", Lower);
    add("core.analyzer.paper_s", "s", Lower);
    add("core.analyzer.learned_s", "s", Lower);
    add("core.analyzer.chunks", "count", Higher);
    add("core.analyzer.critical_chunks", "count", Higher);
    add("core.migrate.plan_s", "s", Lower);
    add("core.migrate.regions", "count", Higher);
    add("core.migrate.execute_s", "s", Lower);
    add("core.migrate.bytes_moved", "B", Higher);
    add("core.migrate.regions_failed", "count", Lower);
    add("core.migrate.regions_skipped", "count", Lower);
    add("core.migrate.sim_ms", "ms", Lower);
    add("core.runtime.optimize_s", "s", Lower);
    add("core.runtime.optimize_share", "ratio", Lower);
    add("core.runtime.fast_data_ratio", "ratio", Higher);
    add("core.autonuma.optimize_s", "s", Lower);
    add("core.serve.add_tenant_s", "s", Lower);
    add("core.serve.quantum_s", "s", Lower);
    add("core.serve.optimize_round_s", "s", Lower);
    add("core.serve.audit_s", "s", Lower);

    add("host.cpu_s", "s", Lower);
    add("host.runq_wait_frac", "ratio", Lower);
    add("trace.overhead_frac", "ratio", Lower);
    add("trace.span_cost_frac", "ratio", Lower);
    add("trace.unattributed_frac", "ratio", Lower);
    v
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.name()
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(end_to_end().iter().map(metric).collect()),
        list(per_layer().iter().map(metric).collect())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(
                m.name.len() <= 64 && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(crate::json::parse(&manifest()).is_ok());
    }
}
