//! Multi-tenant serving of the experimental protocol.
//!
//! [`run_protocol`](crate::run_protocol) assumes the machine belongs to
//! one benchmark. A serving deployment co-locates several protocol
//! instances — mixed kernels, mixed datasets, independently configured —
//! on one box with a single shared fast tier. [`serve_protocols`] drives
//! that scenario over the core [`Scheduler`]:
//!
//! 1. every tenant loads its graph and instantiates its kernel in its own
//!    quantum (bytes tagged per tenant by the machine);
//! 2. every tenant runs one profiled iteration (the paper's iteration 1);
//! 3. one **server-wide optimize round** arbitrates the shared fast tier
//!    across all tenants' candidate regions, hottest-first;
//! 4. a seeded arrival stream interleaves query quanta — each query is
//!    one kernel iteration — advancing the simulated clock through idle
//!    gaps and recording per-query latency from arrival to completion
//!    (queueing wait included: a query that arrives while another tenant
//!    holds the machine waits its turn);
//! 5. per-tenant accounting is collected: fast-data ratio, migrated
//!    bytes, and nearest-rank p50/p99 latency.
//!
//! The machine audit plus per-tenant byte conservation runs after *every*
//! query quantum; violations accumulate in [`ServeReport::audit`]. With
//! one tenant the whole schedule is bit-identical to
//! [`run_protocol_cores`](crate::run_protocol_cores) under
//! [`Mode::Atmem`](crate::Mode::Atmem) — same profile, same counters,
//! same placement, same checksum.

use atmem::{AtmemConfig, MigrationConfig, ProfileSummary, Result, RoundReport, Scheduler};
use atmem_graph::Csr;
use atmem_hms::{MachineStats, Platform, SimDuration, TierId};
use atmem_rng::SmallRng;

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::App;

/// One tenant of a serving run.
#[derive(Debug, Clone)]
pub struct TenantSpec<'a> {
    /// The tenant's graph.
    pub csr: &'a Csr,
    /// The kernel the tenant serves.
    pub app: App,
    /// The tenant's runtime configuration (chunking, sampling, analysis;
    /// the *server* owns the migration policy).
    pub config: AtmemConfig,
    /// Seed of the tenant's arrival stream.
    pub arrival_seed: u64,
    /// Number of queries to serve after the optimize round.
    pub queries: usize,
    /// Mean gap between arrivals in simulated nanoseconds; actual gaps
    /// are uniform in `[0.5, 1.5) ×` this.
    pub mean_gap_ns: f64,
}

/// Per-tenant outcome of a serving run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The kernel served.
    pub app: App,
    /// Simulated time of the profiled warm-up iteration.
    pub first_iter: SimDuration,
    /// Profiling summary feeding the optimize round.
    pub profile: ProfileSummary,
    /// Machine counter deltas over the tenant's first query (the
    /// optimized-iteration counters of the solo protocol).
    pub first_query_stats: MachineStats,
    /// Fraction of the tenant's registered bytes fast-resident at the end.
    pub fast_data_ratio: f64,
    /// Bytes the tenant registered.
    pub total_bytes: usize,
    /// Tenant bytes on the fast tier at the end (tag counters).
    pub fast_bytes: usize,
    /// Tenant bytes on every tier below the fast one at the end (tag
    /// counters), so `fast_bytes + slow_bytes == total_bytes` on any
    /// number of tiers.
    pub slow_bytes: usize,
    /// Bytes promoted for this tenant by the optimize round.
    pub bytes_promoted: usize,
    /// Bytes demoted for this tenant by the optimize round.
    pub bytes_demoted: usize,
    /// Queries served.
    pub queries: usize,
    /// Median query latency (arrival to completion, nearest rank).
    pub p50_latency: SimDuration,
    /// 99th-percentile query latency (nearest rank).
    pub p99_latency: SimDuration,
    /// Kernel output checksum after the last query.
    pub checksum: f64,
}

/// Outcome of [`serve_protocols`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-tenant reports, in `tenants` order.
    pub tenants: Vec<TenantReport>,
    /// The server-wide optimize round.
    pub round: RoundReport,
    /// Invariant violations found by the machine audit and the per-tenant
    /// byte-conservation check after the round and after every query
    /// quantum. Empty on a healthy run.
    pub audit: Vec<String>,
    /// Simulated time at the end of the run.
    pub total_time: SimDuration,
}

/// Serves `tenants` over one machine: per-tenant profiled warm-up, one
/// server-wide optimize round, then a seeded interleaved query stream.
/// The module docs of `crates/apps/src/serve.rs` give the phase structure.
///
/// # Errors
///
/// Config validation, allocation, profiling and migration failures from
/// any tenant's quanta or the shared round.
pub fn serve_protocols(
    platform: Platform,
    migration: MigrationConfig,
    tenants: &[TenantSpec<'_>],
) -> Result<ServeReport> {
    let mut sched = Scheduler::new(platform, migration);

    // Phase 1: load graphs and instantiate kernels, one quantum each.
    let mut kernels = Vec::with_capacity(tenants.len());
    for spec in tenants {
        let idx = sched.add_tenant(spec.config.clone())?;
        let kernel = sched.run_quantum(idx, |rt| {
            let graph = HmsGraph::load(rt, spec.csr)?;
            spec.app.instantiate(rt, graph)
        })?;
        kernels.push(kernel);
    }

    // Phase 2: one profiled iteration per tenant (the paper's iteration 1).
    let mut first_iters = Vec::with_capacity(tenants.len());
    let mut profiles = Vec::with_capacity(tenants.len());
    for (idx, kernel) in kernels.iter_mut().enumerate() {
        let (first_iter, profile) = sched.run_quantum(idx, |rt| -> Result<_> {
            kernel.reset(rt);
            rt.profiling_start()?;
            let t0 = rt.now();
            kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
            let first_iter = SimDuration::from_ns(rt.now().as_ns() - t0.as_ns());
            let profile = rt.profiling_stop()?;
            Ok((first_iter, profile))
        })?;
        first_iters.push(first_iter);
        profiles.push(profile);
    }

    // Phase 3: the shared fast tier is arbitrated across all tenants.
    let round = sched.optimize_round()?;
    let mut audit = sched.audit();

    // Phase 4: seeded arrival streams, earliest-arrival-first interleave
    // (ties go to the lower tenant id — deterministic).
    let serving_start = sched.now().as_ns();
    let mut arrivals: Vec<std::collections::VecDeque<f64>> = tenants
        .iter()
        .map(|spec| {
            let mut rng = SmallRng::seed_from_u64(spec.arrival_seed);
            let mut t = serving_start;
            (0..spec.queries)
                .map(|_| {
                    let at = t;
                    t += spec.mean_gap_ns * (0.5 + rng.gen::<f64>());
                    at
                })
                .collect()
        })
        .collect();
    let mut first_query_stats: Vec<Option<MachineStats>> = vec![None; tenants.len()];
    loop {
        let mut next: Option<(usize, f64)> = None;
        for (i, queue) in arrivals.iter().enumerate() {
            if let Some(&at) = queue.front() {
                if next.is_none_or(|(_, best)| at < best) {
                    next = Some((i, at));
                }
            }
        }
        let Some((idx, arrival)) = next else { break };
        arrivals[idx].pop_front();
        let now = sched.now().as_ns();
        if arrival > now {
            sched.advance_clock(SimDuration::from_ns(arrival - now));
        }
        let kernel = &mut kernels[idx];
        let (delta, completion) = sched.run_quantum(idx, |rt| {
            kernel.reset(rt);
            let before = rt.machine().stats();
            kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
            (rt.machine().stats().delta(&before), rt.now())
        });
        let latency = (completion.as_ns() - arrival).max(0.0);
        sched.record_latency(idx, SimDuration::from_ns(latency));
        first_query_stats[idx].get_or_insert(delta);
        audit.extend(sched.audit());
    }

    // Phase 5: accounting.
    let mut reports = Vec::with_capacity(tenants.len());
    for (idx, spec) in tenants.iter().enumerate() {
        let checksum = sched.run_quantum(idx, |rt| kernels[idx].checksum(rt));
        let stats = sched.stats(idx);
        reports.push(TenantReport {
            app: spec.app,
            first_iter: first_iters[idx],
            profile: profiles[idx],
            first_query_stats: first_query_stats[idx].unwrap_or_default(),
            fast_data_ratio: sched.fast_data_ratio(idx),
            total_bytes: sched.tenant_total_bytes(idx),
            fast_bytes: sched.tenant_resident(idx, TierId::FAST),
            slow_bytes: (1..sched.machine().num_tiers())
                .map(|t| sched.tenant_resident(idx, TierId::new(t)))
                .sum(),
            bytes_promoted: round.tenants[idx].bytes_promoted,
            bytes_demoted: round.tenants[idx].bytes_demoted,
            queries: stats.latencies.len(),
            p50_latency: stats.latency_percentile(50.0),
            p99_latency: stats.latency_percentile(99.0),
            checksum,
        });
    }
    Ok(ServeReport {
        tenants: reports,
        round,
        audit,
        total_time: sched.now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem::PlacementPolicy;
    use atmem_graph::Dataset;

    #[test]
    fn two_tenants_serve_cleanly() {
        let a = Dataset::Twitter.build_small(6);
        let b = Dataset::Pokec.build_small(6);
        // Two tiers under the paper's one-shot policy; then three tiers,
        // tenants placed hottest-first and a server that demotes, so the
        // round cascades and `slow_bytes` spans both colder tiers.
        let cases = [
            (
                Platform::testing(),
                MigrationConfig::default(),
                PlacementPolicy::AllSlow,
            ),
            (
                Platform::testing_three().with_tier_capacities(&[96 << 10, 160 << 10, 32 << 20]),
                MigrationConfig {
                    allow_demotion: true,
                    max_region_bytes: 4096,
                    ..MigrationConfig::default()
                },
                PlacementPolicy::PreferFast,
            ),
        ];
        for (platform, migration, default_placement) in cases {
            let config = AtmemConfig {
                default_placement,
                ..AtmemConfig::default()
            };
            let specs = [
                TenantSpec {
                    csr: &a,
                    app: App::PageRank,
                    config: config.clone(),
                    arrival_seed: 11,
                    queries: 3,
                    mean_gap_ns: 50_000.0,
                },
                TenantSpec {
                    csr: &b,
                    app: App::Bfs,
                    config,
                    arrival_seed: 22,
                    queries: 3,
                    mean_gap_ns: 80_000.0,
                },
            ];
            let tiers = platform.tiers.len();
            let demotes = migration.allow_demotion;
            let report = serve_protocols(platform, migration, &specs).unwrap();
            assert!(report.audit.is_empty(), "{tiers} tiers: {:?}", report.audit);
            for t in &report.tenants {
                assert_eq!(t.queries, 3);
                assert_eq!(t.fast_bytes + t.slow_bytes, t.total_bytes, "{tiers} tiers");
                assert!(t.p50_latency.as_ns() > 0.0);
                assert!(t.p99_latency.as_ns() >= t.p50_latency.as_ns());
            }
            assert!(report.round.promotion.bytes_moved > 0, "{tiers} tiers");
            let demoted: usize = report.tenants.iter().map(|t| t.bytes_demoted).sum();
            let demotion = report.round.demotion.map_or(0, |d| d.bytes_moved);
            assert_eq!(demoted, demotion, "{tiers} tiers");
            assert_eq!(demotion > 0, demotes, "{tiers} tiers");
        }
    }

    #[test]
    fn serving_is_deterministic() {
        let g = Dataset::Twitter.build_small(6);
        let spec = || {
            [TenantSpec {
                csr: &g,
                app: App::Cc,
                config: AtmemConfig::default(),
                arrival_seed: 7,
                queries: 4,
                mean_gap_ns: 30_000.0,
            }]
        };
        let r1 = serve_protocols(Platform::testing(), MigrationConfig::default(), &spec()).unwrap();
        let r2 = serve_protocols(Platform::testing(), MigrationConfig::default(), &spec()).unwrap();
        assert_eq!(r1.tenants[0].checksum, r2.tenants[0].checksum);
        assert_eq!(
            r1.tenants[0].p99_latency.as_ns(),
            r2.tenants[0].p99_latency.as_ns()
        );
        assert_eq!(r1.total_time.as_ns(), r2.total_time.as_ns());
        assert_eq!(r1.tenants[0].fast_data_ratio, r2.tenants[0].fast_data_ratio);
    }
}
