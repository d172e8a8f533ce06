//! `serve_mixed`: four tenants with their own kernels and graphs served
//! over one machine — host cost per served query, not per access. The
//! simulated arrival streams are open-loop (seeded gaps, a burst the
//! all-slow server cannot keep up with); the host drives them closed-loop
//! on one thread.

use std::collections::VecDeque;

use atmem::{analyze, AtmemConfig, MigrationConfig, MigrationOutcome, Scheduler};
use atmem_apps::{serve_protocols, App, HmsGraph, MemCtx, ServeReport, TenantSpec};
use atmem_graph::{rmat, Csr, Dataset};
use atmem_hms::{MachineStats, Platform, SimDuration, TierId};
use atmem_rng::SmallRng;

use super::{record_outcome, record_stats, Rep, SetupTimes, Sim, Workload};
use crate::trace::{Sums, Tracer};
use crate::util::timed;

const QUERIES: usize = 12;
/// Mean simulated gap between one tenant's arrivals: four tenants offer a
/// query every 50 ms against ~150 ms of service, so queues build.
const MEAN_GAP_NS: f64 = 2.0e8;
const ITEM: &str = "apps.serve.session";

/// What a session reported, in the form both `serve_protocols` and the
/// decomposed `Scheduler` loop can produce.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    tenants: Vec<TenantFacts>,
    promotion: MigrationOutcome,
    demotion: Option<MigrationOutcome>,
    dropped_bytes: usize,
    audit: Vec<String>,
    total_time_ns: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct TenantFacts {
    first_iter_ns: f64,
    samples: u64,
    first_query_stats: MachineStats,
    fast_data_ratio: f64,
    total_bytes: usize,
    fast_bytes: usize,
    slow_bytes: usize,
    bytes_promoted: usize,
    bytes_demoted: usize,
    queries: usize,
    p50_ns: f64,
    p99_ns: f64,
    checksum: f64,
}

impl Facts {
    fn of(r: ServeReport) -> Self {
        Facts {
            tenants: r
                .tenants
                .iter()
                .map(|t| TenantFacts {
                    first_iter_ns: t.first_iter.as_ns(),
                    samples: t.profile.samples,
                    first_query_stats: t.first_query_stats,
                    fast_data_ratio: t.fast_data_ratio,
                    total_bytes: t.total_bytes,
                    fast_bytes: t.fast_bytes,
                    slow_bytes: t.slow_bytes,
                    bytes_promoted: t.bytes_promoted,
                    bytes_demoted: t.bytes_demoted,
                    queries: t.queries,
                    p50_ns: t.p50_latency.as_ns(),
                    p99_ns: t.p99_latency.as_ns(),
                    checksum: t.checksum,
                })
                .collect(),
            promotion: r.round.promotion,
            demotion: r.round.demotion,
            dropped_bytes: r.round.dropped_bytes,
            audit: r.audit,
            total_time_ns: r.total_time.as_ns(),
        }
    }
}

pub struct Serve {
    seed: u64,
    rmat24: Csr,
    rmat24_weighted: Csr,
    pokec: Csr,
    /// Per-tenant checksums of the all-slow session.
    reference_checksums: Vec<f64>,
}

impl Serve {
    pub fn new(seed: u64, shrink: u32) -> (Self, SetupTimes) {
        let shrunk = |dataset: Dataset| {
            let mut config = dataset.config();
            config.scale -= shrink;
            config
        };
        let ((rmat24, pokec), gen_s) = timed(|| {
            (
                rmat(&shrunk(Dataset::Rmat24), seed),
                rmat(&shrunk(Dataset::Pokec), seed ^ 0x9F0C),
            )
        });
        let copy = rmat24.clone();
        let (rmat24_weighted, weights_s) = timed(|| copy.with_random_weights(64.0, seed ^ 0x57ED5));
        let w = Serve {
            seed,
            rmat24,
            rmat24_weighted,
            pokec,
            reference_checksums: Vec::new(),
        };
        (w, SetupTimes { gen_s, weights_s })
    }

    fn specs(&self) -> Vec<TenantSpec<'_>> {
        [
            (App::PageRank, &self.rmat24),
            (App::Bfs, &self.rmat24),
            (App::Spmv, &self.rmat24_weighted),
            (App::Cc, &self.pokec),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (app, csr))| TenantSpec {
            csr,
            app,
            config: AtmemConfig::default(),
            arrival_seed: self.seed.wrapping_mul(31) + i as u64,
            queries: QUERIES,
            mean_gap_ns: MEAN_GAP_NS,
        })
        .collect()
    }

    fn opaque(&self, migration: MigrationConfig) -> (atmem::Result<Facts>, f64) {
        let specs = self.specs();
        let (r, secs) = timed(|| serve_protocols(Platform::nvm_dram(), migration, &specs));
        (r.map(Facts::of), secs)
    }

    /// The body of `serve_protocols` over the public `Scheduler` API, with
    /// a span around every scheduler call and every call a quantum makes.
    fn decomposed(&self, tr: &mut Tracer) -> (atmem::Result<Facts>, f64) {
        let span = tr.enter(ITEM);
        let side_before = tr.side_seconds();
        let facts = self.session(tr);
        let secs = tr.exit(span) - (tr.side_seconds() - side_before);
        (facts, secs)
    }

    fn session(&self, tr: &mut Tracer) -> atmem::Result<Facts> {
        let specs = self.specs();
        let n = specs.len();
        let mut sched = Scheduler::new(Platform::nvm_dram(), MigrationConfig::default());
        // A quantum span holds the spans of what runs inside it; its self
        // time is the scheduler's own cost.
        fn quantum<R>(
            tr: &mut Tracer,
            sched: &mut Scheduler,
            idx: usize,
            f: impl FnOnce(&mut Tracer, &mut atmem::Atmem) -> R,
        ) -> R {
            let q = tr.enter("core.serve.quantum");
            let r = sched.run_quantum(idx, |rt| f(tr, rt));
            tr.exit(q);
            r
        }

        let mut kernels = Vec::with_capacity(n);
        for spec in &specs {
            let idx = tr.span("core.serve.add_tenant", || {
                sched.add_tenant(spec.config.clone())
            })?;
            kernels.push(quantum(tr, &mut sched, idx, |tr, rt| {
                let graph = tr.span("apps.graph_data.load", || HmsGraph::load(rt, spec.csr))?;
                tr.span("apps.kernel.instantiate", || {
                    spec.app.instantiate(rt, graph)
                })
            })?);
        }

        let mut first_iters = Vec::with_capacity(n);
        let mut samples = Vec::with_capacity(n);
        for (idx, kernel) in kernels.iter_mut().enumerate() {
            let (first_iter_ns, profile) =
                quantum(tr, &mut sched, idx, |tr, rt| -> atmem::Result<_> {
                    tr.span("apps.kernel.reset", || kernel.reset(rt));
                    tr.span("core.profiler.start", || rt.profiling_start())?;
                    let t0 = rt.now();
                    tr.span("apps.kernel.iter1", || {
                        kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
                    });
                    let first_iter_ns = rt.now().as_ns() - t0.as_ns();
                    let profile = tr.span("core.profiler.stop", || rt.profiling_stop())?;
                    Ok((first_iter_ns, profile))
                })?;
            first_iters.push(first_iter_ns);
            samples.push(profile.samples);
        }

        for idx in 0..n {
            let tenant = sched.tenant(idx);
            tr.side_span("core.analyzer.paper", || {
                analyze(tenant.registry(), &tenant.config().analyzer)
            });
        }
        let round = tr.span("core.serve.optimize_round", || sched.optimize_round())?;
        let mut audit = tr.span("core.serve.audit", || sched.audit());
        // The machine's share of every scheduler audit, as a side call.
        tr.side_span("hms.machine.audit", || sched.machine_mut().audit());

        let serving_start = sched.now().as_ns();
        let mut arrivals: Vec<VecDeque<f64>> = specs
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
        let mut first_query_stats: Vec<Option<MachineStats>> = vec![None; n];
        // Earliest arrival first; ties go to the lower tenant id.
        while let Some((idx, arrival)) = arrivals
            .iter()
            .enumerate()
            .filter_map(|(i, queue)| queue.front().map(|&at| (i, at)))
            .reduce(|best, next| if next.1 < best.1 { next } else { best })
        {
            arrivals[idx].pop_front();
            let now = sched.now().as_ns();
            if arrival > now {
                sched.advance_clock(SimDuration::from_ns(arrival - now));
            }
            let kernel = &mut kernels[idx];
            let (delta, completion) = quantum(tr, &mut sched, idx, |tr, rt| {
                tr.span("apps.kernel.reset", || kernel.reset(rt));
                let before = rt.machine().stats();
                tr.span("apps.kernel.iter2", || {
                    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
                });
                (rt.machine().stats().delta(&before), rt.now())
            });
            let latency = (completion.as_ns() - arrival).max(0.0);
            sched.record_latency(idx, SimDuration::from_ns(latency));
            first_query_stats[idx].get_or_insert(delta);
            audit.extend(tr.span("core.serve.audit", || sched.audit()));
            tr.side_span("hms.machine.audit", || sched.machine_mut().audit());
        }

        let mut tenants = Vec::with_capacity(n);
        for idx in 0..n {
            let kernel = &kernels[idx];
            let checksum = quantum(tr, &mut sched, idx, |tr, rt| {
                tr.span("apps.kernel.checksum", || kernel.checksum(rt))
            });
            let stats = sched.stats(idx);
            tenants.push(TenantFacts {
                first_iter_ns: first_iters[idx],
                samples: samples[idx],
                first_query_stats: first_query_stats[idx].unwrap_or_default(),
                fast_data_ratio: sched.fast_data_ratio(idx),
                total_bytes: sched.tenant_total_bytes(idx),
                fast_bytes: sched.tenant_resident(idx, TierId::FAST),
                slow_bytes: sched.tenant_resident(idx, TierId::SLOW),
                bytes_promoted: round.tenants[idx].bytes_promoted,
                bytes_demoted: round.tenants[idx].bytes_demoted,
                queries: stats.latencies.len(),
                p50_ns: stats.latency_percentile(50.0).as_ns(),
                p99_ns: stats.latency_percentile(99.0).as_ns(),
                checksum,
            });
        }
        Ok(Facts {
            tenants,
            promotion: round.promotion,
            demotion: round.demotion,
            dropped_bytes: round.dropped_bytes,
            audit,
            total_time_ns: sched.now().as_ns(),
        })
    }

    fn fold(&self, facts: atmem::Result<Facts>) -> Sim {
        let mut sim = Sim::default();
        let facts = match facts {
            Ok(f) => f,
            Err(e) => {
                sim.check(false, || format!("serving session failed: {e}"));
                sim.item_ms.push(0.0);
                sim.item_accesses.push(0);
                return sim;
            }
        };
        sim.check(facts.audit.is_empty(), || {
            format!("audit/conservation: {:?}", facts.audit)
        });
        let failed = facts.promotion.regions_failed;
        sim.check(failed == 0, || {
            format!("{failed} regions failed in the round")
        });
        let mut accesses = 0;
        for (i, t) in facts.tenants.iter().enumerate() {
            sim.check(
                t.queries == QUERIES && t.fast_bytes + t.slow_bytes == t.total_bytes,
                || {
                    format!(
                        "tenant {i}: {} queries, {} + {} of {} bytes",
                        t.queries, t.fast_bytes, t.slow_bytes, t.total_bytes
                    )
                },
            );
            if let Some(reference) = self.reference_checksums.get(i) {
                sim.check(t.checksum.to_bits() == reference.to_bits(), || {
                    format!(
                        "tenant {i}: checksum {} != all-slow {reference}",
                        t.checksum
                    )
                });
            }
            // Every query replays the profiled iteration's accesses.
            accesses += t.first_query_stats.accesses * (t.queries as u64 + 1);
            sim.p99_ms = sim.p99_ms.max(t.p99_ns / 1e6);
            sim.digest.f64(t.first_iter_ns);
            sim.digest.f64(t.fast_data_ratio);
            for bytes in [
                t.fast_bytes,
                t.slow_bytes,
                t.bytes_promoted,
                t.bytes_demoted,
            ] {
                sim.digest.u64(bytes as u64);
            }
            sim.digest.f64(t.p50_ns);
            sim.digest.f64(t.p99_ns);
            sim.digest.f64(t.checksum);
            record_stats(&mut sim, &t.first_query_stats);
            sim.count("core.profiler.samples", t.samples as f64);
            sim.count(
                "core.runtime.fast_data_ratio",
                t.fast_data_ratio / facts.tenants.len() as f64,
            );
            sim.count("apps.serve.queries", t.queries as f64);
        }
        for outcome in facts.demotion.iter().chain([&facts.promotion]) {
            record_outcome(&mut sim, outcome);
        }
        sim.digest.u64(facts.dropped_bytes as u64);
        sim.digest.f64(facts.total_time_ns);
        sim.item_ms.push(facts.total_time_ns / 1e6);
        sim.item_accesses.push(accesses);
        sim
    }
}

impl Workload for Serve {
    fn items(&self) -> Vec<String> {
        vec![ITEM.to_string()]
    }

    fn reference(&mut self, sim: &mut Sim) -> Vec<f64> {
        // The same session with no fast-tier budget: nothing is promoted.
        let all_slow = MigrationConfig {
            budget_frac: 0.0,
            ..MigrationConfig::default()
        };
        match self.opaque(all_slow).0 {
            Ok(facts) => {
                sim.check(facts.audit.is_empty(), || {
                    format!("all-slow session: audit {:?}", facts.audit)
                });
                self.reference_checksums = facts.tenants.iter().map(|t| t.checksum).collect();
                vec![facts.total_time_ns / 1e6]
            }
            Err(e) => {
                sim.check(false, || format!("all-slow session failed: {e}"));
                vec![0.0]
            }
        }
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let (facts, secs) = if tr.enabled() {
            let root = tr.enter("rep");
            let out = self.decomposed(tr);
            tr.exit(root);
            out
        } else {
            self.opaque(MigrationConfig::default())
        };
        Rep {
            host: vec![secs],
            sim: self.fold(facts),
        }
    }

    fn layer_metrics(&self, sums: &Sums, sim: &Sim, out: &mut Vec<(String, f64)>) {
        for span in [
            "apps.graph_data.load",
            "apps.kernel.instantiate",
            "apps.kernel.reset",
            "apps.kernel.checksum",
            "apps.kernel.iter1",
            "apps.kernel.iter2",
            "core.profiler.start",
            "core.profiler.stop",
            "core.analyzer.paper",
            "core.serve.add_tenant",
            "core.serve.optimize_round",
            "core.serve.audit",
            "hms.machine.audit",
        ] {
            out.push((format!("{span}_s"), sums.name(span)));
        }
        out.push((
            "core.serve.quantum_s".to_string(),
            sums.self_name("core.serve.quantum"),
        ));
        // The shared round is this workload's `optimize()`.
        out.push((
            "core.runtime.optimize_s".to_string(),
            sums.name("core.serve.optimize_round"),
        ));
        let session_s = sums.name(ITEM);
        out.push(("apps.serve.session_s".to_string(), session_s));
        out.push((
            "host_ms_per_query".to_string(),
            session_s * 1e3 / sim.counter("apps.serve.queries"),
        ));
    }

    fn probe_stream(&self) -> (Vec<u32>, usize) {
        let stream = self.rmat24.neighbors();
        (
            stream[..stream.len().min(1 << 20)].to_vec(),
            self.rmat24.num_vertices(),
        )
    }
}
