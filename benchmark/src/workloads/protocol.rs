//! `regular_sweep`, `traversal_frontier` and `sharded_2core`: the paper's
//! two-iteration protocol per application, on `Platform::nvm_dram()`.
//!
//! Timed items are the `Mode::Atmem` runs (profile, optimize, measure) —
//! what a user of ATMem runs. The `Mode::Baseline` control runs once in
//! the warm-up for `sim_speedup` and the equal-checksum check, and again,
//! decomposed, in the traced run for the `baseline` per-layer metrics.

use atmem::{Atmem, AtmemConfig, MigrationOutcome, OptimizeReport};
use atmem_apps::{run_protocol_cores, App, HmsGraph, MemCtx, Mode, ProtocolResult};
use atmem_graph::{rmat, Csr, Dataset};
use atmem_hms::{MachineStats, Platform};

use super::{optimize_side_calls, record_outcome, record_stats, Rep, SetupTimes, Sim, Workload};
use crate::trace::{Sums, Tracer};
use crate::util::timed;

/// What one protocol run reported, in the form both the opaque and the
/// decomposed run can produce.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    first_iter_ns: f64,
    second_iter_ns: f64,
    stats: MachineStats,
    data_ratio: f64,
    checksum: f64,
    audit: Vec<String>,
    optimize: Option<OptimizeFacts>,
}

#[derive(Debug, Clone, PartialEq)]
struct OptimizeFacts {
    migration: MigrationOutcome,
    demotion: Option<MigrationOutcome>,
    samples: u64,
    chunks: usize,
    critical_chunks: usize,
}

impl OptimizeFacts {
    fn of(report: &OptimizeReport) -> Self {
        let objects = &report.analysis.objects;
        OptimizeFacts {
            migration: report.migration,
            demotion: report.demotion,
            samples: report.profile.samples,
            chunks: objects.iter().map(|o| o.critical.len()).sum(),
            critical_chunks: objects.iter().map(|o| o.critical_count()).sum(),
        }
    }
}

impl Facts {
    fn of(r: ProtocolResult) -> Self {
        Facts {
            first_iter_ns: r.first_iter.as_ns(),
            second_iter_ns: r.second_iter.as_ns(),
            stats: r.second_iter_stats,
            data_ratio: r.data_ratio,
            checksum: r.checksum,
            audit: r.audit,
            optimize: r.optimize.as_ref().map(OptimizeFacts::of),
        }
    }
}

pub struct Protocol {
    apps: &'static [App],
    cores: usize,
    csr: Csr,
    weighted: Csr,
    /// `Mode::Baseline` facts per app, from [`Workload::reference`].
    baseline: Vec<Facts>,
}

fn item_name(app: App, mode: Mode) -> String {
    format!("apps.runner.protocol.{}.{}", app.name(), mode.name())
}

impl Protocol {
    pub fn new(
        apps: &'static [App],
        dataset: Dataset,
        cores: usize,
        seed: u64,
        shrink: u32,
    ) -> (Self, SetupTimes) {
        let mut config = dataset.config();
        config.scale -= shrink;
        let (csr, gen_s) = timed(|| rmat(&config, seed));
        let copy = csr.clone();
        let (weighted, weights_s) = timed(|| copy.with_random_weights(64.0, seed ^ 0x57ED5));
        let w = Protocol {
            apps,
            cores,
            csr,
            weighted,
            baseline: Vec::new(),
        };
        (w, SetupTimes { gen_s, weights_s })
    }

    fn graph(&self, app: App) -> &Csr {
        if app.needs_weights() {
            &self.weighted
        } else {
            &self.csr
        }
    }

    fn opaque(&self, app: App, mode: Mode) -> (atmem::Result<Facts>, f64) {
        let (r, secs) = timed(|| {
            run_protocol_cores(
                Platform::nvm_dram(),
                AtmemConfig::default(),
                self.graph(app),
                app,
                mode,
                self.cores,
            )
        });
        (r.map(Facts::of), secs)
    }

    /// The body of `run_protocol_cores`, call by public call, with a span
    /// around each. Returns the facts and the item's host seconds net of
    /// side spans.
    fn decomposed(
        &self,
        tr: &mut Tracer,
        item: &str,
        app: App,
        mode: Mode,
        cores: usize,
    ) -> (atmem::Result<Facts>, f64) {
        let atmem = mode == Mode::Atmem;
        let (iter1, iter2) = if atmem {
            ("apps.kernel.iter1", "apps.kernel.iter2")
        } else {
            ("apps.kernel.baseline_iter", "apps.kernel.baseline_iter")
        };
        let span = tr.enter(item);
        let side_before = tr.side_seconds();
        let facts = (|| {
            let mut rt = tr.span("core.runtime.new", || {
                Atmem::new(Platform::nvm_dram(), AtmemConfig::default())
            })?;
            let graph = tr.span("apps.graph_data.load", || {
                HmsGraph::load(&mut rt, self.graph(app))
            })?;
            let mut kernel = tr.span("apps.kernel.instantiate", || {
                app.instantiate(&mut rt, graph)
            })?;

            tr.span("apps.kernel.reset", || kernel.reset(&mut rt));
            if atmem {
                tr.span("core.profiler.start", || rt.profiling_start())?;
            }
            let t0 = rt.now();
            tr.span(iter1, || {
                kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
            });
            let first_iter_ns = rt.now().as_ns() - t0.as_ns();
            let mut optimize = None;
            if atmem {
                tr.span("core.profiler.stop", || rt.profiling_stop())?;
                optimize_side_calls(&rt, tr);
                let report = tr.span("core.runtime.optimize", || rt.optimize())?;
                optimize = Some(OptimizeFacts::of(&report));
            }

            tr.span("apps.kernel.reset", || kernel.reset(&mut rt));
            let before = rt.machine().stats();
            let t1 = rt.now();
            tr.span(iter2, || {
                kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
            });
            let second_iter_ns = rt.now().as_ns() - t1.as_ns();
            let stats = rt.machine().stats().delta(&before);
            let data_ratio = rt.fast_data_ratio();
            let checksum = tr.span("apps.kernel.checksum", || kernel.checksum(&mut rt));
            let audit = tr.span("hms.machine.audit", || rt.machine_mut().audit());
            Ok(Facts {
                first_iter_ns,
                second_iter_ns,
                stats,
                data_ratio,
                checksum,
                audit,
                optimize,
            })
        })();
        let secs = tr.exit(span) - (tr.side_seconds() - side_before);
        (facts, secs)
    }

    /// Folds one `Mode::Atmem` run into the rep's simulated facts.
    fn fold(&self, sim: &mut Sim, i: usize, facts: atmem::Result<Facts>) {
        let app = self.apps[i];
        let facts = match facts {
            Ok(f) => f,
            Err(e) => {
                sim.check(false, || format!("{app}: protocol run failed: {e}"));
                sim.item_ms.push(0.0);
                sim.item_accesses.push(0);
                return;
            }
        };
        sim.check(facts.audit.is_empty(), || {
            format!("{app}: audit {:?}", facts.audit)
        });
        if let Some(base) = self.baseline.get(i) {
            sim.check(facts.checksum.to_bits() == base.checksum.to_bits(), || {
                format!(
                    "{app}: atmem checksum {} != baseline {}",
                    facts.checksum, base.checksum
                )
            });
        }
        let ms = facts.second_iter_ns / 1e6;
        sim.item_ms.push(ms);
        sim.p99_ms = sim.p99_ms.max(ms);
        // Both iterations issue the same accesses; only the second is
        // reported by the protocol.
        sim.item_accesses.push(2 * facts.stats.accesses);
        sim.digest.f64(facts.first_iter_ns);
        sim.digest.f64(facts.second_iter_ns);
        sim.digest.f64(facts.data_ratio);
        sim.digest.f64(facts.checksum);
        record_stats(sim, &facts.stats);
        sim.count(
            "core.runtime.fast_data_ratio",
            facts.data_ratio / self.apps.len() as f64,
        );
        if let Some(opt) = &facts.optimize {
            let failed = opt.migration.regions_failed;
            sim.check(failed == 0, || format!("{app}: {failed} regions failed"));
            record_outcome(sim, &opt.migration);
            sim.count("core.profiler.samples", opt.samples as f64);
            sim.count("core.analyzer.chunks", opt.chunks as f64);
            sim.count("core.analyzer.critical_chunks", opt.critical_chunks as f64);
        }
    }
}

impl Workload for Protocol {
    fn items(&self) -> Vec<String> {
        self.apps
            .iter()
            .map(|&app| item_name(app, Mode::Atmem))
            .collect()
    }

    fn reference(&mut self, sim: &mut Sim) -> Vec<f64> {
        self.baseline.clear();
        for &app in self.apps {
            match self.opaque(app, Mode::Baseline).0 {
                Ok(facts) => {
                    sim.check(facts.audit.is_empty(), || {
                        format!("{app} baseline: audit {:?}", facts.audit)
                    });
                    self.baseline.push(facts);
                }
                Err(e) => sim.check(false, || format!("{app} baseline: run failed: {e}")),
            }
        }
        self.baseline
            .iter()
            .map(|f| f.second_iter_ns / 1e6)
            .collect()
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut sim = Sim::default();
        let mut host = Vec::new();
        let root = tr.enter("rep");
        for (i, &app) in self.apps.iter().enumerate() {
            let (facts, secs) = if tr.enabled() {
                let item = item_name(app, Mode::Atmem);
                self.decomposed(tr, &item, app, Mode::Atmem, self.cores)
            } else {
                self.opaque(app, Mode::Atmem)
            };
            host.push(secs);
            self.fold(&mut sim, i, facts);
        }
        tr.exit(root);
        Rep { host, sim }
    }

    fn traced_extras(&mut self, tr: &mut Tracer, sim: &mut Sim) {
        let root = tr.enter("rep");
        for (i, &app) in self.apps.iter().enumerate() {
            let name = item_name(app, Mode::Baseline);
            let facts = self
                .decomposed(tr, &name, app, Mode::Baseline, self.cores)
                .0;
            sim.check(facts.as_ref().ok() == self.baseline.get(i), || {
                format!("{app} baseline: decomposed run differs from run_protocol")
            });
            if self.cores > 1 {
                // The same kernel on one core, for `hms.shard.scaling`.
                let name = format!("{}.1core", item_name(app, Mode::Atmem));
                let facts = self.decomposed(tr, &name, app, Mode::Atmem, 1).0;
                sim.check(facts.is_ok_and(|f| f.audit.is_empty()), || {
                    format!("{app} on 1 core: run failed or audit not clean")
                });
            }
        }
        tr.exit(root);
    }

    fn layer_metrics(&self, sums: &Sums, sim: &Sim, out: &mut Vec<(String, f64)>) {
        let modes = [Mode::Atmem, Mode::Baseline];
        let total = |span: &str| -> f64 {
            self.apps
                .iter()
                .flat_map(|&app| modes.map(|mode| sums.item(&item_name(app, mode), span)))
                .sum()
        };
        for span in [
            "core.runtime.new",
            "apps.graph_data.load",
            "apps.kernel.instantiate",
            "apps.kernel.reset",
            "apps.kernel.checksum",
            "apps.kernel.iter1",
            "apps.kernel.iter2",
            "apps.kernel.baseline_iter",
            "hms.machine.audit",
            "core.profiler.start",
            "core.profiler.stop",
            "core.analyzer.paper",
            "core.migrate.plan",
            "core.runtime.optimize",
        ] {
            out.push((format!("{span}_s"), total(span)));
        }
        for (i, &app) in self.apps.iter().enumerate() {
            // Per iteration: placement does not change what a kernel reads.
            let accesses = sim.item_accesses[i] as f64 / 2.0;
            let atmem = item_name(app, Mode::Atmem);
            let baseline = item_name(app, Mode::Baseline);
            for (phase, item, span, iterations) in [
                ("iter1", &atmem, "apps.kernel.iter1", 1.0),
                ("iter2", &atmem, "apps.kernel.iter2", 1.0),
                ("baseline", &baseline, "apps.kernel.baseline_iter", 2.0),
            ] {
                out.push((
                    format!("apps.kernel.{phase}_ns_per_access.{app}"),
                    sums.item(item, span) * 1e9 / (accesses * iterations),
                ));
            }
            for mode in modes {
                out.push((
                    format!("apps.runner.protocol_s.{app}.{}", mode.name()),
                    sums.name(&item_name(app, mode)),
                ));
            }
            if self.cores > 1 {
                out.push((
                    format!("hms.shard.scaling.{app}"),
                    sums.name(&format!("{atmem}.1core")) / sums.name(&atmem),
                ));
            }
        }
    }

    fn probe_stream(&self) -> (Vec<u32>, usize) {
        let stream = self.csr.neighbors();
        (
            stream[..stream.len().min(1 << 20)].to_vec(),
            self.csr.num_vertices(),
        )
    }
}
