//! `migrate_churn`: rounds of profile → `optimize()` under a hot window
//! that moves every round, so each round demotes the stale window and
//! promotes the new one. Analyzer, planner and migration do the work; the
//! drive phases are scalar `get`s and double as the measure of access cost
//! on the mappings each mechanism leaves behind (`mbind` splinters them).
//!
//! The issue sized this at 16 rounds × 300 k accesses; the driver's time
//! cap leaves room for 12 rounds × (50 k profiled + 50 k measured), which
//! keeps `optimize()` above 40 % of the timed body.

use atmem::{AnalyzerKind, Atmem, AtmemConfig, MigrationMechanism, OptimizeReport};
use atmem_apps::HotWindow;
use atmem_hms::{Platform, TrackedVec};
use atmem_rng::SmallRng;

use super::{optimize_side_calls, record_outcome, record_stats, Rep, SetupTimes, Sim, Workload};
use crate::trace::{Sums, Tracer};
use crate::util::timed;

const ROUNDS: usize = 12;
const ACCESSES_PER_PHASE: usize = 50_000;
/// 64 MiB of `u64`, four times the fast tier.
const ELEMS: usize = 8 << 20;
const FAST_BYTES: usize = 16 << 20;
/// One marker per 4 KiB page proves migrations moved the right bytes.
const ELEMS_PER_PAGE: usize = 4096 / 8;

struct Config {
    name: &'static str,
    three_tier: bool,
    analyzer: AnalyzerKind,
    mechanism: MigrationMechanism,
}

const CONFIGS: [Config; 4] = [
    Config {
        name: "nvm.staged.paper",
        three_tier: false,
        analyzer: AnalyzerKind::Paper,
        mechanism: MigrationMechanism::Staged,
    },
    Config {
        name: "nvm.staged.learned",
        three_tier: false,
        analyzer: AnalyzerKind::Learned,
        mechanism: MigrationMechanism::Staged,
    },
    Config {
        name: "nvm.mbind.paper",
        three_tier: false,
        analyzer: AnalyzerKind::Paper,
        mechanism: MigrationMechanism::Mbind,
    },
    Config {
        name: "hbm3.staged.paper",
        three_tier: true,
        analyzer: AnalyzerKind::Paper,
        mechanism: MigrationMechanism::Staged,
    },
];

fn item_name(config: &Config) -> String {
    format!("apps.synth.churn.{}", config.name)
}

pub struct Churn {
    seed: u64,
    shrink: u32,
    /// Marker value per page.
    markers: Vec<u64>,
    rep_setup_s: f64,
}

impl Churn {
    pub fn new(seed: u64, shrink: u32) -> (Self, SetupTimes) {
        // `check` shrinks graphs by whole R-MAT levels; an eighth of the
        // array is small enough here.
        let shrink = shrink.min(3);
        let (markers, gen_s) = timed(|| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..(ELEMS >> shrink) / ELEMS_PER_PAGE)
                .map(|_| rng.next_u64())
                .collect()
        });
        let w = Churn {
            seed,
            shrink,
            markers,
            rep_setup_s: 0.0,
        };
        (
            w,
            SetupTimes {
                gen_s,
                weights_s: 0.0,
            },
        )
    }

    fn elems(&self) -> usize {
        ELEMS >> self.shrink
    }

    fn platform(&self, three_tier: bool) -> Platform {
        let fast = FAST_BYTES >> self.shrink;
        if three_tier {
            Platform::hbm_dram_cxl().with_tier_capacities(&[fast, 64 << 20, 256 << 20])
        } else {
            Platform::nvm_dram().with_capacities(fast, 768 << 20)
        }
    }

    /// The window of `round`: one of eight slots, three further each round,
    /// so it always moves and visits every slot. The schedule is the same
    /// for every seed (the seed draws the accesses and the markers), which
    /// keeps the simulated metrics' spread between seeds to sampling noise.
    fn window(&self, round: usize) -> HotWindow {
        let len = self.elems() / 8;
        HotWindow {
            start: (round * 3 % 8) * len,
            len,
            hot_fraction: 0.9,
        }
    }

    /// A fresh runtime with the array allocated and marked: the set-up
    /// every rep repeats, in seconds.
    fn fresh(
        &self,
        config: &Config,
        tr: &mut Tracer,
    ) -> atmem::Result<(Atmem, TrackedVec<u64>, f64)> {
        let build = || -> atmem::Result<(Atmem, TrackedVec<u64>)> {
            let mut cfg = AtmemConfig::default().with_analyzer(config.analyzer);
            cfg.migration.allow_demotion = true;
            cfg.migration.mechanism = config.mechanism;
            cfg.migration.max_region_bytes = (1 << 20) >> self.shrink;
            let mut rt = Atmem::new(self.platform(config.three_tier), cfg)?;
            let v = rt.malloc::<u64>(self.elems(), "churn")?;
            for (page, &marker) in self.markers.iter().enumerate() {
                v.poke(rt.machine_mut(), page * ELEMS_PER_PAGE, marker);
            }
            Ok((rt, v))
        };
        let (built, secs) = timed(|| tr.span("core.runtime.new", build));
        built.map(|(rt, v)| (rt, v, secs))
    }

    /// The timed body of one configuration. With `optimizing` off it is the
    /// all-slow reference: the same drives, no profile, no migration.
    fn rounds(
        &self,
        rt: &mut Atmem,
        v: &TrackedVec<u64>,
        config: &Config,
        optimizing: bool,
        tr: &mut Tracer,
        sim: &mut Sim,
    ) -> f64 {
        let mut measured_ms = 0.0;
        for round in 0..ROUNDS {
            let window = self.window(round);
            let seed = self.seed.wrapping_mul(1000) + round as u64;
            if optimizing {
                let report = (|| {
                    tr.span("core.profiler.start", || rt.profiling_start())?;
                    tr.span("apps.synth.drive", || {
                        window.drive(rt, v, ACCESSES_PER_PHASE, seed);
                    });
                    tr.span("core.profiler.stop", || rt.profiling_stop())?;
                    if tr.enabled() {
                        optimize_side_calls(rt, tr);
                    }
                    tr.span("core.runtime.optimize", || rt.optimize())
                })();
                match report {
                    Ok(report) => self.fold_optimize(&report, config, round, sim),
                    Err(e) => sim.check(false, || {
                        format!(
                            "{} round {round}: profile/optimize failed: {e}",
                            config.name
                        )
                    }),
                }
            }
            let t0 = rt.now();
            tr.span("apps.synth.drive", || {
                window.drive(rt, v, ACCESSES_PER_PHASE, seed ^ 0x5EED);
            });
            let phase_ms = (rt.now().as_ns() - t0.as_ns()) / 1e6;
            sim.digest.f64(phase_ms);
            measured_ms += phase_ms;
            sim.p99_ms = sim.p99_ms.max(phase_ms);
        }
        measured_ms
    }

    fn fold_optimize(&self, report: &OptimizeReport, config: &Config, round: usize, sim: &mut Sim) {
        let failed =
            report.migration.regions_failed + report.demotion.map_or(0, |d| d.regions_failed);
        sim.check(failed == 0, || {
            format!("{} round {round}: {failed} regions failed", config.name)
        });
        for outcome in report.demotion.iter().chain([&report.migration]) {
            record_outcome(sim, outcome);
        }
        let objects = &report.analysis.objects;
        sim.count("core.profiler.samples", report.profile.samples as f64);
        sim.count(
            "core.analyzer.chunks",
            objects.iter().map(|o| o.critical.len()).sum::<usize>() as f64,
        );
        sim.count(
            "core.analyzer.critical_chunks",
            objects.iter().map(|o| o.critical_count()).sum::<usize>() as f64,
        );
        sim.digest.f64(report.data_ratio);
    }

    /// Markers intact, audit clean.
    fn verify(
        &self,
        rt: &mut Atmem,
        v: &TrackedVec<u64>,
        config: &Config,
        tr: &mut Tracer,
        sim: &mut Sim,
    ) {
        let intact = self
            .markers
            .iter()
            .enumerate()
            .all(|(page, &m)| v.peek(rt.machine_mut(), page * ELEMS_PER_PAGE) == m);
        sim.check(intact, || {
            format!("{}: page markers changed under migration", config.name)
        });
        let audit = tr.span("hms.machine.audit", || rt.machine_mut().audit());
        sim.check(audit.is_empty(), || {
            format!("{}: audit {audit:?}", config.name)
        });
    }
}

impl Workload for Churn {
    fn items(&self) -> Vec<String> {
        CONFIGS.iter().map(item_name).collect()
    }

    fn reference(&mut self, sim: &mut Sim) -> Vec<f64> {
        // One all-slow pass per platform; the three nvm configurations
        // share theirs.
        let mut per_platform = [0.0; 2];
        let off = &mut Tracer::new(false);
        for config in [&CONFIGS[0], &CONFIGS[3]] {
            match self.fresh(config, off) {
                Ok((mut rt, v, _)) => {
                    per_platform[usize::from(config.three_tier)] =
                        self.rounds(&mut rt, &v, config, false, off, &mut Sim::default());
                    self.verify(&mut rt, &v, config, off, sim);
                }
                Err(e) => sim.check(false, || format!("{} reference: {e}", config.name)),
            }
        }
        CONFIGS
            .iter()
            .map(|c| per_platform[usize::from(c.three_tier)])
            .collect()
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut sim = Sim::default();
        let mut host = Vec::new();
        self.rep_setup_s = 0.0;
        let root = tr.enter("rep");
        for config in &CONFIGS {
            let item = tr.enter(&item_name(config));
            match self.fresh(config, tr) {
                Ok((mut rt, v, setup_s)) => {
                    self.rep_setup_s += setup_s;
                    let before = rt.machine().stats();
                    let rounds = tr.enter("apps.synth.rounds");
                    let side_before = tr.side_seconds();
                    let (ms, secs) = timed(|| self.rounds(&mut rt, &v, config, true, tr, &mut sim));
                    tr.exit(rounds);
                    host.push(secs - (tr.side_seconds() - side_before));
                    let stats = rt.machine().stats().delta(&before);
                    sim.item_ms.push(ms);
                    sim.item_accesses.push(stats.accesses);
                    record_stats(&mut sim, &stats);
                    let ratio = rt.fast_data_ratio();
                    sim.digest.f64(ratio);
                    sim.count("core.runtime.fast_data_ratio", ratio / CONFIGS.len() as f64);
                    self.verify(&mut rt, &v, config, tr, &mut sim);
                }
                Err(e) => {
                    sim.check(false, || format!("{}: set-up failed: {e}", config.name));
                    host.push(0.0);
                    sim.item_ms.push(0.0);
                    sim.item_accesses.push(0);
                }
            }
            tr.exit(item);
        }
        tr.exit(root);
        Rep { host, sim }
    }

    fn rep_setup_s(&self) -> f64 {
        self.rep_setup_s
    }

    fn layer_metrics(&self, sums: &Sums, sim: &Sim, out: &mut Vec<(String, f64)>) {
        for span in [
            "core.runtime.new",
            "apps.synth.drive",
            "hms.machine.audit",
            "core.profiler.start",
            "core.profiler.stop",
            "core.analyzer.paper",
            "core.analyzer.learned",
            "core.migrate.plan",
            "core.runtime.optimize",
        ] {
            out.push((format!("{span}_s"), sums.name(span)));
        }
        out.push((
            "apps.synth.drive_ns_per_access".to_string(),
            sums.name("apps.synth.drive") * 1e9 / sim.accesses() as f64,
        ));
    }

    fn probe_stream(&self) -> (Vec<u32>, usize) {
        // The drive's own distribution over round 0's window.
        let window = self.window(0);
        let elems = self.elems();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let stream = (0..1usize << 20)
            .map(|_| {
                if rng.gen::<f64>() < window.hot_fraction {
                    (window.start + rng.gen_range(0..window.len)) as u32
                } else {
                    rng.gen_range(0..elems) as u32
                }
            })
            .collect();
        (stream, elems)
    }
}
