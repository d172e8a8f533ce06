//! The five workloads behind one interface.
//!
//! A workload owns inputs generated from the seed and runs *reps*. An
//! untraced rep goes through the entry points users call (`run_protocol`,
//! `serve_protocols`, the `Atmem` API); a traced rep walks the same work as
//! the decomposed sequence of public calls with a span around each. Both
//! return the host seconds of every timed item and a [`Sim`] of everything
//! the simulator reported, which must be identical from rep to rep and
//! between the two forms.

pub mod churn;
pub mod protocol;
pub mod serve;

use atmem_apps::App;
use atmem_graph::Dataset;

use crate::trace::{Sums, Tracer};
use crate::util::Fnv;

/// Everything one rep simulated. Reps of a deterministic simulator must
/// compare equal; a rep that does not is a failed check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sim {
    /// Simulated milliseconds of each timed item (Σ = `sim_time_ms`).
    pub item_ms: Vec<f64>,
    /// Simulated latency of the slowest of the workload's units, see
    /// `sim_p99_latency_ms` in the README.
    pub p99_ms: f64,
    /// Simulated accesses each timed item performed.
    pub item_accesses: Vec<u64>,
    /// FNV-1a over checksums, clocks, ratios and counters.
    pub digest: Fnv,
    /// Checks made, and the ones that failed.
    pub checks: u64,
    pub failures: Vec<String>,
    /// Exact counters for the per-layer report.
    pub counters: Vec<(&'static str, f64)>,
}

impl Sim {
    pub fn accesses(&self) -> u64 {
        self.item_accesses.iter().sum()
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name, value)),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One rep: host seconds per timed item (in [`Workload::items`] order, net
/// of side spans when traced) and what was simulated.
#[derive(Debug, Clone)]
pub struct Rep {
    pub host: Vec<f64>,
    pub sim: Sim,
}

/// Set-up of one workload: the inputs' generation phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub weights_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.weights_s
    }
}

pub trait Workload {
    /// Names of the timed items.
    fn items(&self) -> Vec<String>;

    /// The all-slow reference: simulated milliseconds per item with the
    /// fast tier unused, for `sim_speedup`. Runs once, in the warm-up; its
    /// cross-checks (equal checksums, clean audits) land in `sim`.
    fn reference(&mut self, sim: &mut Sim) -> Vec<f64>;

    /// One rep; decomposed, with spans, when `tracer` is enabled.
    fn rep(&mut self, tracer: &mut Tracer) -> Rep;

    /// Spans only the traced run wants (baseline-mode and 1-core
    /// decompositions); checks land in `sim`.
    fn traced_extras(&mut self, _tracer: &mut Tracer, _sim: &mut Sim) {}

    /// Set-up this workload repeats on every rep (fresh runtimes), summed
    /// into `setup_s`; zero when the inputs are all there is.
    fn rep_setup_s(&self) -> f64 {
        0.0
    }

    /// Per-layer metrics only this workload can derive from its spans.
    fn layer_metrics(&self, sums: &Sums, sim: &Sim, out: &mut Vec<(String, f64)>);

    /// The index stream and array length the `hms` micro-probes replay:
    /// the workload's own access pattern.
    fn probe_stream(&self) -> (Vec<u32>, usize);
}

/// Builds workload `name` from `seed`, timing its set-up. `shrink` lowers
/// every graph scale by that many levels (`check` only).
pub fn build(name: &str, seed: u64, shrink: u32) -> Option<(Box<dyn Workload>, SetupTimes)> {
    use App::{Bc, Bfs, Cc, PageRank, Spmv, Sssp};
    let protocol = |apps: &'static [App], dataset, cores| {
        let (w, t) = protocol::Protocol::new(apps, dataset, cores, seed, shrink);
        Some((Box::new(w) as Box<dyn Workload>, t))
    };
    match name {
        "regular_sweep" => protocol(&[PageRank, Spmv, Cc], Dataset::Rmat27, 1),
        "traversal_frontier" => protocol(&[Bfs, Sssp, Bc], Dataset::Twitter, 1),
        "sharded_2core" => protocol(&[PageRank, Spmv, Bfs], Dataset::Rmat27, 2),
        "migrate_churn" => {
            let (w, t) = churn::Churn::new(seed, shrink);
            Some((Box::new(w), t))
        }
        "serve_mixed" => {
            let (w, t) = serve::Serve::new(seed, shrink);
            Some((Box::new(w), t))
        }
        _ => None,
    }
}

/// Folds a machine-counter snapshot into the digest and the exact
/// per-layer counters.
pub fn record_stats(sim: &mut Sim, s: &atmem_hms::MachineStats) {
    sim.digest.f64(s.time_ns);
    for c in [
        s.accesses,
        s.reads,
        s.writes,
        s.llc_read_hits,
        s.llc_read_misses,
        s.llc_write_hits,
        s.llc_write_misses,
        s.tlb_hits,
        s.tlb_misses,
        s.bytes_migrated,
    ] {
        sim.digest.u64(c);
    }
    sim.count("hms.tlb.misses", s.tlb_misses as f64);
    sim.count("hms.tlb.lookups", (s.tlb_hits + s.tlb_misses) as f64);
    sim.count("hms.cache.read_misses", s.llc_read_misses as f64);
    sim.count(
        "hms.cache.reads",
        (s.llc_read_hits + s.llc_read_misses) as f64,
    );
}

/// Folds one migration outcome into the digest and the exact per-layer
/// counters.
pub fn record_outcome(sim: &mut Sim, o: &atmem::MigrationOutcome) {
    sim.digest.u64(o.bytes_moved as u64);
    sim.digest.f64(o.time.as_ns());
    sim.count("core.migrate.bytes_moved", o.bytes_moved as f64);
    sim.count("core.migrate.regions", o.regions as f64);
    sim.count("core.migrate.regions_failed", o.regions_failed as f64);
    sim.count("core.migrate.regions_skipped", o.regions_skipped as f64);
    sim.count("core.migrate.sim_ms", o.time.as_ns() / 1e6);
}

/// Times the analyzer and the planner as side calls just before
/// `optimize()`: both are pure, so running them once more outside it
/// changes nothing `optimize()` then does. `optimize()` minus the two is
/// `core.migrate.execute_s` (an upper bound with demotion on, where the
/// optimizer plans twice).
pub fn optimize_side_calls(rt: &atmem::Atmem, tr: &mut Tracer) {
    let name = match rt.config().analyzer.kind {
        atmem::AnalyzerKind::Paper => "core.analyzer.paper",
        atmem::AnalyzerKind::Learned => "core.analyzer.learned",
    };
    let analysis = tr.side_span(name, || {
        atmem::analyze(rt.registry(), &rt.config().analyzer)
    });
    let migration = rt.config().migration;
    let budget =
        (rt.machine().free_bytes(atmem_hms::TierId::FAST) as f64 * migration.budget_frac) as usize;
    tr.side_span("core.migrate.plan", || {
        atmem::build_plan(rt.registry(), &analysis, &migration, budget)
    });
}
