//! The paper's experimental protocol (§6).
//!
//! "For each test, ATMem turns on hardware profiling in the first iteration
//! and migrates data before the second iteration starts. The evaluation
//! uses the benchmark run time from the second iteration as the optimized
//! execution time."
//!
//! [`Protocol`] is that protocol, written once, for any of the placement
//! modes the figures compare: [`Protocol::start`] checks the mode rules
//! and loads the kernel, each [`Protocol::round`] runs one iteration
//! (profiled, then optimized, under [`Mode::Atmem`]) and
//! [`Protocol::finish`] the measured one. [`run_protocol`] and
//! [`run_protocol_cores`] run a one-round session; a multi-round caller,
//! or one that reports between the steps, drives a session itself. Each
//! iteration, here and in [`serve_protocols`](crate::serve_protocols), is one `step`.

use atmem::{
    AnalyzerKind, Atmem, AtmemConfig, AtmemError, OptimizePolicy, OptimizeReport, PlacementPolicy,
    ProfileSummary, Result,
};
use atmem_graph::Csr;
use atmem_hms::{MachineStats, Platform, SimDuration};

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::{App, Kernel};

/// Placement strategy of one experimental run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Everything on the large-capacity tier (the paper's baseline).
    Baseline,
    /// Everything on the fast tier (the all-DRAM ideal; infeasible for
    /// large data on MCDRAM).
    Ideal,
    /// `numactl --preferred` fast-tier-first fill (the MCDRAM-p reference).
    Preferred,
    /// ATMem: profile iteration 1, migrate, measure iteration 2.
    Atmem,
}

impl Mode {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Ideal => "ideal",
            Mode::Preferred => "preferred",
            Mode::Atmem => "atmem",
        }
    }

    fn placement_policy(self) -> PlacementPolicy {
        match self {
            Mode::Baseline | Mode::Atmem => PlacementPolicy::AllSlow,
            Mode::Ideal => PlacementPolicy::AllFast,
            Mode::Preferred => PlacementPolicy::PreferFast,
        }
    }
}

/// Result of one protocol run.
#[derive(Debug)]
pub struct ProtocolResult {
    /// Simulated time of iteration 1 (profiled under [`Mode::Atmem`]).
    pub first_iter: SimDuration,
    /// Simulated time of iteration 2 — the number the figures report.
    pub second_iter: SimDuration,
    /// Optimization report of the last round (only for [`Mode::Atmem`]).
    pub optimize: Option<OptimizeReport>,
    /// Fast-data ratio after each profile→optimize round (one entry per
    /// round under [`Mode::Atmem`], empty otherwise). Convergence tests
    /// read this to watch a policy climb towards its fixpoint.
    pub round_ratios: Vec<f64>,
    /// Machine counter deltas over iteration 2 (TLB misses for Table 4).
    pub second_iter_stats: MachineStats,
    /// Fraction of registered data on the fast tier during iteration 2.
    pub data_ratio: f64,
    /// Kernel output checksum, for cross-mode correctness checks.
    pub checksum: f64,
    /// Memory-system invariant violations found by [`Machine::audit`] after
    /// the run (empty on a healthy run). Tests assert on this so every
    /// end-to-end scenario doubles as an invariant check.
    ///
    /// [`Machine::audit`]: atmem_hms::Machine::audit
    pub audit: Vec<String>,
}

/// Runs the two-iteration protocol of the paper for `app` on `csr`.
///
/// # Errors
///
/// Propagates allocation and migration failures. [`Mode::Ideal`] fails with
/// an out-of-memory error when the data does not fit the fast tier — the
/// same reason the paper cannot report an MCDRAM ideal for large inputs.
pub fn run_protocol(
    platform: Platform,
    config: AtmemConfig,
    csr: &Csr,
    app: App,
    mode: Mode,
) -> Result<ProtocolResult> {
    run_protocol_cores(platform, config, csr, app, mode, 1)
}

/// Like [`run_protocol`], but drives both measured iterations with
/// `par_cores` simulated cores. Every protocol app is sharded-capable:
/// the regular kernels (PageRank, CC, SpMV) partition their streaming
/// phases and the traversal kernels (BFS, SSSP, BC) partition
/// each frontier level with owner-routed next-frontier queues, all under
/// the deterministic reduction contract. The
/// profiler consumes the merged (core-order-concatenated) PEBS stream
/// exactly as it consumes a one-core one, and `par_cores == 1` is
/// bit-identical to [`run_protocol`].
///
/// # Errors
///
/// Same failure modes as [`run_protocol`], plus the mode rules of
/// [`Protocol::start`].
pub fn run_protocol_cores(
    platform: Platform,
    config: AtmemConfig,
    csr: &Csr,
    app: App,
    mode: Mode,
    par_cores: usize,
) -> Result<ProtocolResult> {
    Protocol::start(platform, config, csr, app, mode, par_cores, 1)?.finish()
}

/// One session of the protocol on its own runtime, driven step by step.
/// The module docs of `crates/apps/src/runner.rs` give the steps.
#[derive(Debug)]
pub struct Protocol {
    rt: Atmem,
    kernel: Box<dyn Kernel>,
    mode: Mode,
    cores: usize,
    rounds_left: usize,
    first_iter: Option<SimDuration>,
    optimize: Option<OptimizeReport>,
    round_ratios: Vec<f64>,
}

impl Protocol {
    /// Checks the mode rules, then loads `csr` and instantiates `app` on a
    /// fresh runtime, for `rounds` profile→optimize rounds and the
    /// measured iteration, each at `cores` simulated cores. One round is
    /// the paper's protocol; more let incremental policies converge (the
    /// AutoNUMA baseline lifts a page one tier per round) and give
    /// phase-adaptive configurations one re-ranking per round.
    ///
    /// # Errors
    ///
    /// [`AtmemError::InvalidConfig`] for `rounds == 0`, and for a request
    /// that the mode would silently ignore: more than one round, or an
    /// optimize policy or analyzer kind other than the default, under a
    /// mode that never optimizes. Each mode *is* a placement experiment:
    /// its placement applies when `config.default_placement` is left at
    /// its default, and an explicit conflicting policy is an error rather
    /// than silently overwritten. Allocation failures otherwise.
    pub fn start(
        platform: Platform,
        mut config: AtmemConfig,
        csr: &Csr,
        app: App,
        mode: Mode,
        cores: usize,
        rounds: usize,
    ) -> Result<Protocol> {
        if rounds == 0 {
            return Err(AtmemError::InvalidConfig {
                what: "rounds",
                reason: "must be positive",
            });
        }
        if mode != Mode::Atmem && rounds != 1 {
            return Err(AtmemError::InvalidConfig {
                what: "rounds",
                reason: "only the atmem mode runs optimize rounds; \
                         run one round under other modes",
            });
        }
        let prescribed = mode.placement_policy();
        if config.default_placement == PlacementPolicy::default() {
            config.default_placement = prescribed;
        } else if config.default_placement != prescribed {
            return Err(AtmemError::InvalidConfig {
                what: "default_placement",
                reason: "conflicts with the placement the mode prescribes; \
                         leave it at the default to run a mode experiment",
            });
        }
        if mode != Mode::Atmem && config.policy != OptimizePolicy::default() {
            return Err(AtmemError::InvalidConfig {
                what: "policy",
                reason: "only the atmem mode runs an optimize step; \
                         leave the policy at the default for other modes",
            });
        }
        if mode != Mode::Atmem && config.analyzer.kind != AnalyzerKind::default() {
            return Err(AtmemError::InvalidConfig {
                what: "analyzer.kind",
                reason: "only the atmem mode runs the analyzer; \
                         leave the kind at the default for other modes",
            });
        }
        let mut rt = Atmem::new(platform, config)?;
        let graph = HmsGraph::load(&mut rt, csr)?;
        let kernel = app.instantiate(&mut rt, graph)?;
        Ok(Protocol {
            rt,
            kernel,
            mode,
            cores,
            rounds_left: rounds,
            first_iter: None,
            optimize: None,
            round_ratios: Vec::new(),
        })
    }

    /// Runs one round: an iteration, profiled and followed by
    /// [`Atmem::optimize`] under [`Mode::Atmem`]. Returns the iteration's
    /// simulated time.
    ///
    /// # Errors
    ///
    /// Profiling and migration failures.
    pub fn round(&mut self) -> Result<SimDuration> {
        let atmem = self.mode == Mode::Atmem;
        let (stats, _) = step(&mut self.rt, self.kernel.as_mut(), self.cores, atmem)?;
        let time = SimDuration::from_ns(stats.time_ns);
        self.first_iter.get_or_insert(time);
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if atmem {
            let report = self.rt.optimize()?;
            self.round_ratios.push(report.data_ratio);
            self.optimize = Some(report);
        }
        Ok(time)
    }

    /// The optimize report of the last round (under [`Mode::Atmem`], until
    /// [`Protocol::finish`] moves it into its result).
    pub fn last_report(&self) -> Option<&OptimizeReport> {
        self.optimize.as_ref()
    }

    /// Runs the rounds not yet run, then the measured iteration, and
    /// collects the result with the kernel's checksum and the machine
    /// audit. Call it once; the session stays readable afterwards.
    ///
    /// # Errors
    ///
    /// Profiling and migration failures.
    pub fn finish(&mut self) -> Result<ProtocolResult> {
        while self.rounds_left > 0 {
            self.round()?;
        }
        let (second_iter_stats, _) = step(&mut self.rt, self.kernel.as_mut(), self.cores, false)?;
        Ok(ProtocolResult {
            first_iter: self.first_iter.unwrap_or_default(),
            second_iter: SimDuration::from_ns(second_iter_stats.time_ns),
            optimize: self.optimize.take(),
            round_ratios: std::mem::take(&mut self.round_ratios),
            second_iter_stats,
            data_ratio: self.rt.fast_data_ratio(),
            checksum: self.kernel.checksum(&mut self.rt),
            audit: self.rt.machine_mut().audit(),
        })
    }

    /// The session's runtime, for reports.
    pub fn runtime(&self) -> &Atmem {
        &self.rt
    }

    /// The kernel's output vector ([`Kernel::output`]).
    pub fn output(&mut self) -> Vec<f64> {
        self.kernel.output(&mut self.rt)
    }
}

/// One iteration, as every protocol driver runs it: reset the kernel,
/// start profiling if `profile`, run one iteration at `cores` simulated
/// cores, stop profiling. Returns the machine counters' delta over the
/// iteration (its `time_ns` is the iteration's simulated time) and the
/// profile (the default when not profiling).
pub(crate) fn step(
    rt: &mut Atmem,
    kernel: &mut dyn Kernel,
    cores: usize,
    profile: bool,
) -> Result<(MachineStats, ProfileSummary)> {
    kernel.reset(rt);
    if profile {
        rt.profiling_start()?;
    }
    let before = rt.machine().stats();
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    let stats = rt.machine().stats().delta(&before);
    let summary = if profile {
        rt.profiling_stop()?
    } else {
        ProfileSummary::default()
    };
    Ok((stats, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_graph::Dataset;

    fn small_graph(app: App) -> Csr {
        let g = Dataset::Twitter.build_small(7); // 2048 vertices, skewed
        if app.needs_weights() {
            g.with_random_weights(16.0, 1)
        } else {
            g
        }
    }

    #[test]
    fn atmem_beats_baseline_on_bfs() {
        let csr = small_graph(App::Bfs);
        let base = run_protocol(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::Bfs,
            Mode::Baseline,
        )
        .unwrap();
        let atm = run_protocol(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::Bfs,
            Mode::Atmem,
        )
        .unwrap();
        assert_eq!(
            base.checksum, atm.checksum,
            "placement must not change results"
        );
        assert!(
            atm.second_iter.as_ns() < base.second_iter.as_ns(),
            "atmem {} vs baseline {}",
            atm.second_iter,
            base.second_iter
        );
        assert!(atm.data_ratio > 0.0 && atm.data_ratio < 1.0);
        assert!(atm.optimize.is_some());
    }

    #[test]
    fn explicit_conflicting_placement_is_rejected_not_overwritten() {
        let csr = small_graph(App::Bfs);
        // An explicit policy that contradicts the mode errors out instead
        // of being silently replaced (the old behavior).
        let conflicting = AtmemConfig::default().with_placement(PlacementPolicy::AllFast);
        let err = run_protocol(
            Platform::testing(),
            conflicting.clone(),
            &csr,
            App::Bfs,
            Mode::Atmem,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AtmemError::InvalidConfig {
                what: "default_placement",
                ..
            }
        ));
        // The same explicit policy is fine when it agrees with the mode.
        let ideal = run_protocol(
            Platform::testing(),
            conflicting,
            &csr,
            App::Bfs,
            Mode::Ideal,
        )
        .unwrap();
        assert!((ideal.data_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_policy_under_non_optimizing_mode_is_rejected() {
        let csr = small_graph(App::Bfs);
        let config = AtmemConfig::default().with_policy(OptimizePolicy::Autonuma);
        let err = run_protocol(
            Platform::testing(),
            config.clone(),
            &csr,
            App::Bfs,
            Mode::Baseline,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AtmemError::InvalidConfig { what: "policy", .. }
        ));
        // The same policy is accepted (and exercised) under Mode::Atmem.
        let run = run_protocol(Platform::testing(), config, &csr, App::Bfs, Mode::Atmem).unwrap();
        assert!(run.optimize.is_some());
        assert!(run.audit.is_empty(), "audit: {:?}", run.audit);
    }

    #[test]
    fn explicit_analyzer_under_non_optimizing_mode_is_rejected() {
        let csr = small_graph(App::Bfs);
        let config = AtmemConfig::default().with_analyzer(AnalyzerKind::Learned);
        let err = run_protocol(
            Platform::testing(),
            config.clone(),
            &csr,
            App::Bfs,
            Mode::Baseline,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AtmemError::InvalidConfig {
                what: "analyzer.kind",
                ..
            }
        ));
        // Under Mode::Atmem the learned analyzer runs the full protocol.
        let run = run_protocol(Platform::testing(), config, &csr, App::Bfs, Mode::Atmem).unwrap();
        assert!(run.optimize.is_some());
        assert!(run.data_ratio > 0.0 && run.data_ratio < 1.0);
        assert!(run.audit.is_empty(), "audit: {:?}", run.audit);
    }

    #[test]
    fn multi_round_protocol_records_every_round() {
        let csr = small_graph(App::PageRank);
        let r = Protocol::start(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::PageRank,
            Mode::Atmem,
            1,
            3,
        )
        .and_then(|mut p| p.finish())
        .unwrap();
        assert_eq!(r.round_ratios.len(), 3);
        assert!(r.round_ratios.iter().all(|&x| x > 0.0));
        assert!(r.audit.is_empty(), "audit: {:?}", r.audit);
        // Single-round results report exactly one entry…
        let one = run_protocol(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::PageRank,
            Mode::Atmem,
        )
        .unwrap();
        assert_eq!(one.round_ratios.len(), 1);
        // …and invalid round counts are named errors.
        for (mode, rounds) in [(Mode::Atmem, 0usize), (Mode::Baseline, 2)] {
            let err = Protocol::start(
                Platform::testing(),
                AtmemConfig::default(),
                &csr,
                App::PageRank,
                mode,
                1,
                rounds,
            )
            .unwrap_err();
            assert!(matches!(
                err,
                AtmemError::InvalidConfig { what: "rounds", .. }
            ));
        }
    }

    #[test]
    fn ideal_is_fastest() {
        let csr = small_graph(App::PageRank);
        let ideal = run_protocol(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::PageRank,
            Mode::Ideal,
        )
        .unwrap();
        let base = run_protocol(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::PageRank,
            Mode::Baseline,
        )
        .unwrap();
        assert!(ideal.second_iter.as_ns() < base.second_iter.as_ns());
        assert!((ideal.data_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_apps_run_the_protocol() {
        for app in App::FIVE {
            let csr = small_graph(app);
            let r = run_protocol(
                Platform::testing(),
                AtmemConfig::default(),
                &csr,
                app,
                Mode::Atmem,
            )
            .unwrap();
            assert!(r.second_iter.as_ns() > 0.0, "{app} produced no work");
            assert!(r.audit.is_empty(), "{app} audit: {:?}", r.audit);
        }
    }
}
