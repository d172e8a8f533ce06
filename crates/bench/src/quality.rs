//! Reusable placement-quality harness: fast-data-ratio-at-budget
//! comparisons over an analyzer × kernel × dataset grid.
//!
//! The paper's objective is "maximum performance gain per byte"; with a
//! fixed fast-tier budget that is equivalent to comparing the achieved
//! second-iteration time (and, secondarily, how much of the budget the
//! selection actually fills). This module packages the budget platform and
//! the measurement loop that `tests/placement_quality.rs` pioneered so
//! `tests/analyzer_quality.rs` (and future ablations) can sweep analyzers,
//! kernels, datasets and budgets without re-deriving the setup.

use atmem::{AnalyzerKind, AtmemConfig};
use atmem_apps::{run_protocol, App, Mode};
use atmem_graph::Csr;
use atmem_hms::{CacheConfig, Platform};

/// A testing platform under capacity pressure: the fast tier holds
/// `fast_bytes`, the slow tier is effectively unbounded (32 MiB), and the
/// LLC is tiny relative to any hot set (as on the real testbeds) so the
/// miss profile keeps the workload's skew.
pub fn budget_platform(fast_bytes: usize) -> Platform {
    Platform::testing()
        .with_capacities(fast_bytes, 32 * 1024 * 1024)
        .with_llc(CacheConfig::new(4096, 4, 64))
}

/// One measured protocol run of the quality grid.
#[derive(Debug, Clone)]
pub struct QualityOutcome {
    /// The analyzer that ranked the chunks.
    pub analyzer: AnalyzerKind,
    /// Simulated second-iteration time in nanoseconds (the paper's
    /// reported number).
    pub second_iter_ns: f64,
    /// Fraction of registered data on the fast tier during iteration 2.
    pub data_ratio: f64,
    /// Bytes the optimizer migrated (0 means the analyzer selected
    /// nothing placeable).
    pub bytes_moved: usize,
    /// Kernel output checksum, for cross-analyzer correctness checks.
    pub checksum: f64,
    /// Machine invariant violations (must be empty on a healthy run).
    pub audit: Vec<String>,
}

/// Runs the two-iteration protocol for `app` on `csr` with the given
/// analyzer and config, on a budget platform.
///
/// # Panics
///
/// Panics when the protocol itself fails (allocation or migration error);
/// quality tests treat that as a hard failure, not a data point.
pub fn run_case(
    platform: &Platform,
    mut config: AtmemConfig,
    csr: &Csr,
    app: App,
    analyzer: AnalyzerKind,
) -> QualityOutcome {
    config.analyzer.kind = analyzer;
    let r = run_protocol(platform.clone(), config, csr, app, Mode::Atmem)
        .expect("quality protocol run failed");
    QualityOutcome {
        analyzer,
        second_iter_ns: r.second_iter.as_ns(),
        data_ratio: r.data_ratio,
        bytes_moved: r.optimize.as_ref().map_or(0, |o| o.migration.bytes_moved),
        checksum: r.checksum,
        audit: r.audit,
    }
}

/// The harness config both analyzers run under in comparisons: the
/// permissive end of the ε sweep (so the capacity budget, not the
/// promotion threshold, is the binding constraint — matching how the
/// paper finds its optimal region in Figures 9/10) and small migration
/// regions so the staging reserve cannot eat a tiny budget.
pub fn budget_config() -> AtmemConfig {
    let mut config = AtmemConfig::default().with_epsilon(0.1);
    config.migration.max_region_bytes = 16 * 1024;
    // The learned scorer's own selection cap is opened up the same way ε
    // is for the paper pipeline, so the machine budget does the capping.
    config.analyzer.learned_select_frac = 0.5;
    config
}

/// Runs the paper and learned analyzers head-to-head for `app` on `csr`
/// at a `fast_bytes` budget and returns `(paper, learned)` outcomes.
/// Checks the invariants every comparison owes: both runs are audit-clean
/// and compute the same checksum (placement must never change results).
pub fn compare_at_budget(
    csr: &Csr,
    app: App,
    fast_bytes: usize,
) -> (QualityOutcome, QualityOutcome) {
    let platform = budget_platform(fast_bytes);
    let paper = run_case(&platform, budget_config(), csr, app, AnalyzerKind::Paper);
    let learned = run_case(&platform, budget_config(), csr, app, AnalyzerKind::Learned);
    assert!(paper.audit.is_empty(), "paper audit: {:?}", paper.audit);
    assert!(
        learned.audit.is_empty(),
        "learned audit: {:?}",
        learned.audit
    );
    assert_eq!(
        paper.checksum, learned.checksum,
        "the analyzer choice must not change kernel results"
    );
    (paper, learned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_graph::Dataset;

    #[test]
    fn harness_produces_comparable_outcomes() {
        let csr = Dataset::Twitter.build_small(6);
        let (paper, learned) = compare_at_budget(&csr, App::PageRank, 64 * 1024);
        for o in [&paper, &learned] {
            assert!(o.bytes_moved > 0, "{:?} moved nothing", o.analyzer);
            assert!(o.second_iter_ns > 0.0);
            assert!(o.data_ratio > 0.0 && o.data_ratio < 1.0);
        }
        assert_eq!(paper.analyzer, AnalyzerKind::Paper);
        assert_eq!(learned.analyzer, AnalyzerKind::Learned);
    }
}
