//! Runtime configuration.
//!
//! The knobs something sweeps — chunk granularity, sampling period and
//! seed, tree arity `m`, the tree-ratio floor `ε`, the analyzer and
//! policy choices, the ablation switches, migration concurrency and
//! budget — are fields here, so the sensitivity experiments (Figures 9
//! and 10 sweep `ε`) are plain configuration sweeps. Every other
//! parameter (the Eq. 2 selection fractions, the Eq. 5 base threshold,
//! the sampling jitter, the learned scorer's confidence floor, the
//! AutoNUMA baseline's epochs and watermarks) is a named constant beside
//! the code that reads it.

use atmem_hms::Placement;

use crate::error::{AtmemError, Result};

/// Chunking policy (paper §4.1, "Adaptive Data Chunks").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkConfig {
    /// Target number of chunks per data object. The actual chunk size is
    /// the object size divided by this, rounded up to a power of two and
    /// clamped to `[min_chunk_bytes, object size]`. More chunks = finer
    /// placement but more metadata and profiling overhead.
    pub target_chunks: usize,
    /// Lower bound on chunk size. Migration is page-granular, so the
    /// default is one 4 KiB page.
    pub min_chunk_bytes: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        ChunkConfig {
            target_chunks: 1024,
            min_chunk_bytes: 4096,
        }
    }
}

/// Profiler configuration (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Fixed sampling period (one record per `period` LLC read misses), or
    /// `None` to let the runtime choose an empirical period from the total
    /// chunk count and thread count, as the paper's runtime does.
    pub period: Option<u64>,
    /// Seed of the jitter RNG. The paper repeats every experiment ten
    /// times and reports the average; sweeping this seed is how the
    /// harness reproduces that methodology on the deterministic simulator.
    pub rng_seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            period: None,
            rng_seed: 0xA7_3E3,
        }
    }
}

/// Which analyzer ranks chunks for placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzerKind {
    /// The paper's Eq. 1–5 pipeline: static local-selection thresholds
    /// plus the m-ary promotion tree.
    #[default]
    Paper,
    /// The learning-to-rank scorer of [`LearnedModel`](crate::LearnedModel):
    /// a linear model over bounded chunk features, trained offline by
    /// pairwise ranking.
    Learned,
}

/// Analyzer configuration (paper §4.2–§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// Which analyzer [`analyze`](crate::analyzer::analyze) dispatches to.
    pub kind: AnalyzerKind,
    /// Fraction of the registered bytes the learned scorer may mark
    /// critical (used only when `kind` is [`AnalyzerKind::Learned`]),
    /// targeting the paper's 5%–18% data-ratio band. Default 0.15.
    pub learned_select_frac: f64,
    /// Arity `m` of the promotion tree (paper Figure 3 shows a ternary
    /// tree; an octree gives `ε = 0.125` as a natural floor). Default 4.
    pub arity: usize,
    /// The floor `ε` of Eq. 5. Figures 9/10 sweep this value. Default
    /// `1/arity`, set at build time when left as `None`.
    pub epsilon: Option<f64>,
    /// Disables the tree-based global promotion entirely (ablation:
    /// sampled selection only).
    pub promotion_enabled: bool,
    /// Uses Eq. 5's base threshold `Θ(TR)` as a fixed threshold for every
    /// object instead of the globally adapted value (ablation: "naive
    /// design" of §4.3.2).
    pub adaptive_tr: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            kind: AnalyzerKind::Paper,
            learned_select_frac: 0.15,
            arity: 4,
            epsilon: None,
            promotion_enabled: true,
            adaptive_tr: true,
        }
    }
}

impl AnalyzerConfig {
    /// The effective `ε`: the configured value, or `1/arity`.
    pub fn effective_epsilon(&self) -> f64 {
        self.epsilon.unwrap_or(1.0 / self.arity as f64)
    }
}

/// Which engine executes a migration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMechanism {
    /// The paper's three-stage multi-threaded mechanism (§4.4, Figure 4).
    #[default]
    Staged,
    /// The `mbind` system service (the Table 4 baseline).
    Mbind,
}

/// Migration configuration (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Copier threads; `None` uses the platform's `migration_threads`.
    pub threads: Option<usize>,
    /// Fraction of the fast tier's free bytes the optimizer may fill.
    /// Figure 10 shows that filling MCDRAM to the brim hurts, so the
    /// default leaves headroom.
    pub budget_frac: f64,
    /// Upper bound on one migrated region (larger selections are split);
    /// also bounds the transient staging footprint.
    pub max_region_bytes: usize,
    /// Engine executing the plan.
    pub mechanism: MigrationMechanism,
    /// Enables demotion: before promoting a new selection, regions the
    /// latest analysis no longer classifies as critical are migrated back
    /// to the slow tier, freeing capacity for a shifted hot set. This is
    /// the phase-adaptivity extension the paper leaves as future work
    /// (§9); disabled by default to match the paper's one-shot protocol.
    pub allow_demotion: bool,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            threads: None,
            budget_frac: 0.90,
            max_region_bytes: 8 * 1024 * 1024,
            mechanism: MigrationMechanism::Staged,
            allow_demotion: false,
        }
    }
}

impl MigrationConfig {
    /// Validates the migration fields against the chunk size of the
    /// registry they will migrate.
    ///
    /// # Errors
    ///
    /// [`AtmemError::InvalidConfig`] naming the first offending field.
    pub(crate) fn validate(&self, min_chunk_bytes: usize) -> Result<()> {
        if !(0.0..=1.0).contains(&self.budget_frac) {
            return invalid("migration.budget_frac", "must be in [0, 1]");
        }
        if self.max_region_bytes < min_chunk_bytes {
            return invalid("migration.max_region_bytes", "must be at least one chunk");
        }
        Ok(())
    }
}

fn invalid(what: &'static str, reason: &'static str) -> Result<()> {
    Err(AtmemError::InvalidConfig { what, reason })
}

/// Which placement policy [`Atmem::optimize`](crate::Atmem::optimize)
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizePolicy {
    /// The paper's protocol: analyzer over attributed samples, planned
    /// regions, staged migration.
    #[default]
    Atmem,
    /// An AutoNUMA-style OS-tiering baseline: page-granular
    /// promote-on-second-touch from the raw sample stream plus
    /// watermark-driven demotion, executed through the `mbind` service.
    /// Models what Linux kernel tiering (NUMA balancing + reclaim-based
    /// demotion) would do with the same access information.
    Autonuma,
}

/// Complete ATMem runtime configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AtmemConfig {
    /// Placement for registered allocations before optimization. The
    /// paper's baseline places everything on the large-capacity memory.
    pub default_placement: PlacementPolicy,
    /// Which policy [`Atmem::optimize`](crate::Atmem::optimize) runs.
    pub policy: OptimizePolicy,
    /// Chunking policy.
    pub chunks: ChunkConfig,
    /// Profiler policy.
    pub sampling: SamplingConfig,
    /// Analyzer policy.
    pub analyzer: AnalyzerConfig,
    /// Migration policy.
    pub migration: MigrationConfig,
}

/// Initial placement policy for `atmem_malloc` allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Everything on the large-capacity tier (the paper's baseline).
    #[default]
    AllSlow,
    /// Everything on the fast tier (the paper's all-DRAM ideal reference).
    AllFast,
    /// Fast tier preferred, spill to slow (`numactl -p`, the paper's
    /// MCDRAM-p reference).
    PreferFast,
}

impl PlacementPolicy {
    /// The HMS placement this policy requests.
    pub fn placement(self) -> Placement {
        match self {
            PlacementPolicy::AllSlow => Placement::Slow,
            PlacementPolicy::AllFast => Placement::Fast,
            PlacementPolicy::PreferFast => Placement::Preferred(atmem_hms::TierId::FAST),
        }
    }
}

impl AtmemConfig {
    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// [`AtmemError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<()> {
        if self.chunks.target_chunks == 0 {
            return invalid("chunks.target_chunks", "must be positive");
        }
        if self.chunks.min_chunk_bytes == 0 || !self.chunks.min_chunk_bytes.is_power_of_two() {
            return invalid("chunks.min_chunk_bytes", "must be a positive power of two");
        }
        if let Some(p) = self.sampling.period {
            if p == 0 {
                return invalid("sampling.period", "must be positive");
            }
        }
        if self.analyzer.arity < 2 {
            return invalid("analyzer.arity", "must be at least 2");
        }
        if let Some(e) = self.analyzer.epsilon {
            if !(0.0..=1.0).contains(&e) {
                return invalid("analyzer.epsilon", "must be in [0, 1]");
            }
        }
        if !(0.0..=1.0).contains(&self.analyzer.learned_select_frac) {
            return invalid("analyzer.learned_select_frac", "must be in [0, 1]");
        }
        if self.policy == OptimizePolicy::Autonuma && self.analyzer.kind != AnalyzerKind::Paper {
            return invalid(
                "analyzer.kind",
                "the AutoNUMA baseline works from the raw sample stream and \
                 never consults the chunk analyzer",
            );
        }
        self.migration.validate(self.chunks.min_chunk_bytes)
    }

    /// Sets the initial placement policy.
    #[must_use]
    pub fn with_placement(mut self, p: PlacementPolicy) -> Self {
        self.default_placement = p;
        self
    }

    /// Sets the optimize policy (ATMem protocol or the AutoNUMA baseline).
    #[must_use]
    pub fn with_policy(mut self, policy: OptimizePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the analyzer (the paper pipeline or the learned ranker).
    #[must_use]
    pub fn with_analyzer(mut self, kind: AnalyzerKind) -> Self {
        self.analyzer.kind = kind;
        self
    }

    /// Sets the tree-ratio floor `ε` (the Figure 9/10 sweep knob).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.analyzer.epsilon = Some(epsilon);
        self
    }

    /// Sets the promotion-tree arity `m`.
    #[must_use]
    pub fn with_arity(mut self, arity: usize) -> Self {
        self.analyzer.arity = arity;
        self
    }

    /// Sets a fixed sampling period.
    #[must_use]
    pub fn with_sampling_period(mut self, period: u64) -> Self {
        self.sampling.period = Some(period);
        self
    }

    /// Sets the per-object target chunk count.
    #[must_use]
    pub fn with_target_chunks(mut self, target: usize) -> Self {
        self.chunks.target_chunks = target;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        AtmemConfig::default().validate().unwrap();
    }

    #[test]
    fn effective_epsilon_defaults_to_inverse_arity() {
        let a = AnalyzerConfig::default();
        assert!((a.effective_epsilon() - 0.25).abs() < 1e-12);
        let a = AnalyzerConfig {
            arity: 8,
            ..AnalyzerConfig::default()
        };
        assert!((a.effective_epsilon() - 0.125).abs() < 1e-12);
    }

    /// The `what` of the error `validate` returns.
    fn rejected_field(c: &AtmemConfig) -> &'static str {
        match c.validate() {
            Err(AtmemError::InvalidConfig { what, .. }) => what,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_fields_are_named() {
        type Edit = fn(&mut AtmemConfig);
        let cases: [(Edit, &str); 12] = [
            (|c| c.chunks.target_chunks = 0, "chunks.target_chunks"),
            (
                |c| c.chunks.min_chunk_bytes = 1000,
                "chunks.min_chunk_bytes",
            ),
            (|c| c.sampling.period = Some(0), "sampling.period"),
            (|c| c.analyzer.arity = 1, "analyzer.arity"),
            (|c| c.analyzer.epsilon = Some(1.5), "analyzer.epsilon"),
            (|c| c.analyzer.epsilon = Some(f64::NAN), "analyzer.epsilon"),
            (
                |c| c.analyzer.learned_select_frac = 1.5,
                "analyzer.learned_select_frac",
            ),
            (
                |c| {
                    c.policy = OptimizePolicy::Autonuma;
                    c.analyzer.kind = AnalyzerKind::Learned;
                },
                "analyzer.kind",
            ),
            (|c| c.migration.budget_frac = -1.0, "migration.budget_frac"),
            (|c| c.migration.budget_frac = 1.5, "migration.budget_frac"),
            (
                |c| c.migration.budget_frac = f64::NAN,
                "migration.budget_frac",
            ),
            (
                |c| c.migration.max_region_bytes = 2048,
                "migration.max_region_bytes",
            ),
        ];
        for (edit, what) in cases {
            let mut c = AtmemConfig::default();
            edit(&mut c);
            assert_eq!(rejected_field(&c), what);
        }
    }

    #[test]
    fn learned_analyzer_conflicts_with_autonuma() {
        let c = AtmemConfig::default()
            .with_policy(OptimizePolicy::Autonuma)
            .with_analyzer(AnalyzerKind::Learned);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("analyzer.kind"), "{err}");
        // Either alone is fine.
        AtmemConfig::default()
            .with_policy(OptimizePolicy::Autonuma)
            .validate()
            .unwrap();
        AtmemConfig::default()
            .with_analyzer(AnalyzerKind::Learned)
            .validate()
            .unwrap();
    }

    #[test]
    fn builders_chain() {
        let c = AtmemConfig::default()
            .with_placement(PlacementPolicy::PreferFast)
            .with_epsilon(0.3)
            .with_arity(8)
            .with_sampling_period(128)
            .with_target_chunks(256);
        c.validate().unwrap();
        assert_eq!(c.analyzer.arity, 8);
        assert_eq!(c.sampling.period, Some(128));
        assert_eq!(c.chunks.target_chunks, 256);
        assert_eq!(
            c.default_placement.placement(),
            Placement::Preferred(atmem_hms::TierId::FAST)
        );
    }
}
