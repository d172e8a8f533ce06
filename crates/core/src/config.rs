//! Runtime configuration.
//!
//! Every knob the paper describes — chunk granularity, sampling rate,
//! local-selection percentile, tree arity `m`, the tree-ratio floor `ε`,
//! migration concurrency — is an explicit field here, so the sensitivity
//! experiments (Figures 9 and 10 sweep `ε`; our ablations sweep the rest)
//! are plain configuration sweeps.

use atmem_hms::Placement;

use crate::analyzer::LearnedModel;
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
    /// Random jitter added to each sampling interval, as a fraction of the
    /// period, to avoid aliasing with strided accesses.
    pub jitter_frac: f64,
    /// Seed of the jitter RNG. The paper repeats every experiment ten
    /// times and reports the average; sweeping this seed is how the
    /// harness reproduces that methodology on the deterministic simulator.
    pub rng_seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            period: None,
            jitter_frac: 0.25,
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

/// Knobs of the [`AnalyzerKind::Learned`] scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedConfig {
    /// The scoring model. Defaults to the shipped pretrained weights.
    pub model: LearnedModel,
    /// Fraction of the registered bytes the scorer may mark critical —
    /// the learned analogue of `max_select_frac` + promotion, targeting
    /// the paper's 5%–18% data-ratio band. Default 0.15.
    pub select_frac: f64,
    /// Minimum model confidence (`sigmoid(score)`) for a chunk to be a
    /// selection candidate at all. Default 0.5.
    pub min_confidence: f64,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            model: LearnedModel::pretrained(),
            select_frac: 0.15,
            min_confidence: 0.5,
        }
    }
}

/// Analyzer configuration (paper §4.2–§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// Which analyzer [`analyze`](crate::analyzer::analyze) dispatches to.
    /// The remaining fields configure the paper pipeline; `learned`
    /// configures the learning-to-rank alternative.
    pub kind: AnalyzerKind,
    /// Knobs of the learned scorer (used only when `kind` is
    /// [`AnalyzerKind::Learned`]).
    pub learned: LearnedConfig,
    /// Top-N fraction for the percentile candidate of Eq. 2 (`P_n`): the
    /// local selection picks at least the top `top_n_frac` of chunks by
    /// priority. Default 0.08.
    pub top_n_frac: f64,
    /// The derivative-based candidate of Eq. 2: walking the descending
    /// priority curve, selection stops at the first chunk whose priority
    /// falls below `derivative_alpha` times the running average of the
    /// chunks selected so far (the boundary of the hot cluster). Default
    /// 0.1.
    pub derivative_alpha: f64,
    /// The mass-coverage candidate of the derivative search: selection
    /// stops once the chosen chunks cover this fraction of the object's
    /// total priority mass — the direct expression of the paper's
    /// "maximum performance gain per byte" objective (§1). Default 0.70.
    pub mass_coverage: f64,
    /// Upper bound on the fraction of an object's chunks the local stage
    /// may select when no knee is found (flat distributions extend past the
    /// `top_n_frac` percentile up to this cap; boundary ties may exceed
    /// it). Default 0.12 — together with promotion this lands the overall
    /// data ratio in the paper's 5%-18% band (Figures 7/8).
    pub max_select_frac: f64,
    /// Minimum samples a chunk must receive for its priority to be
    /// considered real (the `min PR / Freq_sample` floor of Eq. 2).
    pub min_samples: u64,
    /// Arity `m` of the promotion tree (paper Figure 3 shows a ternary
    /// tree; an octree gives `ε = 0.125` as a natural floor). Default 4.
    pub arity: usize,
    /// The floor `ε` of Eq. 5. Figures 9/10 sweep this value. Default
    /// `1/arity`, set at build time when left as `None`.
    pub epsilon: Option<f64>,
    /// The base tree-ratio threshold `Θ(TR)` of Eq. 5 that the global
    /// adaption scales per object. Default 0.5.
    pub base_tr: f64,
    /// Disables the tree-based global promotion entirely (ablation:
    /// sampled selection only).
    pub promotion_enabled: bool,
    /// Uses `base_tr` as a fixed threshold for every object instead of the
    /// globally adapted Eq. 5 value (ablation: "naive design" of §4.3.2).
    pub adaptive_tr: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            kind: AnalyzerKind::Paper,
            learned: LearnedConfig::default(),
            top_n_frac: 0.08,
            derivative_alpha: 0.1,
            mass_coverage: 0.70,
            max_select_frac: 0.12,
            min_samples: 2,
            arity: 4,
            epsilon: None,
            base_tr: 0.5,
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

/// Knobs of the [`OptimizePolicy::Autonuma`] baseline. The defaults mirror
/// the kernel's shape: short scan epochs, promotion on the second touch,
/// demotion when a tier crosses its high watermark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutonumaConfig {
    /// Number of scan epochs the raw sample stream is split into (the
    /// analogue of NUMA-balancing scan periods). The stream has no
    /// timestamps, so epochs are equal slices by stream position.
    pub epochs: usize,
    /// Consecutive epochs a page must be touched in before it is promoted
    /// one tier hotter (2 = the kernel's promote-on-second-touch).
    pub promote_touches: u32,
    /// Occupancy fraction above which a tier demotes cold pages to the
    /// next-colder tier (the kernel's high watermark).
    pub high_watermark: f64,
    /// Occupancy fraction demotion drains a tier down to (the low
    /// watermark; hysteresis keeps consecutive optimize calls from
    /// thrashing around the high mark).
    pub low_watermark: f64,
    /// Upper bound on bytes promoted per optimize call (the kernel's
    /// promotion rate limit).
    pub promote_cap_bytes: usize,
}

impl Default for AutonumaConfig {
    fn default() -> Self {
        AutonumaConfig {
            epochs: 4,
            promote_touches: 2,
            high_watermark: 0.95,
            low_watermark: 0.85,
            promote_cap_bytes: 64 * 1024 * 1024,
        }
    }
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
    /// Knobs of the AutoNUMA baseline (used only when `policy` is
    /// [`OptimizePolicy::Autonuma`]).
    pub autonuma: AutonumaConfig,
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
        fn bad(what: &'static str, reason: &'static str) -> Result<()> {
            Err(AtmemError::InvalidConfig { what, reason })
        }
        if self.chunks.target_chunks == 0 {
            return bad("chunks.target_chunks", "must be positive");
        }
        if self.chunks.min_chunk_bytes == 0 || !self.chunks.min_chunk_bytes.is_power_of_two() {
            return bad("chunks.min_chunk_bytes", "must be a positive power of two");
        }
        if let Some(p) = self.sampling.period {
            if p == 0 {
                return bad("sampling.period", "must be positive");
            }
        }
        if !(0.0..1.0).contains(&self.sampling.jitter_frac) {
            return bad("sampling.jitter_frac", "must be in [0, 1)");
        }
        if !(0.0..=1.0).contains(&self.analyzer.top_n_frac) {
            return bad("analyzer.top_n_frac", "must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.analyzer.max_select_frac) {
            return bad("analyzer.max_select_frac", "must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.analyzer.mass_coverage) {
            return bad("analyzer.mass_coverage", "must be in [0, 1]");
        }
        if self.analyzer.arity < 2 {
            return bad("analyzer.arity", "must be at least 2");
        }
        if let Some(e) = self.analyzer.epsilon {
            if !(0.0..=1.0).contains(&e) {
                return bad("analyzer.epsilon", "must be in [0, 1]");
            }
        }
        if !(0.0..=1.0).contains(&self.analyzer.base_tr) {
            return bad("analyzer.base_tr", "must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.analyzer.learned.select_frac) {
            return bad("analyzer.learned.select_frac", "must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.analyzer.learned.min_confidence) {
            return bad("analyzer.learned.min_confidence", "must be in [0, 1]");
        }
        if !self.analyzer.learned.model.is_finite() {
            return bad("analyzer.learned.model", "weights must be finite");
        }
        if self.policy == OptimizePolicy::Autonuma && self.analyzer.kind != AnalyzerKind::Paper {
            return bad(
                "analyzer.kind",
                "the AutoNUMA baseline works from the raw sample stream and \
                 never consults the chunk analyzer",
            );
        }
        if !(0.0..=1.0).contains(&self.migration.budget_frac) {
            return bad("migration.budget_frac", "must be in [0, 1]");
        }
        if self.migration.max_region_bytes < self.chunks.min_chunk_bytes {
            return bad("migration.max_region_bytes", "must be at least one chunk");
        }
        if self.autonuma.epochs == 0 {
            return bad("autonuma.epochs", "must be positive");
        }
        if self.autonuma.promote_touches == 0 {
            return bad("autonuma.promote_touches", "must be positive");
        }
        if !(0.0..=1.0).contains(&self.autonuma.high_watermark) {
            return bad("autonuma.high_watermark", "must be in [0, 1]");
        }
        if !(0.0..=self.autonuma.high_watermark).contains(&self.autonuma.low_watermark) {
            return bad("autonuma.low_watermark", "must be in [0, high_watermark]");
        }
        Ok(())
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

    /// A preset that trades fast-tier capacity for performance: permissive
    /// promotion (low ε), generous selection caps, denser sampling, and
    /// phase-adaptive demotion on. Use when the fast tier is plentiful or
    /// the application alternates hot sets.
    pub fn aggressive() -> Self {
        let mut config = AtmemConfig::default();
        config.analyzer.epsilon = Some(0.1);
        config.analyzer.max_select_frac = 0.30;
        config.analyzer.mass_coverage = 0.90;
        config.sampling.period = Some(16);
        config.migration.allow_demotion = true;
        config
    }

    /// A preset that minimises fast-tier pressure and profiling cost:
    /// strict promotion, tight selection, sparse sampling. Use on shared
    /// machines where the fast tier is contended (the server scenario the
    /// paper motivates in §1).
    pub fn conservative() -> Self {
        let mut config = AtmemConfig::default();
        config.analyzer.epsilon = Some(0.6);
        config.analyzer.max_select_frac = 0.08;
        config.analyzer.mass_coverage = 0.55;
        config.sampling.period = Some(256);
        config.migration.budget_frac = 0.5;
        config
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

    #[test]
    fn invalid_fields_are_named() {
        let mut c = AtmemConfig::default();
        c.analyzer.arity = 1;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("arity"));

        let mut c = AtmemConfig::default();
        c.chunks.min_chunk_bytes = 1000; // not a power of two
        assert!(c.validate().is_err());

        let c = AtmemConfig::default().with_epsilon(1.5);
        assert!(c.validate().is_err());

        let mut c = AtmemConfig::default();
        c.analyzer.learned.select_frac = 1.5;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("select_frac"));

        let mut c = AtmemConfig::default();
        c.analyzer.learned.model.bias = f64::NAN;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("finite"));
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
    fn presets_are_valid_and_ordered() {
        let a = AtmemConfig::aggressive();
        let c = AtmemConfig::conservative();
        a.validate().unwrap();
        c.validate().unwrap();
        assert!(a.analyzer.effective_epsilon() < c.analyzer.effective_epsilon());
        assert!(a.analyzer.max_select_frac > c.analyzer.max_select_frac);
        assert!(a.sampling.period.unwrap() < c.sampling.period.unwrap());
        assert!(a.migration.allow_demotion && !c.migration.allow_demotion);
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
