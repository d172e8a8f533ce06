//! The ATMem analyzer: local selection, promotion tree, global promotion.
//!
//! [`analyze`] composes the two stages of paper §4.2–§4.3 over the whole
//! registry and produces, for every data object, the final per-chunk
//! criticality bitmap (sampled ∪ estimated) plus the numbers the reports
//! need.

mod features;
mod learned;
mod local;
mod promote;
pub mod train;
mod tree;

use crate::config::{AnalyzerConfig, AnalyzerKind};
use crate::object::ObjectId;
use crate::registry::Registry;

pub use features::FEATURE_NAMES;
pub use learned::LearnedModel;
pub use local::{local_selection, LocalSelection};
pub use promote::promote;
pub use tree::MaryTree;

use promote::{adaptive_thresholds, estimated_only, object_weight};

/// Analyzer outcome for one data object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectAnalysis {
    /// The object analysed.
    pub id: ObjectId,
    /// Stage-one local selection.
    pub selection: LocalSelection,
    /// Eq. 4 weight.
    pub weight: f64,
    /// Eq. 5 adapted tree-ratio threshold.
    pub tr_threshold: f64,
    /// Final criticality (sampled ∪ estimated) per chunk.
    pub critical: Vec<bool>,
    /// Chunks added by promotion alone.
    pub promoted_chunks: usize,
}

impl ObjectAnalysis {
    /// Number of critical chunks after promotion.
    pub fn critical_count(&self) -> usize {
        self.critical.iter().filter(|&&c| c).count()
    }
}

/// The full analyzer result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// One entry per live object, in registration order.
    pub objects: Vec<ObjectAnalysis>,
}

impl Analysis {
    /// Total sampled-critical chunks across objects.
    pub fn sampled_chunks(&self) -> usize {
        self.objects
            .iter()
            .map(|o| o.selection.critical_count())
            .sum()
    }

    /// Total chunks promoted by estimation across objects.
    pub fn promoted_chunks(&self) -> usize {
        self.objects.iter().map(|o| o.promoted_chunks).sum()
    }
}

/// Runs the configured analyzer over every live object in the registry:
/// the paper's two-stage pipeline, or the learned ranker when
/// `config.kind` is [`AnalyzerKind::Learned`]. Both produce the same
/// [`Analysis`] shape, so every consumer (the migration planner, the
/// demotion cascade, the serving scheduler, the reports) is
/// analyzer-agnostic.
pub fn analyze(registry: &Registry, config: &AnalyzerConfig) -> Analysis {
    match config.kind {
        AnalyzerKind::Paper => analyze_paper(registry, config),
        AnalyzerKind::Learned => learned::analyze_learned(registry, config),
    }
}

/// The paper's Eq. 1–5 pipeline (§4.2–§4.3): local selection, then
/// weight-adapted tree promotion.
pub(crate) fn analyze_paper(registry: &Registry, config: &AnalyzerConfig) -> Analysis {
    let mut selections: Vec<(ObjectId, LocalSelection)> = registry
        .iter()
        .map(|o| (o.id(), local_selection(o)))
        .collect();

    let weights: Vec<f64> = selections.iter().map(|(_, s)| object_weight(s)).collect();
    let thresholds = adaptive_thresholds(&weights, config);

    let objects = selections
        .drain(..)
        .zip(weights)
        .zip(thresholds)
        .map(|(((id, selection), weight), tr_threshold)| {
            let critical = if config.promotion_enabled && !selection.critical.is_empty() {
                let tree = MaryTree::build(&selection.critical, config.arity);
                promote(&tree, &selection.critical, tr_threshold)
            } else {
                selection.critical.clone()
            };
            let promoted_chunks = estimated_only(&selection.critical, &critical);
            ObjectAnalysis {
                id,
                selection,
                weight,
                tr_threshold,
                critical,
                promoted_chunks,
            }
        })
        .collect();
    Analysis { objects }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk_geometry;
    use crate::config::ChunkConfig;
    use atmem_hms::{VirtAddr, VirtRange};

    /// A registry with two objects; the first has a very hot clustered
    /// region, the second is lukewarm.
    fn registry() -> Registry {
        let mut r = Registry::new();
        let cfg = ChunkConfig {
            target_chunks: 32,
            min_chunk_bytes: 4096,
        };
        let bytes = 32 * 4096;
        let g = chunk_geometry(bytes, &cfg);
        let hot = r.register("hot", VirtRange::new(VirtAddr::new(0x100000), bytes), g);
        let warm = r.register("warm", VirtRange::new(VirtAddr::new(0x900000), bytes), g);
        // Hot object: chunks 4..8 heavily sampled, chunk 6 missed by
        // sampling (the gap promotion should patch).
        for chunk in [4usize, 5, 7] {
            for _ in 0..200 {
                let va = r.get(hot).unwrap().chunk_range(chunk).start;
                r.attribute(va).unwrap();
            }
        }
        // Warm object: a couple of moderate chunks.
        for chunk in [0usize, 16] {
            for _ in 0..20 {
                let va = r.get(warm).unwrap().chunk_range(chunk).start;
                r.attribute(va).unwrap();
            }
        }
        r
    }

    #[test]
    fn analyze_patches_sampling_gaps_in_heavy_objects() {
        let r = registry();
        let a = analyze(&r, &AnalyzerConfig::default());
        let hot = &a.objects[0];
        assert!(hot.selection.critical[4] && hot.selection.critical[5]);
        assert!(!hot.selection.critical[6], "chunk 6 was never sampled");
        assert!(
            hot.critical[6],
            "promotion should patch the unsampled gap at chunk 6 \
             (threshold {}, weight {})",
            hot.tr_threshold, hot.weight
        );
        assert!(hot.promoted_chunks >= 1);
    }

    #[test]
    fn heavy_object_gets_lower_threshold() {
        let r = registry();
        let a = analyze(&r, &AnalyzerConfig::default());
        assert!(a.objects[0].weight > a.objects[1].weight);
        assert!(a.objects[0].tr_threshold < a.objects[1].tr_threshold);
    }

    #[test]
    fn promotion_disabled_keeps_sampled_selection() {
        let r = registry();
        let config = AnalyzerConfig {
            promotion_enabled: false,
            ..AnalyzerConfig::default()
        };
        let a = analyze(&r, &config);
        for o in &a.objects {
            assert_eq!(o.critical, o.selection.critical);
            assert_eq!(o.promoted_chunks, 0);
        }
    }

    #[test]
    fn priorities_are_comparable_across_chunk_sizes() {
        // Two objects with the same miss *density* but different chunk
        // sizes must receive the same Eq. 1 priorities (the normalisation
        // the global stage depends on).
        let mut r = Registry::new();
        let small_chunks = chunk_geometry(
            16 * 4096,
            &ChunkConfig {
                target_chunks: 16,
                min_chunk_bytes: 4096,
            },
        );
        let big_chunks = chunk_geometry(
            16 * 4096,
            &ChunkConfig {
                target_chunks: 2,
                min_chunk_bytes: 4096,
            },
        );
        assert!(big_chunks.chunk_bytes > small_chunks.chunk_bytes);
        let a = r.register(
            "fine",
            VirtRange::new(VirtAddr::new(0x100000), 16 * 4096),
            small_chunks,
        );
        let b = r.register(
            "coarse",
            VirtRange::new(VirtAddr::new(0x900000), 16 * 4096),
            big_chunks,
        );
        // Same density: 4 samples per 4 KiB page, across both objects.
        for obj in [a, b] {
            let range = r.get(obj).unwrap().range();
            for page in 0..16u64 {
                for k in 0..4u64 {
                    r.attribute(range.start.add(page * 4096 + k * 64)).unwrap();
                }
            }
        }
        let analysis = analyze(&r, &AnalyzerConfig::default());
        let pa = analysis.objects[0].selection.priorities[0];
        let pb = analysis.objects[1].selection.priorities[0];
        assert!(
            (pa - pb).abs() < 1e-12,
            "same density must give same priority: {pa} vs {pb}"
        );
        // And therefore the same weight where both saturate.
        assert!((analysis.objects[0].weight - analysis.objects[1].weight).abs() < 1e-12);
    }

    #[test]
    fn empty_registry_analyzes_to_nothing() {
        let a = analyze(&Registry::new(), &AnalyzerConfig::default());
        assert!(a.objects.is_empty());
        assert_eq!(a.sampled_chunks(), 0);
        assert_eq!(a.promoted_chunks(), 0);
    }

    #[test]
    fn analyze_dispatches_on_the_configured_kind() {
        use crate::config::AnalyzerKind;
        let r = registry();
        let paper_cfg = AnalyzerConfig::default();
        let learned_cfg = AnalyzerConfig {
            kind: AnalyzerKind::Learned,
            ..AnalyzerConfig::default()
        };
        assert_eq!(analyze(&r, &paper_cfg), analyze_paper(&r, &paper_cfg));
        let learned = analyze(&r, &learned_cfg);
        assert_eq!(learned, learned::analyze_learned(&r, &learned_cfg));
        // Same output shape: one entry per object, chunk-aligned bitmaps.
        let paper = analyze(&r, &paper_cfg);
        assert_eq!(learned.objects.len(), paper.objects.len());
        for (l, p) in learned.objects.iter().zip(&paper.objects) {
            assert_eq!(l.id, p.id);
            assert_eq!(l.critical.len(), p.critical.len());
            assert_eq!(l.selection.priorities.len(), p.selection.priorities.len());
        }
        // And the learned ranker also finds the hot cluster.
        assert!(learned.objects[0].critical[4] && learned.objects[0].critical[5]);
    }
}
