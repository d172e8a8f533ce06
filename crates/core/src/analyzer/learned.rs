//! The learned (learning-to-rank) placement analyzer.
//!
//! A drop-in alternative to the paper's Eq. 1–5 pipeline, after Moura et
//! al., "Learning to Rank Graph-based Application Objects on Heterogeneous
//! Memories": instead of hand-tuned thresholds, every chunk is scored by a
//! small linear model over the bounded features of
//! [`features`](crate::analyzer::features), and the hottest-scoring chunks
//! are admitted up to a byte budget. The output is the same [`Analysis`]
//! shape the planner, the demotion cascade, the serving scheduler and the
//! reports already consume:
//!
//! * `selection.priorities` carry the model's per-chunk confidence
//!   (`sigmoid(score)`, always finite, in `(0, 1)`), so the planner's
//!   hotter-first ordering and the cascade's coldest-first ordering work
//!   unchanged;
//! * `selection.theta` / `tr_threshold` record the admission cutoff;
//! * `critical` is the admitted bitmap; `promoted_chunks` counts admitted
//!   chunks the profiler never sampled — the learned analogue of the
//!   m-ary tree patching sampling gaps (here the neighbourhood features
//!   carry that signal).
//!
//! The model ships with pretrained weights (see
//! [`train`](crate::analyzer::train) for the offline pairwise-ranking
//! trainer and `learned_train` in the bench crate for the recording
//! pipeline) so the learned analyzer works out of the box.

use crate::analyzer::features::{feature_context, object_features, NUM_FEATURES};
use crate::analyzer::local::LocalSelection;
use crate::analyzer::promote::object_weight;
use crate::analyzer::{Analysis, ObjectAnalysis};
use crate::config::AnalyzerConfig;
use crate::registry::Registry;

/// A linear chunk scorer: `score = w · features + bias`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedModel {
    /// One weight per feature, index-aligned with
    /// [`FEATURE_NAMES`](crate::analyzer::features::FEATURE_NAMES).
    pub weights: [f64; NUM_FEATURES],
    /// Additive bias.
    pub bias: f64,
}

/// Weights produced by the offline trainer (`learned_train --train`) on
/// the committed kernel-suite trace (`traces/analyzer_mini.trace`):
/// dual-period recordings of PageRank, SpMV and BFS plus synthetic
/// phase-shift and sample-loss scenarios. Regenerate with
/// `cargo run -p atmem-bench --bin learned_train -- --record --train`.
const PRETRAINED: LearnedModel = LearnedModel {
    weights: [
        5.3397,  // density_global
        -0.6056, // rank_local
        -3.7130, // mass_frac
        3.0948,  // neighbor_mean
        2.1534,  // run_occupancy
        0.0,     // object_share
        0.0,     // size_log
        0.0,     // stride_regular
        -0.1509, // phase_delta
    ],
    bias: -0.0238,
};

/// Minimum model confidence (`sigmoid(score)`) for a chunk to be a
/// selection candidate at all.
const MIN_CONFIDENCE: f64 = 0.5;

impl LearnedModel {
    /// The shipped pretrained model.
    pub fn pretrained() -> Self {
        PRETRAINED
    }

    /// Scores one feature vector.
    pub fn score(&self, features: &[f64; NUM_FEATURES]) -> f64 {
        self.weights
            .iter()
            .zip(features)
            .map(|(w, f)| w * f)
            .sum::<f64>()
            + self.bias
    }

    /// The model's confidence that a chunk is placement-critical:
    /// `sigmoid(score)`, in `(0, 1)`.
    pub fn confidence(&self, features: &[f64; NUM_FEATURES]) -> f64 {
        sigmoid(self.score(features))
    }
}

/// The logistic function.
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Runs the learned analyzer over every live object. Same interface and
/// output shape as [`analyze`](crate::analyzer::analyze) with the paper
/// pipeline; see the module docs for how the fields are populated.
pub(crate) fn analyze_learned(registry: &Registry, config: &AnalyzerConfig) -> Analysis {
    let ctx = feature_context(registry);

    // Score every chunk. A chunk is *eligible* only when its ±2-chunk
    // neighbourhood saw at least one sample (feature 4): the model may
    // patch sampling gaps inside hot runs, but must not promote bytes on
    // pure prior (size/stride) evidence in a dead region.
    struct Scored {
        object: usize, // index into `per_object`
        chunk: usize,
        confidence: f64,
        bytes: usize,
    }
    let mut per_object: Vec<(crate::object::ObjectId, usize, Vec<f64>, Vec<bool>)> = Vec::new();
    let mut candidates: Vec<Scored> = Vec::new();
    for obj in registry.iter() {
        let features = object_features(obj, &ctx);
        let confidences: Vec<f64> = features.iter().map(|f| PRETRAINED.confidence(f)).collect();
        let sampled: Vec<bool> = obj.samples().iter().map(|&s| s > 0).collect();
        if ctx.total_samples > 0 {
            for (chunk, f) in features.iter().enumerate() {
                if f[4] > 0.0 && confidences[chunk] >= MIN_CONFIDENCE {
                    candidates.push(Scored {
                        object: per_object.len(),
                        chunk,
                        confidence: confidences[chunk],
                        bytes: obj.chunk_bytes(chunk),
                    });
                }
            }
        }
        per_object.push((obj.id(), obj.num_chunks(), confidences, sampled));
    }

    // Admit hottest-confidence first under the byte budget. The order is
    // fully deterministic: confidence descending, then registration order.
    candidates.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("confidences are finite")
            .then(a.object.cmp(&b.object))
            .then(a.chunk.cmp(&b.chunk))
    });
    let budget = (registry.total_bytes() as f64 * config.learned_select_frac) as usize;
    let mut admitted: Vec<Vec<usize>> = vec![Vec::new(); per_object.len()];
    let mut taken = 0usize;
    let mut cutoff = f64::INFINITY;
    for c in &candidates {
        if taken >= budget {
            break;
        }
        taken += c.bytes;
        cutoff = c.confidence;
        admitted[c.object].push(c.chunk);
    }

    let objects = per_object
        .into_iter()
        .zip(admitted)
        .map(|((id, chunks, confidences, sampled), admitted)| {
            let mut critical = vec![false; chunks];
            for chunk in admitted {
                critical[chunk] = true;
            }
            let promoted_chunks = critical
                .iter()
                .zip(&sampled)
                .filter(|&(&c, &s)| c && !s)
                .count();
            let selection = LocalSelection {
                priorities: confidences,
                theta: cutoff,
                critical: critical.clone(),
            };
            let weight = object_weight(&selection);
            ObjectAnalysis {
                id,
                selection,
                weight,
                tr_threshold: cutoff,
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

    fn registry_with(counts: &[&[u64]]) -> Registry {
        let mut r = Registry::new();
        for (k, obj_counts) in counts.iter().enumerate() {
            let bytes = obj_counts.len() * 4096;
            let g = chunk_geometry(
                bytes,
                &ChunkConfig {
                    target_chunks: obj_counts.len(),
                    min_chunk_bytes: 4096,
                },
            );
            let id = r.register(
                format!("o{k}"),
                VirtRange::new(VirtAddr::new(0x10_0000 + ((k as u64) << 28)), bytes),
                g,
            );
            for (i, &c) in obj_counts.iter().enumerate() {
                let va = r.get(id).unwrap().chunk_range(i).start;
                for _ in 0..c {
                    r.attribute(va).unwrap();
                }
            }
        }
        r
    }

    fn config() -> AnalyzerConfig {
        AnalyzerConfig::default()
    }

    #[test]
    fn hot_cluster_is_selected_and_gap_patched() {
        let mut counts = vec![0u64; 32];
        for c in [4usize, 5, 7] {
            counts[c] = 200; // chunk 6 is a sampling gap inside the run
        }
        let r = registry_with(&[&counts]);
        let a = analyze_learned(&r, &config());
        let o = &a.objects[0];
        assert!(o.critical[4] && o.critical[5] && o.critical[7]);
        assert!(o.critical[6], "gap inside the hot run must be patched");
        assert!(o.promoted_chunks >= 1);
        assert!(!o.critical[20], "cold tail stays out");
        assert!(o.selection.priorities.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn selection_respects_the_byte_budget() {
        let counts = vec![100u64; 64]; // everything equally hot
        let r = registry_with(&[&counts]);
        let cfg = config();
        let a = analyze_learned(&r, &cfg);
        let picked = a.objects[0].critical_count();
        let frac = picked as f64 / 64.0;
        assert!(
            frac <= cfg.learned_select_frac + 0.05,
            "selected {frac} of a uniform object"
        );
        assert!(picked > 0, "a hot object must select something");
    }

    #[test]
    fn unsampled_registry_selects_nothing() {
        let r = registry_with(&[&[0u64; 16]]);
        let a = analyze_learned(&r, &config());
        assert_eq!(a.sampled_chunks() + a.promoted_chunks(), 0);
        assert!(a.objects[0].critical.iter().all(|&c| !c));
        assert!(a.objects[0].selection.theta.is_infinite());
    }

    #[test]
    fn empty_registry_analyzes_to_nothing() {
        let a = analyze_learned(&Registry::new(), &config());
        assert!(a.objects.is_empty());
    }

    #[test]
    fn dead_region_is_never_promoted_on_prior_alone() {
        // One hot object, one completely cold object: however the model
        // weighs size/stride priors, the cold object must stay out.
        let r = registry_with(&[&[300u64, 300, 0, 0, 0, 0, 0, 0], &[0u64; 8]]);
        let a = analyze_learned(&r, &config());
        assert!(a.objects[0].critical_count() > 0);
        assert_eq!(a.objects[1].critical_count(), 0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let r1 = registry_with(&[&[5, 80, 0, 3, 0, 0, 90, 1], &[7u64; 8]]);
        let r2 = registry_with(&[&[5, 80, 0, 3, 0, 0, 90, 1], &[7u64; 8]]);
        assert_eq!(
            analyze_learned(&r1, &config()),
            analyze_learned(&r2, &config())
        );
    }

    #[test]
    fn pretrained_model_is_finite() {
        assert!(PRETRAINED.weights.iter().all(|w| w.is_finite()));
        assert!(PRETRAINED.bias.is_finite());
    }
}
