//! Chunk feature extraction for the learned (learning-to-rank) analyzer.
//!
//! Every chunk of every data object is described by a small fixed vector
//! of bounded features computed from the same attributed PEBS profile the
//! paper's Eq. 1–5 analyzer consumes — plus the previous profiling round
//! the registry now stashes (see [`DataObject::prev_samples`]), which
//! feeds the kernel-phase-delta feature. The features are deliberately
//! *relative* (ranks, normalised densities, neighbourhood occupancy)
//! rather than absolute counts: a ranking over relative features is
//! invariant to uniform sampling loss, which is exactly where the static
//! thresholds (the `MIN_SAMPLES` floor, the derivative knee) lose signal.

use crate::object::DataObject;
use crate::registry::Registry;

/// Number of features per chunk.
pub(crate) const NUM_FEATURES: usize = 9;

/// Human-readable feature names, index-aligned with the vectors produced
/// by `object_features` (and with [`LearnedModel::weights`]).
///
/// [`LearnedModel::weights`]: crate::analyzer::learned::LearnedModel
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "density_global", // miss density / hottest chunk density in the registry
    "rank_local",     // 1 - (chunks hotter within the object) / chunks
    "mass_frac",      // chunk samples / object samples
    "neighbor_mean",  // mean density of adjacent chunks / global max
    "run_occupancy",  // sampled fraction of the ±2 chunk neighbourhood
    "object_share",   // object samples / registry samples
    "size_log",       // log2(object bytes) / 40
    "stride_regular", // 1 / (1 + cv of the object's density profile)
    "phase_delta",    // normalised density now − previous round
];

/// Registry-wide normalisers shared by every object's feature vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FeatureContext {
    /// The hottest chunk density (samples per byte) across all objects.
    pub max_density: f64,
    /// Total samples attributed across all objects this round.
    pub total_samples: u64,
}

/// Computes the global normalisers over all live objects.
pub(crate) fn feature_context(registry: &Registry) -> FeatureContext {
    let mut max_density = 0.0f64;
    let mut total_samples = 0u64;
    for obj in registry.iter() {
        total_samples += obj.total_samples();
        for i in 0..obj.num_chunks() {
            max_density = max_density.max(density(obj, i));
        }
    }
    FeatureContext {
        max_density,
        total_samples,
    }
}

/// Miss density (samples per byte) of chunk `i`.
fn density(obj: &DataObject, i: usize) -> f64 {
    obj.samples()[i] as f64 / obj.chunk_bytes(i) as f64
}

/// Previous-round miss density of chunk `i`.
fn prev_density(obj: &DataObject, i: usize) -> f64 {
    obj.prev_samples()[i] as f64 / obj.chunk_bytes(i) as f64
}

/// Extracts one feature vector per chunk of `object`. Every component is
/// finite and bounded: the first eight lie in `[0, 1]`, the phase delta in
/// `[-1, 1]`.
pub(crate) fn object_features(
    object: &DataObject,
    ctx: &FeatureContext,
) -> Vec<[f64; NUM_FEATURES]> {
    let n = object.num_chunks();
    let densities: Vec<f64> = (0..n).map(|i| density(object, i)).collect();
    let obj_max = densities.iter().cloned().fold(0.0, f64::max);
    let prev: Vec<f64> = (0..n).map(|i| prev_density(object, i)).collect();
    let prev_max = prev.iter().cloned().fold(0.0, f64::max);
    let obj_samples = object.total_samples();

    let norm = |d: f64, max: f64| if max > 0.0 { d / max } else { 0.0 };

    // Within-object rank: 1 for the hottest chunk, approaching 0 for the
    // coldest; ties share the rank of their hottest member so equal
    // densities always get equal features.
    let mut by_density: Vec<usize> = (0..n).collect();
    by_density.sort_by(|&a, &b| densities[b].partial_cmp(&densities[a]).expect("finite"));
    let mut rank = vec![0.0; n];
    let mut hotter = 0usize;
    for (pos, &i) in by_density.iter().enumerate() {
        if pos > 0 && densities[i] < densities[by_density[pos - 1]] {
            hotter = pos;
        }
        rank[i] = 1.0 - hotter as f64 / n as f64;
    }

    // Per-object stride regularity: a strided or sweeping kernel spreads
    // misses evenly over the object (low coefficient of variation); a
    // pointer-chasing or skewed kernel concentrates them (high cv).
    let mean = densities.iter().sum::<f64>() / n as f64;
    let stride_regular = if mean > 0.0 {
        let var = densities
            .iter()
            .map(|d| (d - mean) * (d - mean))
            .sum::<f64>()
            / n as f64;
        1.0 / (1.0 + var.sqrt() / mean)
    } else {
        0.0
    };

    let size_log = ((object.size().max(1) as f64).log2() / 40.0).min(1.0);
    let object_share = if ctx.total_samples > 0 {
        obj_samples as f64 / ctx.total_samples as f64
    } else {
        0.0
    };

    (0..n)
        .map(|i| {
            let neighbors: Vec<usize> = [i.checked_sub(1), (i + 1 < n).then_some(i + 1)]
                .into_iter()
                .flatten()
                .collect();
            let neighbor_mean = if neighbors.is_empty() {
                0.0
            } else {
                neighbors.iter().map(|&j| densities[j]).sum::<f64>() / neighbors.len() as f64
            };
            let lo = i.saturating_sub(2);
            let hi = (i + 2).min(n - 1);
            let occupied = (lo..=hi).filter(|&j| object.samples()[j] > 0).count();
            let run_occupancy = occupied as f64 / (hi - lo + 1) as f64;
            let mass_frac = if obj_samples > 0 {
                object.samples()[i] as f64 / obj_samples as f64
            } else {
                0.0
            };
            [
                norm(densities[i], ctx.max_density),
                rank[i],
                mass_frac,
                norm(neighbor_mean, ctx.max_density),
                run_occupancy,
                object_share,
                size_log,
                stride_regular,
                norm(densities[i], obj_max) - norm(prev[i], prev_max),
            ]
        })
        .collect()
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

    #[test]
    fn features_are_bounded_and_finite() {
        let r = registry_with(&[&[0, 5, 100, 0, 3, 0, 0, 7], &[1, 1, 1, 1]]);
        let ctx = feature_context(&r);
        for obj in r.iter() {
            for f in object_features(obj, &ctx) {
                for (k, v) in f.iter().enumerate() {
                    assert!(v.is_finite(), "feature {k} not finite");
                    let lo = if k == NUM_FEATURES - 1 { -1.0 } else { 0.0 };
                    assert!(
                        (lo..=1.0).contains(v),
                        "feature {} = {v} out of range",
                        FEATURE_NAMES[k]
                    );
                }
            }
        }
    }

    #[test]
    fn hottest_chunk_dominates_density_and_rank() {
        let r = registry_with(&[&[0, 5, 100, 0, 3, 0, 0, 7]]);
        let ctx = feature_context(&r);
        let f = object_features(r.iter().next().unwrap(), &ctx);
        assert!((f[2][0] - 1.0).abs() < 1e-12, "global density of the max");
        assert!((f[2][1] - 1.0).abs() < 1e-12, "rank of the hottest");
        assert!(f[2][2] > f[1][2], "mass fraction orders with samples");
    }

    #[test]
    fn gap_chunks_inherit_neighbourhood_signal() {
        // Chunk 2 was never sampled but sits inside a hot run; its
        // neighbour-mean and run-occupancy features must carry the signal a
        // pure density threshold would miss.
        let r = registry_with(&[&[0, 80, 0, 90, 70, 0, 0, 0, 0, 0, 0, 0]]);
        let ctx = feature_context(&r);
        let f = object_features(r.iter().next().unwrap(), &ctx);
        assert_eq!(f[2][0], 0.0, "no direct density signal");
        assert!(f[2][3] > 0.5, "neighbours are hot: {}", f[2][3]);
        assert!(f[2][4] > 0.5, "run occupancy sees the cluster");
        assert!(
            f[2][3] > f[9][3] && f[2][4] > f[9][4],
            "gap inside the run outranks the cold tail"
        );
    }

    #[test]
    fn phase_delta_tracks_the_shift() {
        let mut r = registry_with(&[&[50, 0, 0, 0]]);
        r.reset_samples(); // round 1 (hot chunk 0) becomes history
        let id = r.iter().next().unwrap().id();
        let va = r.get(id).unwrap().chunk_range(3).start;
        for _ in 0..50 {
            r.attribute(va).unwrap(); // round 2: heat moved to chunk 3
        }
        let ctx = feature_context(&r);
        let f = object_features(r.get(id).unwrap(), &ctx);
        assert!((f[3][8] - 1.0).abs() < 1e-12, "rising chunk: {}", f[3][8]);
        assert!((f[0][8] + 1.0).abs() < 1e-12, "fading chunk: {}", f[0][8]);
        assert_eq!(f[1][8], 0.0, "untouched chunk has no delta");
    }

    #[test]
    fn empty_registry_context_is_zero() {
        let ctx = feature_context(&Registry::new());
        assert_eq!(ctx.max_density, 0.0);
        assert_eq!(ctx.total_samples, 0);
    }

    #[test]
    fn uniform_profile_is_stride_regular() {
        let r = registry_with(&[
            &[10; 16],
            &[0, 0, 0, 160, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ]);
        let ctx = feature_context(&r);
        let objs: Vec<_> = r.iter().collect();
        let flat = object_features(objs[0], &ctx);
        let spiky = object_features(objs[1], &ctx);
        assert!((flat[0][7] - 1.0).abs() < 1e-12, "flat profile: cv = 0");
        assert!(spiky[0][7] < 0.3, "spike: {}", spiky[0][7]);
    }
}
