//! Hybrid local selection (paper §4.2, Eq. 1–3).
//!
//! Stage one of the analyzer ranks chunks *within* each data object:
//!
//! * Eq. 1 — local priority `PR(DC) = LLC_mr(DC) / Size(DC)`: sampled LLC
//!   read misses normalised by chunk size (normalisation makes priorities
//!   comparable across objects with different chunk sizes, which the global
//!   stage relies on);
//! * Eq. 2 — the threshold `θ(DO)` is the maximum of three candidates:
//!   the top-N percentile `P_n`, a derivative-based knee relative to
//!   `max PR` (a 1-D analogue of 2-means clustering), and a theoretical
//!   floor derived from the sampling frequency (a chunk observed fewer
//!   times than [`MIN_SAMPLES`] carries no signal);
//! * Eq. 3 — `CAT(DC) = 1` iff `PR(DC) > θ`.
//!
//! The hybrid of percentile and knee handles both failure modes of a fixed
//! top-N: highly skewed objects (where top-N would drag in cold chunks) and
//! flat objects (where more than N% deserve selection).

use crate::object::DataObject;

/// Minimum samples a chunk must receive for its priority to be considered
/// real (the `min PR / Freq_sample` floor of Eq. 2).
const MIN_SAMPLES: u64 = 2;

/// Top-N fraction for the percentile candidate of Eq. 2 (`P_n`): the local
/// selection picks at least the top `TOP_N_FRAC` of chunks by priority.
const TOP_N_FRAC: f64 = 0.08;

/// The derivative-based candidate of Eq. 2: walking the descending
/// priority curve, selection stops at the first chunk whose priority falls
/// below `DERIVATIVE_ALPHA` times the running average of the chunks
/// selected so far (the boundary of the hot cluster).
const DERIVATIVE_ALPHA: f64 = 0.1;

/// The mass-coverage candidate of the derivative search: selection stops
/// once the chosen chunks cover this fraction of the object's total
/// priority mass — the direct expression of the paper's "maximum
/// performance gain per byte" objective (§1).
const MASS_COVERAGE: f64 = 0.70;

/// Upper bound on the fraction of an object's chunks the local stage may
/// select when no knee is found (flat distributions extend past the
/// `TOP_N_FRAC` percentile up to this cap; boundary ties may exceed it).
/// Together with promotion this lands the overall data ratio in the
/// paper's 5%-18% band (Figures 7/8).
const MAX_SELECT_FRAC: f64 = 0.12;

/// Per-object outcome of the local selection stage.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSelection {
    /// Eq. 1 priority of every chunk (misses per byte).
    pub priorities: Vec<f64>,
    /// The threshold chosen by Eq. 2.
    pub theta: f64,
    /// Eq. 3 classification: `true` = sampled critical.
    pub critical: Vec<bool>,
}

impl LocalSelection {
    /// Number of sampled-critical chunks.
    pub fn critical_count(&self) -> usize {
        self.critical.iter().filter(|&&c| c).count()
    }
}

/// Runs the local selection for one object.
pub fn local_selection(object: &DataObject) -> LocalSelection {
    let n = object.num_chunks();
    // The sampling floor is count-based: a chunk observed fewer than
    // `MIN_SAMPLES` times carries no signal, *whatever its size*. Applying
    // the floor to the normalised priority would let a tiny final partial
    // chunk turn one stray sample into an enormous priority.
    let priorities: Vec<f64> = (0..n)
        .map(|i| {
            let samples = object.samples()[i];
            if samples < MIN_SAMPLES {
                0.0
            } else {
                samples as f64 / object.chunk_bytes(i) as f64
            }
        })
        .collect();

    let theta = select_threshold(&priorities);
    let critical = priorities.iter().map(|&p| p > theta).collect();
    LocalSelection {
        priorities,
        theta,
        critical,
    }
}

/// Eq. 2: `θ = max(P_n, derivative knee, sampling floor)`. The floor has
/// already been applied (floor-failing chunks carry priority zero).
fn select_threshold(priorities: &[f64]) -> f64 {
    let max_pr = priorities.iter().cloned().fold(0.0, f64::max);
    if max_pr == 0.0 {
        // No samples: nothing can be critical. Any positive threshold works.
        return f64::INFINITY;
    }

    // Signal-bearing chunks, hottest first.
    let mut sorted: Vec<f64> = priorities.iter().copied().filter(|&p| p > 0.0).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("priorities are finite"));
    if sorted.is_empty() {
        return f64::INFINITY;
    }
    let n = priorities.len();

    // The derivative-based search walks the descending priority curve
    // looking for a *cliff*: the first chunk whose marginal priority falls
    // below `DERIVATIVE_ALPHA` of the running average — the hot-cluster
    // boundary, a 1-D analogue of a 2-means split. Along the way it also
    // notes where the prefix covers `MASS_COVERAGE` of the total priority
    // mass — beyond that point, extra chunks buy almost no gain per byte
    // (§1's objective), so selection never extends past it.
    let total_mass: f64 = sorted.iter().sum();
    let mut cliff: Option<usize> = None;
    let mut k_mass = sorted.len();
    let mut mass = sorted[0];
    for (i, &p) in sorted.iter().enumerate().skip(1) {
        if k_mass == sorted.len() && mass >= MASS_COVERAGE * total_mass {
            k_mass = i;
        }
        if cliff.is_none() && p < DERIVATIVE_ALPHA * (mass / i as f64) {
            cliff = Some(i);
            break;
        }
        mass += p;
    }

    // The percentile candidate bounds how far a *cliff-less* (flat)
    // selection may extend: at least the top-N count, at most
    // `MAX_SELECT_FRAC`. A detected cliff is trusted even beyond the cap —
    // truncating a real hot cluster would strand critical chunks on the
    // slow tier — but never past the mass bound.
    let k_pn = ((n as f64) * TOP_N_FRAC).floor() as usize;
    let cap = k_pn.max((n as f64 * MAX_SELECT_FRAC) as usize).max(1);
    let mut k = match cliff {
        Some(c) => c.min(k_mass),
        None => k_mass.min(cap),
    }
    .max(1)
    .min(sorted.len());

    // Boundary ties are included: chunks with identical priority deserve
    // identical treatment (and for a perfectly flat object this selects the
    // whole structure — the coarse-grained degeneration of paper §9).
    while k < sorted.len() && sorted[k] == sorted[k - 1] {
        k += 1;
    }

    let kth = sorted[k - 1];
    let next = sorted.get(k).copied().unwrap_or(0.0);
    // Any θ in [next, kth) selects exactly the top k; use the midpoint.
    (next + kth) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk_geometry;
    use crate::config::ChunkConfig;
    use atmem_hms::{VirtAddr, VirtRange};

    /// Builds an object with the given per-chunk sample counts (chunk size
    /// 4 KiB).
    fn object_with_samples(counts: &[u64]) -> DataObject {
        let bytes = counts.len() * 4096;
        let g = chunk_geometry(
            bytes,
            &ChunkConfig {
                target_chunks: counts.len(),
                min_chunk_bytes: 4096,
            },
        );
        assert_eq!(g.num_chunks, counts.len());
        let mut o = DataObject::new(
            crate::object::ObjectId(0),
            "t",
            VirtRange::new(VirtAddr::new(0x100000), bytes),
            g,
        );
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                assert!(o.record_sample(o.chunk_range(i).start));
            }
        }
        o
    }

    #[test]
    fn unsampled_object_selects_nothing() {
        let o = object_with_samples(&[0; 16]);
        let sel = local_selection(&o);
        assert_eq!(sel.critical_count(), 0);
    }

    #[test]
    fn skewed_distribution_selects_only_the_cliff_top() {
        // Two hot chunks far above the rest; top-10% of 20 chunks would be
        // 2 anyway, but the knee keeps the cold ones out even with a larger
        // percentile.
        let mut counts = vec![1u64; 20];
        counts[3] = 500;
        counts[11] = 450;
        let o = object_with_samples(&counts);
        let sel = local_selection(&o);
        assert!(sel.critical[3] && sel.critical[11]);
        assert_eq!(sel.critical_count(), 2);
    }

    #[test]
    fn flat_distribution_extends_to_the_cap() {
        // A smooth gradient: no cliff, so selection extends past the
        // percentile up to the MAX_SELECT_FRAC cap (the paper's "more than
        // N% should be selected" case for even distributions).
        let counts: Vec<u64> = (0..100u64).map(|i| 100 + i).collect();
        let o = object_with_samples(&counts);
        let sel = local_selection(&o);
        let picked = sel.critical_count();
        assert!(
            (10..=16).contains(&picked),
            "expected ~12% selected, got {picked}"
        );
        // The selected ones are the highest.
        for (i, (&selected, &count)) in sel.critical.iter().zip(&counts).enumerate() {
            if selected {
                assert!(count > 180, "chunk {i} selected with count {count}");
            }
        }
    }

    #[test]
    fn all_equal_distribution_selects_everything() {
        // Perfectly uniform heat degenerates to whole-structure placement
        // (paper §9): boundary ties extend selection to the full object.
        let counts = vec![50u64; 64];
        let o = object_with_samples(&counts);
        let sel = local_selection(&o);
        assert_eq!(sel.critical_count(), 64);
    }

    #[test]
    fn sampling_floor_suppresses_noise() {
        // Every chunk saw at most one sample: nothing is significant.
        let counts = vec![1u64, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0];
        let o = object_with_samples(&counts);
        let sel = local_selection(&o);
        assert_eq!(
            sel.critical_count(),
            0,
            "single-sample chunks are noise under MIN_SAMPLES=2"
        );
    }

    #[test]
    fn priorities_are_normalized_by_size() {
        let o = object_with_samples(&[10, 0, 0, 0]);
        let sel = local_selection(&o);
        assert!((sel.priorities[0] - 10.0 / 4096.0).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use atmem_prop::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The selected set is a prefix of the descending priority
            /// order: walking chunks from hottest to coldest, once one is
            /// rejected no later chunk is selected.
            #[test]
            fn selection_is_a_prefix_of_descending_priority(
                counts in prop::collection::vec(0u64..60, 1..80),
            ) {
                let o = object_with_samples(&counts);
                let sel = local_selection(&o);
                let mut idx: Vec<usize> = (0..sel.priorities.len()).collect();
                idx.sort_by(|&a, &b| {
                    sel.priorities[b].partial_cmp(&sel.priorities[a]).unwrap()
                });
                let mut rejected_before = None;
                for &i in &idx {
                    if sel.critical[i] {
                        prop_assert!(
                            rejected_before.is_none(),
                            "chunk {i} (priority {}) selected after chunk {:?} was rejected",
                            sel.priorities[i],
                            rejected_before,
                        );
                    } else {
                        rejected_before.get_or_insert(i);
                    }
                }
            }

            /// Ties at the selection boundary are always included: every
            /// chunk whose priority equals the coldest selected priority is
            /// itself selected.
            #[test]
            fn boundary_ties_are_included(
                counts in prop::collection::vec(0u64..8, 1..80),
            ) {
                let o = object_with_samples(&counts);
                let sel = local_selection(&o);
                let boundary = sel
                    .priorities
                    .iter()
                    .zip(&sel.critical)
                    .filter(|(_, &c)| c)
                    .map(|(&p, _)| p)
                    .fold(f64::INFINITY, f64::min);
                if boundary.is_finite() {
                    for (i, (&p, &c)) in sel.priorities.iter().zip(&sel.critical).enumerate() {
                        if p == boundary {
                            prop_assert!(c, "chunk {i} ties the boundary priority {boundary} but was rejected");
                        }
                    }
                }
            }

            /// θ is finite iff at least one chunk clears the `MIN_SAMPLES`
            /// floor — and then at least one chunk is selected.
            #[test]
            fn theta_finite_iff_some_chunk_clears_the_floor(
                counts in prop::collection::vec(0u64..5, 1..80),
            ) {
                let o = object_with_samples(&counts);
                let sel = local_selection(&o);
                let any_signal = counts.iter().any(|&c| c >= MIN_SAMPLES);
                prop_assert_eq!(
                    sel.theta.is_finite(),
                    any_signal,
                    "theta {} vs counts {:?}",
                    sel.theta,
                    &counts
                );
                prop_assert_eq!(sel.critical_count() > 0, any_signal);
            }
        }
    }

    #[test]
    fn threshold_is_infinite_only_when_unsampled() {
        let o = object_with_samples(&[0; 8]);
        let sel = local_selection(&o);
        assert!(sel.theta.is_infinite());
        let o = object_with_samples(&[9; 8]);
        let sel = local_selection(&o);
        assert!(sel.theta.is_finite());
    }
}
