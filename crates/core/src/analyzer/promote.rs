//! Tree-based global promotion (paper §4.3.2–§4.3.3, Eq. 4–5).
//!
//! Stage two of the analyzer looks *across* data objects. For each object
//! it derives a weight (Eq. 4) — the mean priority of its sampled-critical
//! chunks — then adapts the tree-ratio threshold per object (Eq. 5):
//!
//! ```text
//! θ(TR_i)' = ε + θ(TR) · (max W − W(DO_i)) / ‖min W − max W‖
//! ```
//!
//! Heavier objects (few, very hot critical chunks) get a *lower* threshold
//! so the top-down promotion patches up more of their neighbourhood; light
//! objects keep a high threshold and promote little. `ε` is the theoretical
//! floor tied to the arity (an octree's meaningful floor is 1/8).
//!
//! The top-down pass (§4.3.3) walks the tree breadth-first; at the first
//! node whose TR clears the object's threshold, all descendant leaves are
//! promoted — turning scattered sampled-critical chunks plus their gaps
//! into one contiguous migratable region.

use crate::analyzer::local::LocalSelection;
use crate::analyzer::tree::MaryTree;
use crate::config::AnalyzerConfig;

/// The base tree-ratio threshold `Θ(TR)` of Eq. 5 that the global adaption
/// scales per object.
const BASE_TR: f64 = 0.5;

/// Weight of one data object (Eq. 4): the average priority of its
/// sampled-critical chunks, or 0 when it has none.
pub(crate) fn object_weight(selection: &LocalSelection) -> f64 {
    let mut sum = 0.0;
    let mut count = 0u64;
    for (p, &c) in selection.priorities.iter().zip(&selection.critical) {
        if c {
            sum += *p;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Computes each object's adapted tree-ratio threshold (Eq. 5) from the
/// weights of all objects.
///
/// With `adaptive_tr` disabled (ablation), every object gets the fixed
/// `ε + BASE_TR` value regardless of weight.
pub(crate) fn adaptive_thresholds(weights: &[f64], config: &AnalyzerConfig) -> Vec<f64> {
    let epsilon = config.effective_epsilon();
    if !config.adaptive_tr {
        return vec![(epsilon + BASE_TR).min(1.0); weights.len()];
    }
    let max_w = weights.iter().cloned().fold(f64::MIN, f64::max);
    let min_w = weights.iter().cloned().fold(f64::MAX, f64::min);
    let span = max_w - min_w;
    weights
        .iter()
        .map(|&w| {
            let scale = if span > 0.0 { (max_w - w) / span } else { 0.0 };
            (epsilon + BASE_TR * scale).min(1.0)
        })
        .collect()
}

/// Top-down promotion (§4.3.3): breadth-first search from the root; the
/// first node (on each path) whose tree ratio is at least `threshold` has
/// *all* its descendant leaves promoted. Returns the final criticality
/// bitmap (sampled ∪ estimated); promotion never demotes.
pub fn promote(tree: &MaryTree, sampled: &[bool], threshold: f64) -> Vec<bool> {
    assert_eq!(tree.leaf_count(), sampled.len(), "tree/selection mismatch");
    let mut result = sampled.to_vec();
    if threshold <= 0.0 {
        // Degenerate: everything qualifies.
        result.fill(true);
        return result;
    }
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(tree.root());
    while let Some(node) = queue.pop_front() {
        let tr = tree.tree_ratio(node);
        if tr <= 0.0 {
            continue; // nothing critical below: prune
        }
        if tr >= threshold {
            let (start, end) = tree.leaf_range(node);
            for leaf in result.iter_mut().take(end).skip(start) {
                *leaf = true;
            }
            continue; // everything below is promoted; no need to descend
        }
        for child in tree.children(node) {
            queue.push_back(child);
        }
    }
    result
}

/// Chunks promoted by estimation only (in `promoted` but not `sampled`).
pub(crate) fn estimated_only(sampled: &[bool], promoted: &[bool]) -> usize {
    sampled
        .iter()
        .zip(promoted)
        .filter(|&(&s, &p)| p && !s)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selection(priorities: Vec<f64>, critical: Vec<bool>) -> LocalSelection {
        LocalSelection {
            priorities,
            theta: 0.0,
            critical,
        }
    }

    #[test]
    fn weight_is_mean_of_critical_priorities() {
        let s = selection(vec![4.0, 2.0, 8.0, 1.0], vec![true, false, true, false]);
        assert!((object_weight(&s) - 6.0).abs() < 1e-12);
        let none = selection(vec![1.0, 1.0], vec![false, false]);
        assert_eq!(object_weight(&none), 0.0);
    }

    #[test]
    fn heavier_objects_get_lower_thresholds() {
        let config = AnalyzerConfig::default();
        let th = adaptive_thresholds(&[10.0, 5.0, 0.0], &config);
        let eps = config.effective_epsilon();
        assert!((th[0] - eps).abs() < 1e-12, "max-weight object sits at ε");
        assert!(th[0] < th[1] && th[1] < th[2]);
        assert!((th[2] - (eps + BASE_TR)).abs() < 1e-12);
    }

    #[test]
    fn equal_weights_all_get_epsilon() {
        let config = AnalyzerConfig::default();
        let th = adaptive_thresholds(&[3.0, 3.0], &config);
        let eps = config.effective_epsilon();
        assert!(th.iter().all(|&t| (t - eps).abs() < 1e-12));
    }

    #[test]
    fn fixed_tr_ablation_ignores_weights() {
        let config = AnalyzerConfig {
            adaptive_tr: false,
            ..AnalyzerConfig::default()
        };
        let th = adaptive_thresholds(&[10.0, 0.0], &config);
        assert_eq!(th[0], th[1]);
    }

    #[test]
    fn figure3_promotion() {
        // Paper Figure 3c: threshold 0.5; the left subtree has TR 0.75, so
        // its non-critical leaf gets promoted; the right subtree (TR 0)
        // stays out. Using m=2 over [1,1,1,0, 0,0,0,0].
        let sampled = [true, true, true, false, false, false, false, false];
        let tree = MaryTree::build(&sampled, 2);
        let out = promote(&tree, &sampled, 0.5);
        assert_eq!(
            out,
            [true, true, true, true, false, false, false, false],
            "the gap inside the hot half is patched, the cold half is not"
        );
        assert_eq!(estimated_only(&sampled, &out), 1);
    }

    #[test]
    fn promotion_is_monotone() {
        let sampled: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let tree = MaryTree::build(&sampled, 4);
        let out = promote(&tree, &sampled, 0.3);
        for (i, (&s, &p)) in sampled.iter().zip(&out).enumerate() {
            assert!(!s || p, "chunk {i} was demoted");
        }
    }

    #[test]
    fn threshold_one_promotes_only_saturated_spans() {
        let sampled = [true, true, false, false];
        let tree = MaryTree::build(&sampled, 2);
        let out = promote(&tree, &sampled, 1.0);
        assert_eq!(out, sampled, "no span is fully critical except the pair");
    }

    #[test]
    fn zero_threshold_promotes_everything() {
        let sampled = [false, true, false, false];
        let tree = MaryTree::build(&sampled, 2);
        let out = promote(&tree, &sampled, 0.0);
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn all_cold_object_promotes_nothing() {
        let sampled = [false; 16];
        let tree = MaryTree::build(&sampled, 4);
        let out = promote(&tree, &sampled, 0.25);
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    fn lower_threshold_promotes_at_least_as_much() {
        let sampled: Vec<bool> = (0..128).map(|i| (i / 7) % 3 == 0).collect();
        let tree = MaryTree::build(&sampled, 4);
        let hi = promote(&tree, &sampled, 0.75);
        let lo = promote(&tree, &sampled, 0.25);
        for (h, l) in hi.iter().zip(&lo) {
            assert!(!h | l, "lower threshold must be a superset");
        }
        assert!(lo.iter().filter(|&&b| b).count() >= hi.iter().filter(|&&b| b).count());
    }

    mod properties {
        use super::*;
        use atmem_prop::prelude::*;

        proptest! {
            /// Eq. 5 thresholds always land in [ε, ε + BASE_TR] and order
            /// inversely to weight.
            #[test]
            fn thresholds_bounded_and_inverse_to_weight(
                weights in prop::collection::vec(0.0f64..1e6, 1..20),
            ) {
                let config = AnalyzerConfig::default();
                let th = adaptive_thresholds(&weights, &config);
                let eps = config.effective_epsilon();
                for &t in &th {
                    prop_assert!(t >= eps - 1e-12 && t <= eps + BASE_TR + 1e-12);
                }
                for i in 0..weights.len() {
                    for j in 0..weights.len() {
                        if weights[i] > weights[j] {
                            prop_assert!(th[i] <= th[j] + 1e-12);
                        }
                    }
                }
            }
        }
    }
}
