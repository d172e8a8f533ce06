//! Offline pairwise-ranking trainer for the learned analyzer.
//!
//! Training data is recorded from the simulator itself: the same
//! deterministic workload is profiled twice, once at the configured
//! (sparse, possibly lossy) sampling period — those profiles produce the
//! *features* — and once at a dense period — those profiles produce the
//! *labels* (per-chunk miss density, normalised within each object). Each
//! profiled object becomes one ranking *group*; the trainer then fits a
//! linear scorer with RankNet-style pairwise logistic SGD: for every
//! within-group pair whose labels differ by more than a margin, push the
//! hotter chunk's score above the colder one's. Pair order is shuffled
//! each epoch with the hermetic [`atmem_rng::SmallRng`], so training is
//! fully deterministic for a given seed — no external ML dependencies,
//! no filesystem access, no wall clock.
//!
//! Traces use a line-oriented text format (`trace v1`) so mini-traces can
//! be committed to the repository and retrained in CI:
//!
//! ```text
//! # atmem learned trace v1
//! group pagerank/edges
//! example 0.93 0.81 1.0 0.25 ... (label then NUM_FEATURES features)
//! ```

use crate::analyzer::features::{feature_context, object_features, NUM_FEATURES};
use crate::analyzer::learned::{sigmoid, LearnedModel};
use crate::registry::Registry;
use atmem_rng::SmallRng;

/// One labelled chunk: the dense-run ground truth plus the sparse-run
/// feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Ground-truth hotness in `[0, 1]`: dense-run miss density normalised
    /// by the hottest chunk of the same object.
    pub label: f64,
    /// Feature vector extracted from the sparse run.
    pub features: [f64; NUM_FEATURES],
}

/// One ranking group — all chunks of one profiled object. Pairs are only
/// formed within a group: cross-object chunk comparisons are the global
/// budget's job, not the ranker's.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGroup {
    /// Provenance tag (`kernel/object`), for trace readability.
    pub name: String,
    /// The group's labelled chunks.
    pub examples: Vec<Example>,
}

/// Pairs a sparse-run registry (features) with a dense-run registry
/// (labels) into ranking groups, one per object. The two registries must
/// describe the same workload: objects are zipped in registration order
/// and must agree on chunk counts.
pub fn record_examples(sparse: &Registry, dense: &Registry, group_base: &str) -> Vec<TraceGroup> {
    let ctx = feature_context(sparse);
    sparse
        .iter()
        .zip(dense.iter())
        .map(|(s_obj, d_obj)| {
            assert_eq!(
                s_obj.num_chunks(),
                d_obj.num_chunks(),
                "sparse/dense runs must share geometry for object {}",
                s_obj.name()
            );
            let features = object_features(s_obj, &ctx);
            let dense_density: Vec<f64> = (0..d_obj.num_chunks())
                .map(|i| d_obj.samples()[i] as f64 / d_obj.chunk_bytes(i) as f64)
                .collect();
            let max = dense_density.iter().cloned().fold(0.0, f64::max);
            let examples = features
                .into_iter()
                .zip(&dense_density)
                .map(|(features, &d)| Example {
                    label: if max > 0.0 { d / max } else { 0.0 },
                    features,
                })
                .collect();
            TraceGroup {
                name: format!("{group_base}/{}", s_obj.name()),
                examples,
            }
        })
        .collect()
}

/// Serialises groups into the committed text trace format.
pub fn serialize(groups: &[TraceGroup]) -> String {
    let mut out = String::from("# atmem learned trace v1\n");
    for g in groups {
        out.push_str(&format!("group {}\n", g.name));
        for e in &g.examples {
            out.push_str(&format!("example {:.6}", e.label));
            for f in &e.features {
                out.push_str(&format!(" {:.6}", f));
            }
            out.push('\n');
        }
    }
    out
}

/// Parses the text trace format produced by [`serialize`].
pub fn parse(text: &str) -> Result<Vec<TraceGroup>, String> {
    let mut groups: Vec<TraceGroup> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("group") => {
                let name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(format!("line {}: group without a name", lineno + 1));
                }
                groups.push(TraceGroup {
                    name,
                    examples: Vec::new(),
                });
            }
            Some("example") => {
                let group = groups
                    .last_mut()
                    .ok_or_else(|| format!("line {}: example before any group", lineno + 1))?;
                let nums: Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
                let nums = nums.map_err(|e| format!("line {}: {e}", lineno + 1))?;
                if nums.len() != 1 + NUM_FEATURES {
                    return Err(format!(
                        "line {}: expected label + {NUM_FEATURES} features, got {} numbers",
                        lineno + 1,
                        nums.len()
                    ));
                }
                if nums.iter().any(|v| !v.is_finite()) {
                    return Err(format!("line {}: non-finite value", lineno + 1));
                }
                let mut features = [0.0; NUM_FEATURES];
                features.copy_from_slice(&nums[1..]);
                group.examples.push(Example {
                    label: nums[0],
                    features,
                });
            }
            Some(other) => {
                return Err(format!("line {}: unknown record `{other}`", lineno + 1));
            }
            None => unreachable!("empty lines are skipped"),
        }
    }
    Ok(groups)
}

/// Trainer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Full passes over the pair set.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// Minimum label difference for a pair to count as ordered.
    pub margin: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Seed for the epoch shuffles.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 40,
            learning_rate: 0.05,
            margin: 0.05,
            l2: 1e-4,
            seed: 0xA73E_0001,
        }
    }
}

/// Enumerates the ordered within-group pairs: `(group, hotter, colder)`
/// index triples with `label[hotter] > label[colder] + margin`.
fn ordered_pairs(groups: &[TraceGroup], margin: f64) -> Vec<(usize, usize, usize)> {
    let mut pairs = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for i in 0..group.examples.len() {
            for j in 0..group.examples.len() {
                if group.examples[i].label > group.examples[j].label + margin {
                    pairs.push((g, i, j));
                }
            }
        }
    }
    pairs
}

/// Fits a [`LearnedModel`] with pairwise logistic SGD over the ordered
/// pairs of `groups`. The pairwise loss is shift-invariant, so after the
/// ranking weights converge the bias is calibrated separately: it centres
/// the decision boundary (`confidence = 0.5`) between the mean scores of
/// hot (`label ≥ 0.5`) and cold chunks.
pub fn train(groups: &[TraceGroup], opts: &TrainOptions) -> LearnedModel {
    let pairs = ordered_pairs(groups, opts.margin);
    let mut w = [0.0f64; NUM_FEATURES];
    if pairs.is_empty() {
        return LearnedModel {
            weights: w,
            bias: 0.0,
        };
    }
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    for _ in 0..opts.epochs {
        // Fisher–Yates shuffle of the pair order.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &p in &order {
            let (g, i, j) = pairs[p];
            let fi = &groups[g].examples[i].features;
            let fj = &groups[g].examples[j].features;
            let diff: f64 = w
                .iter()
                .zip(fi.iter().zip(fj))
                .map(|(wk, (a, b))| wk * (a - b))
                .sum();
            // d/dw of -ln(sigmoid(diff)) = (sigmoid(diff) - 1) * (fi - fj)
            let g_scale = sigmoid(diff) - 1.0;
            for k in 0..NUM_FEATURES {
                w[k] -= opts.learning_rate * (g_scale * (fi[k] - fj[k]) + opts.l2 * w[k]);
            }
        }
    }

    // Bias calibration on the raw (bias-free) scores.
    let score = |f: &[f64; NUM_FEATURES]| -> f64 { w.iter().zip(f).map(|(wk, fk)| wk * fk).sum() };
    let (mut hot_sum, mut hot_n, mut cold_sum, mut cold_n) = (0.0, 0usize, 0.0, 0usize);
    for g in groups {
        for e in &g.examples {
            if e.label >= 0.5 {
                hot_sum += score(&e.features);
                hot_n += 1;
            } else {
                cold_sum += score(&e.features);
                cold_n += 1;
            }
        }
    }
    let bias = if hot_n > 0 && cold_n > 0 {
        -(hot_sum / hot_n as f64 + cold_sum / cold_n as f64) / 2.0
    } else {
        0.0
    };
    LearnedModel { weights: w, bias }
}

/// Fraction of ordered pairs the model ranks correctly (ties count as
/// wrong). Returns 1.0 for a trace with no ordered pairs.
pub fn pairwise_accuracy(model: &LearnedModel, groups: &[TraceGroup], margin: f64) -> f64 {
    let pairs = ordered_pairs(groups, margin);
    if pairs.is_empty() {
        return 1.0;
    }
    let correct = pairs
        .iter()
        .filter(|&&(g, i, j)| {
            model.score(&groups[g].examples[i].features)
                > model.score(&groups[g].examples[j].features)
        })
        .count();
    correct as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic separable trace: the label rises with feature 0 and
    /// falls with feature 7, plus a little deterministic noise elsewhere.
    fn synthetic(groups: usize, per_group: usize) -> Vec<TraceGroup> {
        let mut rng = SmallRng::seed_from_u64(99);
        (0..groups)
            .map(|g| TraceGroup {
                name: format!("synthetic/{g}"),
                examples: (0..per_group)
                    .map(|_| {
                        let hot: f64 = rng.gen::<f64>();
                        let anti: f64 = rng.gen::<f64>();
                        let mut features = [0.0; NUM_FEATURES];
                        features[0] = hot;
                        features[7] = anti;
                        for f in features.iter_mut().skip(1).take(5) {
                            *f = rng.gen::<f64>() * 0.1;
                        }
                        Example {
                            label: (0.8 * hot - 0.2 * anti).clamp(0.0, 1.0),
                            features,
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn trainer_learns_a_separable_ranking() {
        let trace = synthetic(6, 24);
        let opts = TrainOptions::default();
        let model = train(&trace, &opts);
        assert!(model.weights.iter().all(|w| w.is_finite()) && model.bias.is_finite());
        assert!(model.weights[0] > 0.0, "hot feature gets positive weight");
        assert!(model.weights[7] < 0.0, "anti feature gets negative weight");
        let acc = pairwise_accuracy(&model, &trace, opts.margin);
        assert!(acc > 0.95, "training accuracy {acc}");
        // Generalisation to a fresh draw of the same distribution.
        let holdout = synthetic(3, 24);
        let acc = pairwise_accuracy(&model, &holdout, opts.margin);
        assert!(acc > 0.9, "holdout accuracy {acc}");
    }

    #[test]
    fn bias_calibration_centres_the_boundary() {
        let trace = synthetic(6, 24);
        let model = train(&trace, &TrainOptions::default());
        let (mut hot_ok, mut hot_n, mut cold_ok, mut cold_n) = (0, 0, 0, 0);
        for g in &trace {
            for e in &g.examples {
                let c = model.confidence(&e.features);
                if e.label >= 0.7 {
                    hot_n += 1;
                    hot_ok += (c > 0.5) as usize;
                } else if e.label <= 0.2 {
                    cold_n += 1;
                    cold_ok += (c < 0.5) as usize;
                }
            }
        }
        assert!(hot_ok as f64 >= 0.8 * hot_n as f64, "{hot_ok}/{hot_n} hot");
        assert!(
            cold_ok as f64 >= 0.8 * cold_n as f64,
            "{cold_ok}/{cold_n} cold"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let trace = synthetic(4, 16);
        let a = train(&trace, &TrainOptions::default());
        let b = train(&trace, &TrainOptions::default());
        assert_eq!(a, b);
        let c = train(
            &trace,
            &TrainOptions {
                seed: 7,
                ..TrainOptions::default()
            },
        );
        // A different seed still converges.
        assert!(c.weights.iter().all(|w| w.is_finite()) && c.bias.is_finite());
    }

    #[test]
    fn trace_round_trips_through_text() {
        let trace = synthetic(3, 8);
        let text = serialize(&trace);
        let back = parse(&text).unwrap();
        assert_eq!(trace.len(), back.len());
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.examples.len(), b.examples.len());
            for (x, y) in a.examples.iter().zip(&b.examples) {
                assert!((x.label - y.label).abs() < 1e-5);
                for k in 0..NUM_FEATURES {
                    assert!((x.features[k] - y.features[k]).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse("example 0.5 0 0 0 0 0 0 0 0 0").is_err(), "no group");
        assert!(parse("group g\nexample 0.5 1 2").is_err(), "short row");
        assert!(parse("group g\nexample nope 0 0 0 0 0 0 0 0 0").is_err());
        assert!(parse("wat 1 2 3").is_err(), "unknown record");
        assert!(parse("group g\nexample inf 0 0 0 0 0 0 0 0 0").is_err());
        assert!(parse("# comment only\n\n").unwrap().is_empty());
    }

    #[test]
    fn empty_trace_trains_to_a_null_model() {
        let model = train(&[], &TrainOptions::default());
        assert_eq!(model.weights, [0.0; NUM_FEATURES]);
        assert_eq!(model.bias, 0.0);
        assert_eq!(pairwise_accuracy(&model, &[], 0.05), 1.0);
    }
}
