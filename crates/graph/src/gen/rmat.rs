//! R-MAT (recursive matrix) graph generator.
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants with
//! probabilities `(a, b, c, d)` and drops each edge into one quadrant per
//! level, producing power-law degree distributions. The ATMem paper
//! evaluates on `rMat24` and `rMat27` Graph500-style inputs (`a = 0.57,
//! b = c = 0.19, d = 0.05`); the other datasets are mimicked by varying the
//! skew (see `datasets`).

use atmem_rng::SmallRng;

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::par;

/// Parameters of an R-MAT generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Directed edges generated = `edge_factor << scale`.
    pub edge_factor: usize,
    /// Upper-left quadrant probability. The fourth quadrant gets the
    /// remainder ([`d`](RmatConfig::d)), so `a + b + c` must not exceed 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Per-level multiplicative noise applied to `a` (Graph500-style
    /// smoothing that avoids exactly repeated bit patterns). Zero disables.
    pub noise: f64,
    /// Whether to add the reverse of every edge.
    pub symmetrize: bool,
}

impl RmatConfig {
    /// Graph500 reference parameters (`a=0.57, b=c=0.19, d=0.05`).
    pub fn graph500(scale: u32, edge_factor: usize) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.05,
            symmetrize: false,
        }
    }

    /// Remaining quadrant probability `d = 1 - a - b - c`.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is outside `1..=31`, the edge factor is zero, a
    /// quadrant probability is negative (`a` must be positive; `d` is
    /// *defined* as the remainder, so "sums to 1" means `a + b + c <= 1`
    /// within 1e-9), or `noise` is outside `[0, 0.5)`.
    pub fn validate(&self) {
        assert!(
            self.scale >= 1 && self.scale <= 31,
            "scale must be in 1..=31"
        );
        assert!(self.edge_factor > 0, "edge factor must be positive");
        assert!(
            self.a > 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d() >= -1e-9,
            "quadrant probabilities must be non-negative with a > 0"
        );
        assert!(
            (0.0..0.5).contains(&self.noise),
            "noise must be in [0, 0.5)"
        );
    }

    /// Number of vertices (`1 << scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated directed edges before clean-up.
    pub fn num_edges(&self) -> usize {
        self.edge_factor << self.scale
    }
}

/// Generates an R-MAT graph. Self loops are removed and duplicates kept
/// (multi-edges are normal in Graph500 inputs and harmless to the kernels).
/// Deterministic for a fixed `seed`, and the same graph on any number of
/// host cores.
pub fn rmat(config: &RmatConfig, seed: u64) -> Csr {
    config.validate();
    rmat_on(config, seed, par::workers(config.num_edges()))
}

/// [`rmat`] on `workers` host threads, for drawing and for the build.
fn rmat_on(config: &RmatConfig, seed: u64, workers: usize) -> Csr {
    GraphBuilder::new(config.num_vertices())
        .edges(rmat_edges(config, seed, workers))
        .symmetrize(config.symmetrize)
        .build_on(workers)
}

/// The edge list of [`rmat`], drawn by `workers` host threads. Each draws a
/// contiguous range of edges from its own copy of the one stream, jumped
/// past every draw of the edges before its range, so every edge is the one
/// the serial loop draws.
fn rmat_edges(config: &RmatConfig, seed: u64, workers: usize) -> Vec<(u32, u32)> {
    let draws_per_edge = u128::from(config.scale) * if config.noise > 0.0 { 2 } else { 1 };
    let mut edges = vec![(0, 0); config.num_edges()];
    let cuts = par::even_cuts(edges.len(), workers);
    let parts: Vec<_> = cuts
        .iter()
        .zip(par::split_at_cuts(&mut edges, &cuts))
        .collect();
    par::run_parts(parts, |(&start, part)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        rng.advance(start as u128 * draws_per_edge);
        for edge in part {
            *edge = rmat_edge(config, &mut rng);
        }
    });
    edges
}

/// Draws one edge by recursive quadrant descent.
///
/// The draw sequence *is* the dataset: per level one jitter draw (when
/// `noise > 0`) then one quadrant draw, never reordered or batched across
/// levels or edges — so every edge takes the same number of draws, which is
/// what lets [`rmat_edges`] split the stream. The quadrant choice itself is
/// branch-free: `b, c >= 0` gives `a <= ab <= abc`, so the four-way `if`
/// chain on `r` is three comparisons shifted into the two ids (the chain's
/// branches are unpredictable by construction;
/// `tests::reference_rmat_edge` keeps it as the oracle).
fn rmat_edge(config: &RmatConfig, rng: &mut SmallRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..config.scale {
        // Per-level noise keeps the distribution from being exactly
        // self-similar, like the Graph500 reference implementation.
        let jitter = if config.noise > 0.0 {
            1.0 + config.noise * (rng.gen::<f64>() * 2.0 - 1.0)
        } else {
            1.0
        };
        let a = (config.a * jitter).clamp(0.0, 1.0);
        let ab = a + config.b;
        let abc = ab + config.c;
        let r: f64 = rng.gen();
        let (ge_a, ge_ab, ge_abc) = (u32::from(r >= a), u32::from(r >= ab), u32::from(r >= abc));
        // Levels run from the most significant bit down, so shifting the
        // ids left once per level lands each level's bit where the chain's
        // `1 << (scale - 1 - level)` put it.
        src = src << 1 | ge_ab;
        dst = dst << 1 | ((ge_a ^ ge_ab) | ge_abc);
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::stats::degree_stats;
    use atmem_prop::prelude::*;

    #[test]
    fn generates_requested_sizes() {
        let g = rmat(&RmatConfig::graph500(10, 8), 1);
        assert_eq!(g.num_vertices(), 1024);
        // Self loops removed, so slightly fewer edges than requested.
        assert!(g.num_edges() <= 8 * 1024);
        assert!(g.num_edges() > 7 * 1024);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = RmatConfig::graph500(8, 4);
        assert_eq!(rmat(&c, 42), rmat(&c, 42));
    }

    #[test]
    fn different_seeds_differ() {
        let c = RmatConfig::graph500(8, 4);
        assert_ne!(rmat(&c, 1), rmat(&c, 2));
    }

    #[test]
    fn skewed_parameters_give_skewed_degrees() {
        let skewed = rmat(&RmatConfig::graph500(12, 8), 3);
        let uniform = rmat(
            &RmatConfig {
                a: 0.25,
                b: 0.25,
                c: 0.25,
                noise: 0.0,
                ..RmatConfig::graph500(12, 8)
            },
            3,
        );
        let s = degree_stats(&skewed);
        let u = degree_stats(&uniform);
        assert!(
            s.max_degree > 3 * u.max_degree,
            "skewed max {} vs uniform max {}",
            s.max_degree,
            u.max_degree
        );
        assert!(s.gini > u.gini + 0.2, "gini {} vs {}", s.gini, u.gini);
    }

    #[test]
    fn symmetrize_produces_reverse_edges() {
        let mut c = RmatConfig::graph500(6, 2);
        c.symmetrize = true;
        let g = rmat(&c, 5);
        for (u, v) in g.edges() {
            assert!(
                g.neighbors_of(v as usize).contains(&u),
                "missing reverse of ({u}, {v})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        rmat(&RmatConfig::graph500(0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities")]
    fn probabilities_beyond_one_are_rejected() {
        let c = RmatConfig {
            a: 0.6,
            b: 0.3,
            c: 0.2,
            ..RmatConfig::graph500(4, 2)
        };
        rmat(&c, 0);
    }

    /// The descent as it was before it went branch-free: the oracle for
    /// [`rmat_edge`].
    fn reference_rmat_edge(config: &RmatConfig, rng: &mut SmallRng) -> (u32, u32) {
        let mut src = 0u32;
        let mut dst = 0u32;
        for level in 0..config.scale {
            let bit = 1u32 << (config.scale - 1 - level);
            let jitter = if config.noise > 0.0 {
                1.0 + config.noise * (rng.gen::<f64>() * 2.0 - 1.0)
            } else {
                1.0
            };
            let a = (config.a * jitter).clamp(0.0, 1.0);
            let ab = a + config.b;
            let abc = ab + config.c;
            let r: f64 = rng.gen();
            if r < a {
                // upper-left: neither bit set
            } else if r < ab {
                dst |= bit;
            } else if r < abc {
                src |= bit;
            } else {
                src |= bit;
                dst |= bit;
            }
        }
        (src, dst)
    }

    #[test]
    fn descent_matches_the_reference_edge_for_edge() {
        let g500 = RmatConfig::graph500(16, 8);
        let configs = [
            g500.clone(),
            Dataset::Pokec.config(),
            Dataset::Twitter.config(),
            Dataset::Friendster.config(),
            RmatConfig {
                noise: 0.0,
                ..g500.clone()
            },
            RmatConfig {
                b: 0.0,
                ..g500.clone()
            },
            RmatConfig {
                c: 0.0,
                ..g500.clone()
            },
            // d within rounding of zero (validate admits d >= -1e-9).
            RmatConfig {
                a: 0.6,
                b: 0.2,
                c: 0.2,
                ..g500.clone()
            },
            // noise pushes a * jitter past 1 - b - c on some levels.
            RmatConfig {
                a: 0.98,
                b: 0.01,
                c: 0.01,
                noise: 0.4,
                ..g500.clone()
            },
            RmatConfig {
                scale: 1,
                ..g500.clone()
            },
            RmatConfig { scale: 31, ..g500 },
        ];
        for (i, config) in configs.iter().enumerate() {
            config.validate();
            let mut rng = SmallRng::seed_from_u64(0xED6E + i as u64);
            let mut oracle = rng.clone();
            for e in 0..10_000 {
                assert_eq!(
                    rmat_edge(config, &mut rng),
                    reference_rmat_edge(config, &mut oracle),
                    "edge {e} of {config:?}"
                );
                assert_eq!(rng, oracle, "RNG state after edge {e} of {config:?}");
            }
        }

        // A draw exactly on a quadrant boundary belongs to the quadrant
        // above it (`r < a` is false at `r == a`). A random stream lands
        // there once in 2^53 draws, so the three boundaries are dialled in
        // as the first draw of an edge.
        let config = RmatConfig {
            noise: 0.0,
            ..RmatConfig::graph500(16, 8)
        };
        let ab = config.a + config.b;
        for (threshold, top_bits) in [(config.a, (0, 1)), (ab, (1, 0)), (ab + config.c, (1, 1))] {
            // `gen::<f64>()` is `(next_u64() >> 11) * 2^-53`, and with
            // `s[0] == 0` the next output is `s[3].rotate_left(23)`.
            let k = (threshold * (1u64 << 53) as f64) as u64;
            let state = [0, 1, 2, (k << 11).rotate_right(23)];
            assert_eq!(SmallRng::from_state(state).gen::<f64>(), threshold);
            let mut rng = SmallRng::from_state(state);
            let mut oracle = rng.clone();
            let (src, dst) = rmat_edge(&config, &mut rng);
            assert_eq!((src, dst), reference_rmat_edge(&config, &mut oracle));
            assert_eq!(rng, oracle);
            assert_eq!(
                (src >> 15, dst >> 15),
                top_bits,
                "first draw == {threshold}"
            );
        }
    }

    /// FNV-1a over `offsets ‖ neighbors`, little-endian.
    fn fnv1a(g: &Csr) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        g.offsets().iter().for_each(|o| eat(&o.to_le_bytes()));
        g.neighbors().iter().for_each(|v| eat(&v.to_le_bytes()));
        h
    }

    /// Every figure in the repo is computed on these graphs, so a
    /// generator or builder edit that changes one bit of them changes every
    /// result silently. The constants were taken from the comparison-sort
    /// builder and the branchy descent (commit 88b1625); update them only
    /// when changing the datasets on purpose.
    #[test]
    fn rmat_outputs_are_pinned() {
        let pins = [
            (RmatConfig::graph500(10, 8), 1, 0xb313_cd4b_ea2f_8762),
            (
                RmatConfig {
                    noise: 0.0,
                    ..RmatConfig::graph500(9, 4)
                },
                7,
                0x6bc2_87c4_c3c0_810b,
            ),
            (
                RmatConfig {
                    symmetrize: true,
                    ..RmatConfig::graph500(8, 4)
                },
                5,
                0x6ac6_16c4_9f61_9650,
            ),
        ];
        for (config, seed, pin) in pins {
            assert_eq!(
                fnv1a(&rmat(&config, seed)),
                pin,
                "rmat({config:?}, {seed:#x}) is no longer the same graph"
            );
        }
        // The five stand-ins, four scale levels down.
        let small = [
            0x4d67_ec85_53ff_8908,
            0x16e4_1794_d95e_3329,
            0x3b5f_267d_8703_d9b0,
            0xd1e4_3379_4179_f578,
            0x8b6d_c0c8_4750_1019,
        ];
        for (dataset, pin) in Dataset::ALL.into_iter().zip(small) {
            assert_eq!(
                fnv1a(&dataset.build_small(4)),
                pin,
                "{dataset} is no longer the same graph"
            );
        }
    }

    /// A graph big enough to take several workers, pinned by the digest
    /// the single-threaded generator gave it (commit 1bc1d76).
    #[test]
    fn split_size_output_is_pinned() {
        let config = RmatConfig {
            symmetrize: true,
            ..RmatConfig::graph500(15, 8)
        };
        assert!(config.num_edges() >= 4 * par::MIN_EDGES_PER_WORKER);
        let pin = 0x2df1_9ec4_79e5_2f79;
        assert_eq!(fnv1a(&rmat(&config, 0x5EED)), pin);
        for workers in [2, 3, 4] {
            assert_eq!(
                fnv1a(&rmat_on(&config, 0x5EED, workers)),
                pin,
                "{workers} workers"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(prop_cases(16)))]

        /// Every edge, and so the graph, is the one the serial stream
        /// draws, for any number of workers: jitter on and off (two draws
        /// per level or one), directed and symmetrized.
        #[test]
        fn rmat_does_not_depend_on_the_worker_count(
            shape in (1u32..13, 1usize..9),
            flags in (any::<bool>(), any::<bool>()),
            seed in any::<u64>(),
        ) {
            let config = RmatConfig {
                noise: if flags.0 { 0.05 } else { 0.0 },
                symmetrize: flags.1,
                ..RmatConfig::graph500(shape.0, shape.1)
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let serial: Vec<(u32, u32)> = (0..config.num_edges())
                .map(|_| rmat_edge(&config, &mut rng))
                .collect();
            let graph = rmat_on(&config, seed, 1);
            for workers in [1, 2, 3, 8] {
                prop_assert_eq!(&rmat_edges(&config, seed, workers), &serial, "{} workers", workers);
                prop_assert_eq!(&rmat_on(&config, seed, workers), &graph, "{} workers", workers);
            }
        }
    }
}
