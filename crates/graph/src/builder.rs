//! Edge-list to CSR construction.

use crate::csr::Csr;
use crate::par;

/// Policy for self-loop edges (`u -> u`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfLoops {
    /// Drop self loops (the default; graph kernels assume none).
    #[default]
    Remove,
    /// Keep them.
    Keep,
}

/// Builds a [`Csr`] from an edge list with configurable clean-up.
///
/// ```
/// use atmem_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 3), (0, 1)]) // duplicate collapsed
///     .deduplicate(true)
///     .symmetrize(true)
///     .build();
/// assert_eq!(g.num_edges(), 6); // three undirected edges
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
    weights: Option<Vec<f32>>,
    symmetrize: bool,
    deduplicate: bool,
    self_loops: SelfLoops,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            weights: None,
            symmetrize: false,
            deduplicate: false,
            self_loops: SelfLoops::default(),
        }
    }

    /// Appends unweighted edges.
    ///
    /// # Panics
    ///
    /// Panics if weighted edges were added before (mixing is not allowed).
    pub fn edges(mut self, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        assert!(
            self.weights.is_none(),
            "cannot mix weighted and unweighted edges"
        );
        if self.edges.is_empty() {
            // Collecting a `Vec`'s own iterator hands its buffer over
            // instead of copying a whole generated edge list.
            self.edges = edges.into_iter().collect();
        } else {
            self.edges.extend(edges);
        }
        self
    }

    /// Appends weighted edges.
    ///
    /// # Panics
    ///
    /// Panics if unweighted edges were added before.
    pub fn weighted_edges(mut self, edges: impl IntoIterator<Item = (u32, u32, f32)>) -> Self {
        let weights = self.weights.get_or_insert_with(Vec::new);
        assert_eq!(
            weights.len(),
            self.edges.len(),
            "cannot mix weighted and unweighted edges"
        );
        for (u, v, w) in edges {
            self.edges.push((u, v));
            weights.push(w);
        }
        self
    }

    /// Adds the reverse of every edge (undirected graph).
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// Collapses duplicate `(u, v)` pairs (keeping the first weight).
    pub fn deduplicate(mut self, yes: bool) -> Self {
        self.deduplicate = yes;
        self
    }

    /// Sets the self-loop policy.
    pub fn self_loops(mut self, policy: SelfLoops) -> Self {
        self.self_loops = policy;
        self
    }

    /// Builds the CSR. Neighbour lists are sorted by destination; edges
    /// with equal `(source, destination)` keep the order they were added
    /// in, each mirrored copy ([`symmetrize`](GraphBuilder::symmetrize))
    /// after every original.
    ///
    /// A counting sort: rows are counted, prefix-summed and filled with one
    /// stable scatter, then each row is sorted by destination — linear in
    /// the edge list apart from the per-row sorts, with no per-edge
    /// temporary. The row sorts run on every host core, each worker over a
    /// contiguous range of rows holding about an equal share of the edges.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn build(self) -> Csr {
        let workers = par::workers(self.edges.len());
        self.build_on(workers)
    }

    /// [`build`](GraphBuilder::build) with its row sorts on `workers` host
    /// threads; the result does not depend on `workers`.
    pub(crate) fn build_on(self, workers: usize) -> Csr {
        let n = self.num_vertices;
        for &(u, v) in &self.edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
        }
        let drop_loops = self.self_loops == SelfLoops::Remove;
        let dropped = |u: u32, v: u32| drop_loops && u == v;

        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &self.edges {
            if dropped(u, v) {
                continue;
            }
            offsets[u as usize + 1] += 1;
            if self.symmetrize {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Originals first, mirrored copies second, each in input order:
        // the order a stable sort by source leaves them in.
        let m = offsets[n] as usize;
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&o| o as usize).collect();
        let mut neighbors = vec![0u32; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0f32; m]);
        let mut scatter = |mirrored: bool| {
            for (i, &(u, v)) in self.edges.iter().enumerate() {
                if dropped(u, v) {
                    continue;
                }
                let (row, nbr) = if mirrored { (v, u) } else { (u, v) };
                let slot = &mut cursor[row as usize];
                neighbors[*slot] = nbr;
                if let (Some(out), Some(ws)) = (&mut weights, &self.weights) {
                    out[*slot] = ws[i];
                }
                *slot += 1;
            }
        };
        scatter(false);
        if self.symmetrize {
            scatter(true);
        }

        // Worker `k` sorts rows `row_cuts[k]..row_cuts[k + 1]`: the rows
        // where the `k`-th equal share of the edges starts and ends.
        let mut row_cuts: Vec<usize> = par::even_cuts(m, workers)
            .into_iter()
            .map(|e| offsets.partition_point(|&o| (o as usize) < e))
            .collect();
        row_cuts[workers] = n;
        let edge_cuts: Vec<usize> = row_cuts.iter().map(|&r| offsets[r] as usize).collect();
        let weight_parts: Vec<Option<&mut [f32]>> = match &mut weights {
            Some(ws) => par::split_at_cuts(ws, &edge_cuts)
                .into_iter()
                .map(Some)
                .collect(),
            None => (0..workers).map(|_| None).collect(),
        };
        let parts: Vec<_> = row_cuts
            .windows(2)
            .map(|rows| &offsets[rows[0]..=rows[1]])
            .zip(par::split_at_cuts(&mut neighbors, &edge_cuts))
            .zip(weight_parts)
            .collect();
        par::run_parts(parts, |((bounds, nbrs), ws)| sort_rows(bounds, nbrs, ws));

        if self.deduplicate {
            // Compact in place, keeping the first edge (and weight) of each
            // run of equal destinations within a row.
            let mut out = 0;
            let mut lo = 0;
            for row in 0..n {
                let hi = offsets[row + 1] as usize;
                for e in lo..hi {
                    if e > lo && neighbors[e] == neighbors[e - 1] {
                        continue;
                    }
                    neighbors[out] = neighbors[e];
                    if let Some(ws) = &mut weights {
                        ws[out] = ws[e];
                    }
                    out += 1;
                }
                lo = hi;
                offsets[row + 1] = out as u64;
            }
            neighbors.truncate(out);
            if let Some(ws) = &mut weights {
                ws.truncate(out);
            }
        }
        Csr::from_parts(n, offsets, neighbors, weights)
    }

    /// [`build`](GraphBuilder::build) as one stable comparison sort of
    /// `(source, destination, weight)` triples: the oracle the counting
    /// sort is tested against.
    #[cfg(test)]
    fn reference_build(self) -> Csr {
        let n = self.num_vertices;
        let mut triples: Vec<(u32, u32, f32)> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge ({u}, {v}) out of range for {n} vertices"
                );
                let w = self.weights.as_ref().map_or(1.0, |ws| ws[i]);
                (u, v, w)
            })
            .collect();

        if self.self_loops == SelfLoops::Remove {
            triples.retain(|&(u, v, _)| u != v);
        }
        if self.symmetrize {
            let mirrored: Vec<_> = triples.iter().map(|&(u, v, w)| (v, u, w)).collect();
            triples.extend(mirrored);
        }
        triples.sort_by_key(|&(u, v, _)| (u, v));
        if self.deduplicate {
            triples.dedup_by_key(|t| (t.0, t.1));
        }

        let mut offsets = vec![0u64; n + 1];
        for &(u, _, _) in &triples {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let neighbors: Vec<u32> = triples.iter().map(|&(_, v, _)| v).collect();
        let weights = self
            .weights
            .is_some()
            .then(|| triples.iter().map(|&(_, _, w)| w).collect());
        Csr::from_parts(n, offsets, neighbors, weights)
    }
}

/// Sorts every row of one worker's share by destination. `bounds` are the
/// share's row offsets; `nbrs` and `weights` hold its edges, starting at
/// `bounds[0]`.
fn sort_rows(bounds: &[u64], nbrs: &mut [u32], weights: Option<&mut [f32]>) {
    let base = bounds[0];
    let rows = bounds
        .windows(2)
        .map(|b| (b[0] - base) as usize..(b[1] - base) as usize);
    match weights {
        // Equal destinations are indistinguishable without weights.
        None => rows.for_each(|r| nbrs[r].sort_unstable()),
        // With weights they are not: a stable sort keeps duplicate edges'
        // weights in insertion order.
        Some(ws) => {
            let mut pairs: Vec<(u32, f32)> = Vec::new();
            for r in rows {
                let (row_nbrs, row_ws) = (&mut nbrs[r.clone()], &mut ws[r]);
                pairs.clear();
                pairs.extend(row_nbrs.iter().copied().zip(row_ws.iter().copied()));
                pairs.sort_by_key(|&(v, _)| v);
                for (k, &(v, w)) in pairs.iter().enumerate() {
                    row_nbrs[k] = v;
                    row_ws[k] = w;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_prop::prelude::*;
    use atmem_rng::SmallRng;

    #[test]
    fn builds_sorted_adjacency() {
        let g = GraphBuilder::new(3).edges([(0, 2), (0, 1), (2, 0)]).build();
        assert_eq!(g.neighbors_of(0), &[1, 2]);
        assert_eq!(g.neighbors_of(2), &[0]);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (1, 2)])
            .symmetrize(true)
            .build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors_of(1), &[0, 2]);
    }

    #[test]
    fn deduplicate_collapses() {
        let g = GraphBuilder::new(2)
            .edges([(0, 1), (0, 1), (0, 1)])
            .deduplicate(true)
            .build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_removed_by_default() {
        let g = GraphBuilder::new(2).edges([(0, 0), (0, 1)]).build();
        assert_eq!(g.num_edges(), 1);
        let g = GraphBuilder::new(2)
            .edges([(0, 0), (0, 1)])
            .self_loops(SelfLoops::Keep)
            .build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn weights_follow_edges_through_sort() {
        let g = GraphBuilder::new(3)
            .weighted_edges([(0, 2, 2.5), (0, 1, 1.5)])
            .build();
        assert_eq!(g.neighbors_of(0), &[1, 2]);
        assert_eq!(g.weights_of(0), &[1.5, 2.5]);
    }

    #[test]
    fn symmetrized_weights_mirror() {
        let g = GraphBuilder::new(2)
            .weighted_edges([(0, 1, 3.0)])
            .symmetrize(true)
            .build();
        assert_eq!(g.weights_of(1), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = GraphBuilder::new(2).edges([(0, 5)]).build();
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_weighted_and_unweighted_panics() {
        let _ = GraphBuilder::new(3)
            .edges([(0, 1)])
            .weighted_edges([(1, 2, 1.0)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 5);
    }

    /// The range check runs over the edge list alone: nothing sized by the
    /// vertex count (24 GB of offsets here) is allocated or walked first.
    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics_before_sizing_anything_by_n() {
        let _ = GraphBuilder::new(3_000_000_000)
            .edges([(0, 1), (7, 3_500_000_000)])
            .build();
    }

    #[test]
    fn edges_into_an_empty_builder_takes_the_vec() {
        let edges = vec![(0u32, 1u32); 1000];
        let buffer = edges.as_ptr();
        let b = GraphBuilder::new(2).edges(edges);
        assert_eq!(b.edges.as_ptr(), buffer, "edge list was copied");
        // Appending to a non-empty builder still extends.
        assert_eq!(b.edges([(1, 0)]).build().num_edges(), 1001);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

        /// The counting sort returns the very `Csr` the comparison sort
        /// did, for every option combination and any number of row-sort
        /// workers, on edge lists with heavy duplicates, self loops and
        /// isolated vertices.
        #[test]
        fn counting_sort_matches_the_reference_build(
            shape in (0usize..4, 0usize..5_000),
            seed in any::<u64>(),
        ) {
            let n = [1usize, 2, 17, 1000][shape.0];
            let mut rng = SmallRng::seed_from_u64(seed);
            // Endpoints from a small hot set (duplicates, self loops) or
            // the lower half of the range (the upper half stays isolated).
            let hot = n.min(4) as u32;
            let half = n.div_ceil(2) as u32;
            let endpoint = |rng: &mut SmallRng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..half)
                }
            };
            let edges: Vec<(u32, u32)> = (0..shape.1)
                .map(|_| (endpoint(&mut rng), endpoint(&mut rng)))
                .collect();
            for options in 0..16u32 {
                let configure = |b: GraphBuilder| {
                    b.symmetrize(options & 1 != 0)
                        .deduplicate(options & 2 != 0)
                        .self_loops(if options & 4 != 0 {
                            SelfLoops::Keep
                        } else {
                            SelfLoops::Remove
                        })
                };
                let b = if options & 8 != 0 {
                    // Distinct weights, so a duplicate edge that lost its
                    // place shows.
                    let weighted = edges
                        .iter()
                        .enumerate()
                        .map(|(i, &(u, v))| (u, v, i as f32));
                    configure(GraphBuilder::new(n).weighted_edges(weighted))
                } else {
                    configure(GraphBuilder::new(n).edges(edges.clone()))
                };
                let reference = b.clone().reference_build();
                for workers in [1, 2, 3, 8] {
                    prop_assert_eq!(
                        b.clone().build_on(workers),
                        reference,
                        "options {:#06b} on {} workers",
                        options,
                        workers
                    );
                }
            }
        }
    }
}
