//! Compressed sparse row (CSR) graph representation.

use std::fmt;
use std::sync::Arc;

/// A directed graph in CSR form, optionally edge-weighted.
///
/// The arrays are shared: [`Clone`] copies pointers, a weighted twin
/// ([`with_random_weights`](Csr::with_random_weights)) shares the structure,
/// and [`shared_offsets`](Csr::shared_offsets),
/// [`shared_neighbors`](Csr::shared_neighbors) and
/// [`shared_weights`](Csr::shared_weights) lend the `Arc`s out, so a
/// simulated-memory copy of the graph can hold the arrays themselves
/// (`HmsGraph::load` in `atmem-apps` does).
///
/// Invariants (checked by [`Csr::validate`] and maintained by
/// [`GraphBuilder`](crate::builder::GraphBuilder)):
///
/// * `offsets.len() == num_vertices + 1`, `offsets[0] == 0`,
///   and `offsets` is non-decreasing;
/// * `neighbors.len() == offsets[num_vertices]`;
/// * every neighbour id is `< num_vertices`;
/// * `weights`, when present, has the same length as `neighbors`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    num_vertices: usize,
    offsets: Arc<Vec<u64>>,
    neighbors: Arc<Vec<u32>>,
    weights: Option<Arc<Vec<f32>>>,
}

impl Csr {
    /// Assembles a CSR from raw parts, validating the invariants.
    ///
    /// # Panics
    ///
    /// Panics if any invariant listed on [`Csr`] is violated.
    pub fn from_parts(
        num_vertices: usize,
        offsets: Vec<u64>,
        neighbors: Vec<u32>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        // `Arc::new` moves each `Vec` in; `Arc<[T]>::from` would copy it.
        let csr = Csr {
            num_vertices,
            offsets: Arc::new(offsets),
            neighbors: Arc::new(neighbors),
            weights: weights.map(Arc::new),
        };
        csr.validate();
        csr
    }

    /// Checks all representation invariants.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated invariant.
    pub fn validate(&self) {
        assert_eq!(
            self.offsets.len(),
            self.num_vertices + 1,
            "offsets length must be num_vertices + 1"
        );
        assert_eq!(self.offsets[0], 0, "offsets must start at zero");
        assert!(
            self.offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert_eq!(
            *self.offsets.last().expect("offsets is non-empty") as usize,
            self.neighbors.len(),
            "final offset must equal edge count"
        );
        assert!(
            self.neighbors
                .iter()
                .all(|&v| (v as usize) < self.num_vertices),
            "neighbour ids must be < num_vertices"
        );
        if let Some(w) = &self.weights {
            assert_eq!(w.len(), self.neighbors.len(), "one weight per edge");
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The offsets array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat neighbour array.
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// The edge weights, if present.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// The offsets array's `Arc`, to share it.
    pub fn shared_offsets(&self) -> &Arc<Vec<u64>> {
        &self.offsets
    }

    /// The neighbour array's `Arc`, to share it.
    pub fn shared_neighbors(&self) -> &Arc<Vec<u32>> {
        &self.neighbors
    }

    /// The weights array's `Arc`, if present, to share it.
    pub fn shared_weights(&self) -> Option<&Arc<Vec<f32>>> {
        self.weights.as_ref()
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbours of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn neighbors_of(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Weights of the edges out of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted or `v >= num_vertices`.
    pub fn weights_of(&self, v: usize) -> &[f32] {
        let w = self.weights.as_ref().expect("graph is unweighted");
        &w[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates `(src, dst)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices)
            .flat_map(move |v| self.neighbors_of(v).iter().map(move |&u| (v as u32, u)))
    }

    /// Attaches uniform-random weights in `[1.0, max_weight)`, replacing any
    /// existing weights. Deterministic for a fixed `seed`.
    #[must_use]
    pub fn with_random_weights(mut self, max_weight: f32, seed: u64) -> Self {
        use atmem_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        self.weights = Some(Arc::new(
            (0..self.neighbors.len())
                .map(|_| rng.gen_range(1.0..max_weight.max(1.0 + f32::EPSILON)))
                .collect(),
        ));
        self
    }

    /// Total bytes this graph occupies once loaded into simulated memory as
    /// offsets (`u64`) + neighbours (`u32`) + optional weights (`f32`).
    pub fn simulated_footprint(&self) -> usize {
        self.offsets.len() * 8
            + self.neighbors.len() * 4
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Csr({} vertices, {} edges{})",
            self.num_vertices,
            self.num_edges(),
            if self.is_weighted() { ", weighted" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_parts(4, vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3], None)
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors_of(0), &[1, 2]);
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    #[should_panic(expected = "neighbour ids")]
    fn out_of_range_neighbor_rejected() {
        let _ = Csr::from_parts(2, vec![0, 1, 1], vec![5], None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_offsets_rejected() {
        let _ = Csr::from_parts(2, vec![0, 2, 1], vec![0, 1], None);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn weight_length_mismatch_rejected() {
        let _ = Csr::from_parts(2, vec![0, 1, 2], vec![1, 0], Some(vec![1.0]));
    }

    #[test]
    fn random_weights_are_deterministic_and_in_range() {
        let a = diamond().with_random_weights(10.0, 7);
        let b = diamond().with_random_weights(10.0, 7);
        assert_eq!(a.weights(), b.weights());
        assert!(a
            .weights()
            .unwrap()
            .iter()
            .all(|&w| (1.0..10.0).contains(&w)));
        assert_eq!(a.weights_of(0).len(), 2);
    }

    #[test]
    fn a_weighted_twin_shares_the_structure() {
        let g = diamond();
        let w = g.clone().with_random_weights(10.0, 7);
        assert_eq!(g.offsets().as_ptr(), w.offsets().as_ptr());
        assert_eq!(g.neighbors().as_ptr(), w.neighbors().as_ptr());
        assert!(w.is_weighted() && !g.is_weighted());
        assert_eq!(
            (w.num_vertices(), w.offsets(), w.neighbors()),
            (g.num_vertices(), g.offsets(), g.neighbors())
        );
        assert_eq!(w, diamond().with_random_weights(10.0, 7));
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let g = diamond();
        assert_eq!(g.simulated_footprint(), 5 * 8 + 4 * 4);
        let w = g.with_random_weights(2.0, 0);
        assert_eq!(w.simulated_footprint(), 5 * 8 + 4 * 4 + 4 * 4);
    }

    #[test]
    fn display_mentions_sizes() {
        assert_eq!(diamond().to_string(), "Csr(4 vertices, 4 edges)");
    }
}
