//! CSR graph resident in simulated heterogeneous memory.
//!
//! [`HmsGraph`] registers the three CSR arrays as ATMem data objects
//! (`atmem_malloc`), so the profiler sees accesses to them and the
//! optimizer can migrate their hot regions. Neighbour arrays of skewed
//! graphs are exactly the "massive data structures with skewed access
//! patterns" the paper targets.

use std::ops::Range;

use atmem::{Atmem, Result};
use atmem_graph::Csr;
use atmem_hms::{MemPort, TrackedVec};

use crate::access::MemCtx;
use crate::par;

/// Edges per chunk in which SpMV, PageRank and CC read an edge array back
/// from tier storage: the bound on their edge-indexed host buffers.
pub(crate) const EDGE_CHUNK: usize = 1 << 14;

/// `edges` cut into consecutive chunks of at most [`EDGE_CHUNK`] edges.
pub(crate) fn edge_chunks(edges: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = edges.end;
    edges
        .step_by(EDGE_CHUNK)
        .map(move |s| s..(s + EDGE_CHUNK).min(end))
}

/// A CSR graph whose arrays live in simulated memory.
#[derive(Debug)]
pub struct HmsGraph {
    num_vertices: usize,
    num_edges: usize,
    offsets: TrackedVec<u64>,
    /// Neighbour ids; SpMV, PageRank and CC stream it in [`EDGE_CHUNK`]s
    /// ([`MemCtx::charge_run`], then [`TrackedVec::peek_run`]).
    pub(crate) neighbors: TrackedVec<u32>,
    /// Edge weights, if loaded (streamed like `neighbors` by SpMV).
    pub(crate) weights: Option<TrackedVec<f32>>,
}

impl HmsGraph {
    /// Loads `csr` into simulated memory through the runtime, registering
    /// each array as a data object (`offsets`, `neighbors`, `weights`).
    ///
    /// Bulk initialisation is unaccounted (it happens before the measured
    /// region in every experiment).
    ///
    /// # Errors
    ///
    /// Allocation failures from the memory system.
    pub fn load(rt: &mut Atmem, csr: &Csr) -> Result<Self> {
        let offsets = rt.malloc::<u64>(csr.offsets().len(), "csr.offsets")?;
        offsets.fill_from(rt.machine_mut(), csr.offsets());
        let neighbors = rt.malloc::<u32>(csr.num_edges().max(1), "csr.neighbors")?;
        if csr.num_edges() > 0 {
            neighbors.fill_from(rt.machine_mut(), csr.neighbors());
        }
        let weights = match csr.weights() {
            Some(ws) => {
                let w = rt.malloc::<f32>(ws.len().max(1), "csr.weights")?;
                if !ws.is_empty() {
                    w.fill_from(rt.machine_mut(), ws);
                }
                Some(w)
            }
            None => None,
        };
        Ok(HmsGraph {
            num_vertices: csr.num_vertices(),
            num_edges: csr.num_edges(),
            offsets,
            neighbors,
            weights,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether edge weights are resident.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Accounted read of the edge-range bounds of vertex `v`.
    #[inline]
    pub fn edge_bounds<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, v: usize) -> (u64, u64) {
        (ctx.get(&self.offsets, v), ctx.get(&self.offsets, v + 1))
    }

    /// Accounted sequential read of `out.len()` row bounds starting at
    /// vertex `start` (sharded kernels stream just their partition's
    /// slice; a core covering `lo..hi` reads `hi - lo + 1` bounds).
    pub fn bounds_run<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, start: usize, out: &mut [u64]) {
        ctx.read_run(&self.offsets, start, out);
    }

    /// The edge-balanced split of the vertex range over `cores`
    /// ([`par::edge_cuts`]), binary-searched over unaccounted peeks of the
    /// row bounds: no simulated effect and no host copy of the offsets.
    /// Partitioning metadata for the kernels: the split points must be
    /// known *before* the cores fork, and the cores then re-read their own
    /// slices through the accounted path
    /// ([`bounds_run`](HmsGraph::bounds_run)).
    pub(crate) fn edge_cuts(&self, machine: &mut impl MemPort, cores: usize) -> Vec<usize> {
        par::edge_cuts(self.num_vertices, |i| self.offsets.peek(machine, i), cores)
    }

    /// Accounted sequential read of `buf.len()` neighbour ids starting at
    /// edge `start`.
    pub fn neighbor_run<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, start: u64, buf: &mut [u32]) {
        ctx.read_run(&self.neighbors, start as usize, buf);
    }

    /// Accounted sequential read of `buf.len()` edge weights starting at
    /// edge `start`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted.
    pub fn weight_run<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, start: u64, buf: &mut [f32]) {
        let w = self.weights.as_ref().expect("graph loaded without weights");
        ctx.read_run(w, start as usize, buf);
    }
}

/// A graph of `n` vertices with `degree` distinct out-neighbours each, no
/// self loops: `n * degree` edges spread over every vertex, for the tests
/// that need many chunks of edges on a small vertex set.
#[cfg(test)]
pub(crate) fn dense_graph(n: u32, degree: u32) -> Csr {
    assert!(degree * 10 < n, "neighbours would repeat");
    atmem_graph::GraphBuilder::new(n as usize)
        .edges((0..n).flat_map(|v| (0..degree).map(move |j| (v, (v + 1 + 10 * j) % n))))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem::AtmemConfig;
    use atmem_graph::GraphBuilder;
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn load_round_trips_structure() {
        let csr = GraphBuilder::new(4).edges([(0, 1), (0, 2), (2, 3)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_weighted());
        let mut ctx = MemCtx::bulk(rt.machine_mut());
        let (s, e) = g.edge_bounds(&mut ctx, 0);
        assert_eq!((s, e), (0, 2));
        let mut nbrs = [0u32; 3];
        g.neighbor_run(&mut ctx, 0, &mut nbrs);
        assert_eq!(nbrs, [1, 2, 3]);
    }

    #[test]
    fn weighted_load_reads_weights() {
        let csr = GraphBuilder::new(3)
            .weighted_edges([(0, 1, 1.5), (1, 2, 2.5)])
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert!(g.is_weighted());
        let mut ws = [0f32; 2];
        g.weight_run(&mut MemCtx::bulk(rt.machine_mut()), 0, &mut ws);
        assert_eq!(ws, [1.5, 2.5]);
    }

    #[test]
    fn arrays_are_registered_with_the_runtime() {
        let csr = GraphBuilder::new(3).edges([(0, 1)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert_eq!(rt.registry().len(), 2); // offsets + neighbors
        let footprint = g.offsets.range().len + g.neighbors.range().len;
        assert_eq!(rt.registry().total_bytes(), footprint);
    }

    #[test]
    fn empty_graph_loads() {
        let csr = GraphBuilder::new(2).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert_eq!(g.num_edges(), 0);
        let (s, e) = g.edge_bounds(&mut MemCtx::bulk(rt.machine_mut()), 0);
        assert_eq!((s, e), (0, 0));
    }
}
