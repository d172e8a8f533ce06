//! Triangle counting (sorted-adjacency intersection).
//!
//! For every edge `(u, v)` with `u < v`, counts common neighbours greater
//! than `v` by merge-intersecting the two sorted adjacency lists. The
//! intersection re-reads high-degree vertices' adjacency lists over and
//! over — the most read-reuse-heavy kernel in the suite, and the one where
//! placing hub adjacency lists on the fast tier pays off most per byte.

use atmem::{Atmem, Result};

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;

/// Triangle-counting kernel state.
#[derive(Debug)]
pub struct Triangles {
    graph: HmsGraph,
    count: u64,
}

impl Triangles {
    /// Builds the kernel over a loaded graph. For meaningful counts the
    /// graph should be undirected (symmetrised); the kernel orients edges
    /// internally.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for symmetry with the other
    /// kernels (future property arrays).
    pub fn new(_rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        Ok(Triangles { graph, count: 0 })
    }

    /// Triangles found by the last iteration.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Kernel for Triangles {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn reset(&mut self, _rt: &mut Atmem) {
        self.count = 0;
    }

    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        // Read-only kernel: every phase access is a read, so any partition
        // satisfies the contract. Anchor vertices split into contiguous
        // edge-balanced ranges, each core intersecting its own anchors;
        // per-core u64 counts sum in core order (integer addition is
        // associative, so the count is bit-identical for any core count).
        // One core is the degenerate partition: the whole range on the
        // machine's resident core.
        let cores = ctx.par_cores();
        let cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let graph = &self.graph;
        let counts: Vec<u64> =
            ctx.run_cores(|c, mut ctx| count_range(graph, &mut ctx, cuts[c], cuts[c + 1]));
        self.count = counts.iter().sum();
    }

    fn checksum(&self, _rt: &mut Atmem) -> f64 {
        self.count as f64
    }
}

/// Counts triangles anchored at vertices `lo..hi`: one partition range per
/// core.
fn count_range<M: atmem_hms::MemPort>(
    graph: &HmsGraph,
    ctx: &mut MemCtx<'_, M>,
    lo: usize,
    hi: usize,
) -> u64 {
    let mut triangles = 0u64;
    let mut adj_u: Vec<u32> = Vec::new();
    for u in lo..hi {
        let (us, ue) = graph.edge_bounds(ctx, u);
        // One sequential pass enumerates u's edges; the merge loops
        // below deliberately keep their per-element re-reads (the
        // read-reuse the kernel exists to exercise).
        adj_u.resize((ue - us) as usize, 0);
        graph.neighbor_run(ctx, us, &mut adj_u);
        for &v32 in &adj_u {
            let v = v32 as usize;
            if v <= u {
                continue; // orient: count each edge once
            }
            // Merge-intersect adj(u) and adj(v), counting w > v.
            let (vs, ve) = graph.edge_bounds(ctx, v);
            let mut i = us;
            let mut j = vs;
            while i < ue && j < ve {
                let a = graph.neighbor(ctx, i);
                let b = graph.neighbor(ctx, j);
                if (a as usize) <= v {
                    i += 1;
                } else if a == b {
                    triangles += 1;
                    i += 1;
                    j += 1;
                } else if a < b {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    triangles
}

/// Host-side reference count for validation (same orientation rule).
pub fn reference_triangles(csr: &atmem_graph::Csr) -> u64 {
    let n = csr.num_vertices();
    let mut count = 0u64;
    for u in 0..n {
        for &v in csr.neighbors_of(u) {
            let v = v as usize;
            if v <= u {
                continue;
            }
            let (mut i, mut j) = (0, 0);
            let a = csr.neighbors_of(u);
            let b = csr.neighbors_of(v);
            while i < a.len() && j < b.len() {
                if (a[i] as usize) <= v {
                    i += 1;
                } else if a[i] == b[j] {
                    count += 1;
                    i += 1;
                    j += 1;
                } else if a[i] < b[j] {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem::AtmemConfig;
    use atmem_graph::{Dataset, GraphBuilder};
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn counts_one_triangle() {
        // Undirected triangle 0-1-2 plus a dangling edge 2-3.
        let csr = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 2), (2, 3)])
            .symmetrize(true)
            .deduplicate(true)
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut tc = Triangles::new(&mut rt, g).unwrap();
        tc.reset(&mut rt);
        tc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(tc.count(), 1);
        assert_eq!(reference_triangles(&csr), 1);
    }

    #[test]
    fn complete_graph_count() {
        // K5 has C(5,3) = 10 triangles.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let csr = GraphBuilder::new(5).edges(edges).deduplicate(true).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut tc = Triangles::new(&mut rt, g).unwrap();
        tc.reset(&mut rt);
        tc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(tc.count(), 10);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let mut config = Dataset::Pokec.config();
        config.scale = 8;
        config.symmetrize = true;
        let csr = atmem_graph::rmat(&config, 3);
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut tc = Triangles::new(&mut rt, g).unwrap();
        tc.reset(&mut rt);
        tc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(tc.count(), reference_triangles(&csr));
        assert!(
            tc.count() > 0,
            "R-MAT at this density should close triangles"
        );
    }
}
