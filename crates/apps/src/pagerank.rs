//! PageRank (push-style power iteration).
//!
//! Each iteration pushes `rank(v) / deg(v)` along every out-edge into a
//! `next` accumulator, then applies the damping step. The scattered writes
//! into `next` indexed by neighbour id are the classic skewed access
//! pattern of PageRank on power-law graphs: high-degree vertices'
//! accumulator entries become the hot region.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::{edge_chunks, HmsGraph};
use crate::kernel::Kernel;
use crate::par;

/// Damping factor (the classic 0.85).
pub(crate) const DAMPING: f64 = 0.85;

/// One source core's phase-A staging, reused across iterations: the row
/// bounds of its vertex range and each vertex's share, `rank / degree`.
#[derive(Debug, Default)]
struct Source {
    bounds: Vec<u64>,
    shares: Vec<f64>,
}

/// One destination core's phase-B staging, reused across iterations: one
/// `EDGE_CHUNK` of neighbour ids, the contributions among them it owns, and
/// its damping sweep (`zeros` is only ever grown with zeros).
#[derive(Debug, Default)]
struct Sweep {
    nbrs: Vec<u32>,
    indices: Vec<u32>,
    shares: Vec<f64>,
    accs: Vec<f64>,
    zeros: Vec<f64>,
}

/// PageRank kernel state.
#[derive(Debug)]
pub struct PageRank {
    graph: HmsGraph,
    rank: TrackedVec<f64>,
    next: TrackedVec<f64>,
    iterations_run: usize,
    sources: Vec<Source>,
    sweep: Vec<Sweep>,
}

impl PageRank {
    /// Allocates PageRank state over `graph`.
    ///
    /// # Errors
    ///
    /// Allocation failures for the rank accumulators.
    pub fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        let n = graph.num_vertices();
        let rank = rt.malloc::<f64>(n, "pr.rank")?;
        let next = rt.malloc::<f64>(n, "pr.next")?;
        Ok(PageRank {
            graph,
            rank,
            next,
            iterations_run: 0,
            sources: Vec::new(),
            sweep: Vec::new(),
        })
    }

    /// Number of power iterations run since the last reset.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Copies the rank vector out of simulated memory (unaccounted).
    pub fn ranks(&self, rt: &mut Atmem) -> Vec<f64> {
        self.rank.to_vec(rt.machine_mut())
    }
}

impl Kernel for PageRank {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let n = self.graph.num_vertices() as f64;
        self.rank.fill(rt.machine_mut(), 1.0 / n);
        self.next.fill(rt.machine_mut(), 0.0);
        self.iterations_run = 0;
    }

    /// One power iteration partitioned over `ctx.par_cores()` simulated
    /// cores, in two `run_cores` phases.
    ///
    /// **Phase A** splits the *source* vertices into contiguous
    /// edge-balanced ranges: each core streams its row bounds, ranks and
    /// neighbour ids through its own accounted core and keeps each
    /// vertex's share, `rank / degree`. **Phase B** gives each core a
    /// contiguous slice of the accumulator: it reads every source range's
    /// neighbour ids back unaccounted, one `EDGE_CHUNK` at a time, keeps
    /// the edges landing in its slice and applies their shares as one
    /// scatter-update window per chunk — source ranges in core order, edges
    /// in edge order, so every accumulator entry folds in **global edge
    /// order** (f64 addition is non-associative; this ordering is what
    /// keeps the output bit-identical for any core count) — and finishes
    /// with the damping sweep over the same owned slice. One core is the
    /// degenerate partition: every edge is owned, and the windows are the
    /// whole edge list cut into consecutive chunks, which the window engine
    /// simulates exactly as one window.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let n = self.graph.num_vertices();
        let cores = ctx.par_cores();
        let src_cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let dst_cuts = par::even_cuts(n, cores);
        let (graph, rank, next) = (&self.graph, &self.rank, &self.next);

        // Phase A: partitioned streams, shares per source vertex.
        ctx.run_cores_with(&mut self.sources, |c, mut ctx, src| {
            let (lo, hi) = (src_cuts[c], src_cuts[c + 1]);
            if lo == hi {
                return;
            }
            let Source { bounds, shares } = src;
            bounds.resize(hi - lo + 1, 0);
            graph.bounds_run(&mut ctx, lo, bounds);
            shares.resize(hi - lo, 0.0);
            ctx.read_run(rank, lo, shares);
            for (share, b) in shares.iter_mut().zip(bounds.windows(2)) {
                if b[0] != b[1] {
                    *share /= (b[1] - b[0]) as f64;
                }
            }
            let edges = bounds[0] as usize..bounds[hi - lo] as usize;
            ctx.charge_run(&graph.neighbors, edges);
        });

        // Phase B: owned accumulation in global edge order, then damping.
        let base = (1.0 - DAMPING) / n as f64;
        let sources = &self.sources;
        ctx.run_cores_with(&mut self.sweep, |c, mut ctx, s| {
            let Sweep {
                nbrs,
                indices,
                shares,
                accs,
                zeros,
            } = s;
            let owned = dst_cuts[c]..dst_cuts[c + 1];
            for (src, range) in sources.iter().zip(src_cuts.windows(2)) {
                let len = range[1] - range[0];
                if len == 0 {
                    continue;
                }
                let bounds = &src.bounds;
                let mut v = 0;
                for chunk in edge_chunks(bounds[0] as usize..bounds[len] as usize) {
                    nbrs.resize(chunk.len(), 0);
                    graph.neighbors.peek_run(ctx.machine(), chunk.start, nbrs);
                    indices.clear();
                    shares.clear();
                    for (e, &u) in chunk.zip(nbrs.iter()) {
                        while bounds[v + 1] as usize <= e {
                            v += 1;
                        }
                        if owned.contains(&(u as usize)) {
                            indices.push(u);
                            shares.push(src.shares[v]);
                        }
                    }
                    ctx.gather_update(next, indices, |k, acc| acc + shares[k]);
                }
            }
            if owned.is_empty() {
                return;
            }
            accs.resize(owned.len(), 0.0);
            ctx.read_run(next, owned.start, accs);
            for acc in accs.iter_mut() {
                *acc = base + DAMPING * *acc;
            }
            ctx.write_run(rank, owned.start, accs);
            zeros.resize(owned.len(), 0.0);
            ctx.write_run(next, owned.start, zeros);
        });
        self.iterations_run += 1;
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        self.rank.values(rt.machine_mut()).sum()
    }
}

/// Host-side reference implementation of one push iteration for validation.
pub fn reference_pagerank(csr: &atmem_graph::Csr, iterations: usize) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..iterations {
        for (v, rank_v) in rank.iter().enumerate() {
            let nbrs = csr.neighbors_of(v);
            if nbrs.is_empty() {
                continue;
            }
            let share = rank_v / nbrs.len() as f64;
            for &u in nbrs {
                next[u as usize] += share;
            }
        }
        let base = (1.0 - DAMPING) / n as f64;
        for v in 0..n {
            rank[v] = base + DAMPING * next[v];
            next[v] = 0.0;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_data::EDGE_CHUNK;
    use atmem::AtmemConfig;
    use atmem_graph::{Dataset, GraphBuilder};
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn matches_reference_after_three_iterations() {
        let csr = Dataset::Pokec.build_small(7); // 256 vertices
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut pr = PageRank::new(&mut rt, g).unwrap();
        pr.reset(&mut rt);
        for _ in 0..3 {
            pr.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        }
        let expect = reference_pagerank(&csr, 3);
        for (got, want) in pr.ranks(&mut rt).iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert_eq!(pr.iterations_run(), 3);
    }

    #[test]
    fn rank_mass_stays_bounded() {
        let csr = GraphBuilder::new(3).edges([(0, 1), (1, 2), (2, 0)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut pr = PageRank::new(&mut rt, g).unwrap();
        pr.reset(&mut rt);
        for _ in 0..10 {
            pr.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        }
        // On a cycle (no dangling mass), total rank is conserved at 1.
        assert!((pr.checksum(&mut rt) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hub_accumulates_rank() {
        // Star pointing at vertex 0.
        let csr = GraphBuilder::new(5)
            .edges([(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)])
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut pr = PageRank::new(&mut rt, g).unwrap();
        pr.reset(&mut rt);
        for _ in 0..5 {
            pr.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        }
        let ranks = pr.ranks(&mut rt);
        assert!(ranks[0] > ranks[2] * 2.0, "hub rank {:?}", ranks);
    }

    /// No staging buffer grows with the edge count: on a graph of six
    /// chunks of edges, at one and two cores, every buffer stays within
    /// the vertex count or one chunk (and the ranks are the same).
    #[test]
    fn staging_is_bounded_by_vertices_or_one_chunk() {
        let csr = crate::graph_data::dense_graph(1024, 96);
        assert!(csr.num_edges() > 4 * EDGE_CHUNK);
        let bound = (csr.num_vertices() + 1).max(EDGE_CHUNK);
        let mut outputs = Vec::new();
        for cores in [1, 2] {
            let mut rt = runtime();
            let g = HmsGraph::load(&mut rt, &csr).unwrap();
            let mut pr = PageRank::new(&mut rt, g).unwrap();
            pr.reset(&mut rt);
            pr.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
            outputs.push(pr.ranks(&mut rt));
            let mut caps = Vec::new();
            for s in &pr.sources {
                caps.extend([s.bounds.capacity(), s.shares.capacity()]);
            }
            for s in &pr.sweep {
                caps.extend([
                    s.nbrs.capacity(),
                    s.indices.capacity(),
                    s.shares.capacity(),
                    s.accs.capacity(),
                    s.zeros.capacity(),
                ]);
            }
            assert!(caps.iter().all(|&c| c <= bound), "{cores} cores: {caps:?}");
        }
        assert_eq!(outputs[0], outputs[1]);
    }
}
