//! Breadth-first search.
//!
//! Frontier-driven BFS over the HMS-resident CSR. The distance array and
//! every CSR access go through the accounted path; the frontier queues are
//! small, sequentially-scanned host buffers (on the real testbeds they are
//! cache-resident and never candidates for placement).

use atmem::{Atmem, Result};

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;
use atmem_hms::TrackedVec;

/// Distance value for unreached vertices.
pub(crate) const UNREACHED: u32 = u32::MAX;

/// BFS kernel state.
#[derive(Debug)]
pub struct Bfs {
    graph: HmsGraph,
    source: u32,
    dist: TrackedVec<u32>,
    /// Vertices reached by the last iteration (for assertions/reporting).
    reached: usize,
}

impl Bfs {
    /// Allocates BFS state over `graph`.
    ///
    /// # Errors
    ///
    /// Allocation failures for the distance array.
    pub fn new(rt: &mut Atmem, graph: HmsGraph, source: u32) -> Result<Self> {
        let dist = rt.malloc::<u32>(graph.num_vertices(), "bfs.dist")?;
        Ok(Bfs {
            graph,
            source,
            dist,
            reached: 0,
        })
    }

    /// The graph being traversed.
    pub fn graph(&self) -> &HmsGraph {
        &self.graph
    }

    /// Vertices reached by the last completed iteration.
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// Copies the distance array out of simulated memory (unaccounted).
    pub fn distances(&self, rt: &mut Atmem) -> Vec<u32> {
        self.dist.to_vec(rt.machine_mut())
    }

    /// One full traversal partitioned over `ctx.par_cores()` simulated
    /// cores via deterministic level-synchronous frontier partitioning.
    ///
    /// The frontier is kept in **canonical ascending-vertex order**, so
    /// `par::frontier_cuts` hands each core a contiguous slice of it —
    /// core `c` owns the edge-balanced vertex range `cuts[c]..cuts[c+1]`.
    /// Each level runs two `run_cores` phases:
    ///
    /// * **Expand** (reads only): every core streams the adjacency runs of
    ///   its owned frontier slice, gathers the neighbour distances, and
    ///   routes each still-unreached neighbour into the per-owner queue of
    ///   the core owning its distance entry.
    /// * **Settle** (owner-only writes): the merged queues are replayed by
    ///   their owners in `(source core, emission)` order; first touch wins,
    ///   the owner scatters `level` into its discovered vertices and sorts
    ///   its list. Per-owner sorted lists concatenate — owner ranges are
    ///   contiguous and ascending — into the next globally-sorted frontier.
    ///
    /// The level a vertex is discovered at is independent of expansion
    /// order, and the canonical frontier order is a pure function of the
    /// discovered *set*, so distances (and the next frontier) are
    /// bit-identical for every core count and to the scalar body.
    fn run_iteration_sharded(&mut self, ctx: &mut MemCtx) {
        let n = self.graph.num_vertices();
        let cores = ctx.par_cores();
        let cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let fill_cuts = par::even_cuts(n, cores);
        let graph = &self.graph;
        let dist = &self.dist;
        let src = self.source as usize;

        // Accounted re-init, partitioned: each core rewrites its slice of
        // the distance array and the source's owner seeds it.
        ctx.run_cores(|c, mut cctx| {
            let (lo, hi) = (fill_cuts[c], fill_cuts[c + 1]);
            cctx.write_run(dist, lo, &vec![UNREACHED; hi - lo]);
            if (lo..hi).contains(&src) {
                cctx.set(dist, src, 0);
            }
        });

        // Per owner, whether each vertex of its range was discovered; as in
        // the one-core body, the flags need no clearing between levels.
        let mut touched: Vec<Vec<bool>> = (0..cores)
            .map(|c| vec![false; cuts[c + 1] - cuts[c]])
            .collect();
        let mut frontier = vec![self.source];
        let mut level = 0u32;
        let mut reached = 1usize;
        while !frontier.is_empty() {
            level += 1;
            let slices = par::frontier_cuts(&cuts, &frontier);
            let cur = &frontier;
            // Expand: owned frontier slices -> owner-routed candidates.
            let per_core = ctx.run_cores(|c, mut cctx| {
                let mut queues = vec![Vec::new(); cores];
                let mut nbrs: Vec<u32> = Vec::new();
                let mut dbuf: Vec<u32> = Vec::new();
                for &v in &cur[slices[c]..slices[c + 1]] {
                    let (start, end) = graph.edge_bounds(&mut cctx, v as usize);
                    nbrs.resize((end - start) as usize, 0);
                    graph.neighbor_run(&mut cctx, start, &mut nbrs);
                    dbuf.resize(nbrs.len(), 0);
                    cctx.gather(dist, &nbrs, &mut dbuf);
                    for (&u, &du) in nbrs.iter().zip(&dbuf) {
                        if du == UNREACHED {
                            queues[par::owner(&cuts, u as usize)].push(u);
                        }
                    }
                }
                queues
            });
            let routed = par::merge_owners(per_core);
            let routed = &routed;
            // Settle: owners dedup first-touch, write the level, and emit
            // their slice of the next frontier in canonical order.
            let discovered = ctx.run_cores_with(&mut touched, |c, mut cctx, seen| {
                let lo = cuts[c];
                let mut new: Vec<u32> = Vec::new();
                for &u in &routed[c] {
                    let flag = &mut seen[u as usize - lo];
                    if !*flag {
                        *flag = true;
                        new.push(u);
                    }
                }
                cctx.scatter(dist, &new, &vec![level; new.len()]);
                new.sort_unstable();
                new
            });
            frontier = discovered.concat();
            reached += frontier.len();
        }
        self.reached = reached;
    }
}

impl Kernel for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        self.dist.fill(rt.machine_mut(), UNREACHED);
        self.reached = 0;
    }

    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        if ctx.par_cores() > 1 {
            self.run_iteration_sharded(ctx);
            return;
        }
        // Per-iteration re-init through the accounted path (the same
        // policy as BC: every traversal kernel rewrites its state each
        // source, so repeat-iteration timings are comparable).
        let n = self.graph.num_vertices();
        ctx.write_run(&self.dist, 0, &vec![UNREACHED; n]);
        let mut frontier = vec![self.source];
        ctx.set(&self.dist, self.source as usize, 0);
        let mut level = 0u32;
        let mut reached = 1usize;
        let mut nbrs: Vec<u32> = Vec::new();
        let mut all_nbrs: Vec<u32> = Vec::new();
        let mut dbuf: Vec<u32> = Vec::new();
        // Whether a vertex was discovered. Once it has been, the gather
        // reads its level, never `UNREACHED` again, so the flag needs no
        // clearing between levels.
        let mut touched = vec![false; n];
        // Level-synchronous expansion (the scalar mirror of the sharded
        // expand/settle split): stream the level's adjacency runs, check
        // all candidate distances in one gather window, dedup first-touch
        // host-side in first-occurrence order, then write the level to the
        // discovered set in one scatter window. A vertex's discovery level
        // is independent of expansion order, so distances and the next
        // frontier are identical to the interleaved per-edge loop.
        while !frontier.is_empty() {
            level += 1;
            all_nbrs.clear();
            for &v in &frontier {
                let (start, end) = self.graph.edge_bounds(ctx, v as usize);
                nbrs.resize((end - start) as usize, 0);
                self.graph.neighbor_run(ctx, start, &mut nbrs);
                all_nbrs.extend_from_slice(&nbrs);
            }
            dbuf.resize(all_nbrs.len(), 0);
            ctx.gather(&self.dist, &all_nbrs, &mut dbuf);
            let mut next = Vec::new();
            for (&u, &du) in all_nbrs.iter().zip(&dbuf) {
                if du == UNREACHED && !touched[u as usize] {
                    touched[u as usize] = true;
                    next.push(u);
                }
            }
            ctx.scatter(&self.dist, &next, &vec![level; next.len()]);
            reached += next.len();
            frontier = next;
        }
        self.reached = reached;
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        let mut sum = 0.0;
        for d in self.dist.values(rt.machine_mut()) {
            if d != UNREACHED {
                sum += d as f64;
            }
        }
        sum
    }

    fn output(&self, rt: &mut Atmem) -> Vec<f64> {
        self.distances(rt).into_iter().map(f64::from).collect()
    }
}

/// Host-side reference BFS for validation.
pub fn reference_bfs(csr: &atmem_graph::Csr, source: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHED; csr.num_vertices()];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut level = 0;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in csr.neighbors_of(v as usize) {
                if dist[u as usize] == UNREACHED {
                    dist[u as usize] = level;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
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
    fn bfs_matches_reference_on_chain() {
        let csr = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bfs.distances(&mut rt), vec![0, 1, 2, 3]);
        assert_eq!(bfs.reached(), 4);
    }

    #[test]
    fn bfs_matches_reference_on_rmat() {
        let csr = Dataset::Pokec.build_small(6); // 512 vertices
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bfs.distances(&mut rt), reference_bfs(&csr, 0));
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        let csr = GraphBuilder::new(3).edges([(0, 1)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bfs.distances(&mut rt), vec![0, 1, UNREACHED]);
    }

    #[test]
    fn reset_makes_iterations_repeatable() {
        let csr = Dataset::Pokec.build_small(7);
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let first = bfs.checksum(&mut rt);
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bfs.checksum(&mut rt), first);
    }
}
