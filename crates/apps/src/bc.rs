//! Betweenness centrality (Brandes' algorithm, one source per iteration).
//!
//! Each iteration runs a forward BFS from the source computing shortest-
//! path counts (`sigma`) and depths, then a backward sweep over the
//! traversal order accumulating dependencies (`delta`) into the centrality
//! scores. Both sweeps stream the CSR and scatter into per-vertex arrays —
//! the heaviest of the five kernels.

use atmem::{Atmem, Result};
use atmem_hms::{merge_owner_queues, MemPort, OwnerQueues, TrackedVec};

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// BC kernel state.
#[derive(Debug)]
pub struct Bc {
    graph: HmsGraph,
    source: u32,
    sigma: TrackedVec<f64>,
    depth: TrackedVec<i32>,
    delta: TrackedVec<f64>,
    bc: TrackedVec<f64>,
}

impl Bc {
    /// Allocates BC state over `graph`.
    ///
    /// # Errors
    ///
    /// Allocation failures for the four property arrays.
    pub fn new(rt: &mut Atmem, graph: HmsGraph, source: u32) -> Result<Self> {
        let n = graph.num_vertices();
        let sigma = rt.malloc::<f64>(n, "bc.sigma")?;
        let depth = rt.malloc::<i32>(n, "bc.depth")?;
        let delta = rt.malloc::<f64>(n, "bc.delta")?;
        let bc = rt.malloc::<f64>(n, "bc.scores")?;
        Ok(Bc {
            graph,
            source,
            sigma,
            depth,
            delta,
            bc,
        })
    }

    /// Copies the centrality scores out of simulated memory (unaccounted).
    pub fn scores(&self, rt: &mut Atmem) -> Vec<f64> {
        self.bc.to_vec(rt.machine_mut())
    }

    /// The backward step for vertex `v`, on one core or on a core's slab
    /// slice alike: gathers the neighbours' depths in one window, filters
    /// the children (depth == dv + 1), gathers their sigma and delta
    /// windows, accumulates host-side in window order, and writes
    /// `delta[v]` and — but for the source — `bc[v]`.
    fn backward<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, v: usize, bufs: &mut BackwardBufs) {
        let BackwardBufs {
            nbrs,
            dbuf,
            matched,
            sbuf,
            delbuf,
        } = bufs;
        let dv = ctx.get(&self.depth, v);
        let sv = ctx.get(&self.sigma, v);
        let (start, end) = self.graph.edge_bounds(ctx, v);
        nbrs.resize((end - start) as usize, 0);
        self.graph.neighbor_run(ctx, start, nbrs);
        let mut acc = ctx.get(&self.delta, v);
        dbuf.resize(nbrs.len(), 0);
        ctx.gather(&self.depth, nbrs, dbuf);
        matched.clear();
        matched.extend(
            nbrs.iter()
                .zip(dbuf.iter())
                .filter(|&(_, &d)| d == dv + 1)
                .map(|(&u, _)| u),
        );
        sbuf.resize(matched.len(), 0.0);
        ctx.gather(&self.sigma, matched, sbuf);
        delbuf.resize(matched.len(), 0.0);
        ctx.gather(&self.delta, matched, delbuf);
        for (&su, &du) in sbuf.iter().zip(delbuf.iter()) {
            if su > 0.0 {
                acc += sv / su * (1.0 + du);
            }
        }
        ctx.set(&self.delta, v, acc);
        if v != self.source as usize {
            ctx.update(&self.bc, v, |b| b + acc);
        }
    }

    /// One Brandes source partitioned over `ctx.par_cores()` simulated
    /// cores.
    ///
    /// **Forward** levels shard like BFS with a payload: each core expands
    /// its slice of the sorted frontier and routes `(u, sigma[v])`
    /// contributions to the core owning `depth[u]`/`sigma[u]`; the owner
    /// replays its merged queue single-writer — first touch stamps the
    /// depth and seeds sigma, later hits accumulate. Path counts are
    /// integers carried in f64, so the accumulation is exact and the final
    /// sigma is independent of fold order — bit-identical to scalar.
    ///
    /// **Backward**, the scalar reverse-order sweep becomes one phase per
    /// depth level, deepest first (the per-level frontiers recorded on the
    /// way down are exactly the depth-aligned slabs of `order`). All
    /// cross-vertex dependencies go through `delta` of *strictly deeper*
    /// vertices — finalized a phase earlier — and every slab vertex is
    /// visited exactly once, so each core can sweep a contiguous slab
    /// slice with the one per-vertex body (`backward`), writing only its own
    /// `delta[v]`/`bc[v]` entries. Each vertex folds its children in edge
    /// order either way, so the scores are bit-identical to scalar too.
    fn run_iteration_sharded(&mut self, ctx: &mut MemCtx) {
        let n = self.graph.num_vertices();
        let cores = ctx.par_cores();
        let cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let fill_cuts = par::even_cuts(n, cores);
        let graph = &self.graph;
        let sigma = &self.sigma;
        let depth = &self.depth;
        let delta = &self.delta;
        let src = self.source as usize;

        // Accounted re-init, partitioned, with the source seeded by its
        // owner (same totals as the scalar body's three fills).
        ctx.run_cores(|c, mut cctx| {
            let (lo, hi) = (fill_cuts[c], fill_cuts[c + 1]);
            cctx.write_run(sigma, lo, &vec![0.0f64; hi - lo]);
            cctx.write_run(depth, lo, &vec![-1i32; hi - lo]);
            cctx.write_run(delta, lo, &vec![0.0f64; hi - lo]);
            if (lo..hi).contains(&src) {
                cctx.set(sigma, src, 1.0);
                cctx.set(depth, src, 0);
            }
        });

        // Forward: record the sorted frontier of every level (the
        // depth-aligned slabs the backward sweep partitions over).
        let mut levels: Vec<Vec<u32>> = Vec::new();
        let mut frontier = vec![self.source];
        let mut level = 0i32;
        while !frontier.is_empty() {
            level += 1;
            let slices = par::frontier_cuts(&cuts, &frontier);
            let cur = &frontier;
            let per_core = ctx.run_cores(|c, mut cctx| {
                let mut queues = OwnerQueues::new(cores);
                let mut nbrs: Vec<u32> = Vec::new();
                let mut dbuf: Vec<i32> = Vec::new();
                for &v in &cur[slices[c]..slices[c + 1]] {
                    let sv = cctx.get(sigma, v as usize);
                    let (start, end) = graph.edge_bounds(&mut cctx, v as usize);
                    nbrs.resize((end - start) as usize, 0);
                    graph.neighbor_run(&mut cctx, start, &mut nbrs);
                    dbuf.resize(nbrs.len(), 0);
                    cctx.gather(depth, &nbrs, &mut dbuf);
                    for (&u, &du) in nbrs.iter().zip(&dbuf) {
                        if du < 0 {
                            queues.push(par::owner(&cuts, u as usize), (u, sv));
                        }
                    }
                }
                queues
            });
            let routed = merge_owner_queues(per_core);
            let routed = &routed;
            let discovered = ctx.run_cores(|c, mut cctx| {
                let mut new: Vec<u32> = Vec::new();
                for &(u, sv) in &routed[c] {
                    let u = u as usize;
                    if cctx.get(depth, u) < 0 {
                        cctx.set(depth, u, level);
                        cctx.set(sigma, u, sv);
                        new.push(u as u32);
                    } else {
                        cctx.update(sigma, u, |x| x + sv);
                    }
                }
                new.sort_unstable();
                new
            });
            levels.push(std::mem::take(&mut frontier));
            frontier = discovered.concat();
        }

        // Backward: one phase per slab, deepest first; cores sweep
        // contiguous slab slices with the one per-vertex body.
        let this = &*self;
        for slab in levels.iter().rev() {
            let slab_cuts = par::even_cuts(slab.len(), cores);
            ctx.run_cores(|c, mut cctx| {
                let mut bufs = BackwardBufs::default();
                for &v in &slab[slab_cuts[c]..slab_cuts[c + 1]] {
                    this.backward(&mut cctx, v as usize, &mut bufs);
                }
            });
        }
    }
}

/// The backward step's host buffers, reused from vertex to vertex.
#[derive(Debug, Default)]
struct BackwardBufs {
    nbrs: Vec<u32>,
    dbuf: Vec<i32>,
    matched: Vec<u32>,
    sbuf: Vec<f64>,
    delbuf: Vec<f64>,
}

impl Kernel for Bc {
    fn name(&self) -> &'static str {
        "BC"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let m = rt.machine_mut();
        self.sigma.fill(m, 0.0);
        self.depth.fill(m, -1);
        self.delta.fill(m, 0.0);
        self.bc.fill(m, 0.0);
    }

    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        if ctx.par_cores() > 1 {
            self.run_iteration_sharded(ctx);
            return;
        }
        let n = self.graph.num_vertices();
        // Per-iteration re-init through the accounted path (the arrays are
        // rewritten every source on real runs too): three sequential fills.
        ctx.write_run(&self.sigma, 0, &vec![0.0f64; n]);
        ctx.write_run(&self.depth, 0, &vec![-1i32; n]);
        ctx.write_run(&self.delta, 0, &vec![0.0f64; n]);
        // Forward phase. Depth checks gate every write, so the sweep is
        // data-dependent and stays per-element.
        let s = self.source as usize;
        ctx.set(&self.sigma, s, 1.0);
        ctx.set(&self.depth, s, 0);
        let mut order: Vec<u32> = Vec::new();
        let mut frontier = vec![self.source];
        let mut level = 0i32;
        let mut nbrs: Vec<u32> = Vec::new();
        while !frontier.is_empty() {
            order.extend_from_slice(&frontier);
            level += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                let sv = ctx.get(&self.sigma, v as usize);
                let (start, end) = self.graph.edge_bounds(ctx, v as usize);
                nbrs.resize((end - start) as usize, 0);
                self.graph.neighbor_run(ctx, start, &mut nbrs);
                for &u in &nbrs {
                    let u = u as usize;
                    let du = ctx.get(&self.depth, u);
                    if du < 0 {
                        ctx.set(&self.depth, u, level);
                        next.push(u as u32);
                        ctx.set(&self.sigma, u, sv);
                    } else if du == level {
                        let su = ctx.get(&self.sigma, u);
                        ctx.set(&self.sigma, u, su + sv);
                    }
                }
            }
            frontier = next;
        }
        // Backward phase: accumulate dependencies in reverse BFS order.
        let mut bufs = BackwardBufs::default();
        for &v in order.iter().rev() {
            self.backward(ctx, v as usize, &mut bufs);
        }
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        self.bc.values(rt.machine_mut()).sum()
    }
}

/// Host-side reference Brandes (single source) for validation.
pub fn reference_bc(csr: &atmem_graph::Csr, source: u32) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut sigma = vec![0.0f64; n];
    let mut depth = vec![-1i32; n];
    let mut delta = vec![0.0f64; n];
    let mut bc = vec![0.0f64; n];
    sigma[source as usize] = 1.0;
    depth[source as usize] = 0;
    let mut order: Vec<u32> = Vec::new();
    let mut frontier = vec![source];
    let mut level = 0;
    while !frontier.is_empty() {
        order.extend_from_slice(&frontier);
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in csr.neighbors_of(v as usize) {
                let u = u as usize;
                if depth[u] < 0 {
                    depth[u] = level;
                    next.push(u as u32);
                    sigma[u] += sigma[v as usize];
                } else if depth[u] == level {
                    sigma[u] += sigma[v as usize];
                }
            }
        }
        frontier = next;
    }
    for &v in order.iter().rev() {
        let v = v as usize;
        for &u in csr.neighbors_of(v) {
            let u = u as usize;
            if depth[u] == depth[v] + 1 && sigma[u] > 0.0 {
                delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u]);
            }
        }
        if v != source as usize {
            bc[v] += delta[v];
        }
    }
    bc
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
    fn path_graph_centrality() {
        // 0 -> 1 -> 2 -> 3: vertex 1 lies on paths 0->2, 0->3; vertex 2 on
        // 0->3, 1->3 (only source-0 paths count in single-source BC).
        let csr = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bc = Bc::new(&mut rt, g, 0).unwrap();
        bc.reset(&mut rt);
        bc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bc.scores(&mut rt), reference_bc(&csr, 0));
        assert_eq!(bc.scores(&mut rt), vec![0.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let csr = Dataset::Rmat24.build_small(7); // 1024 vertices
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bc = Bc::new(&mut rt, g, 0).unwrap();
        bc.reset(&mut rt);
        bc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let got = bc.scores(&mut rt);
        let expect = reference_bc(&csr, 0);
        for (v, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn repeated_iterations_accumulate() {
        let csr = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bc = Bc::new(&mut rt, g, 0).unwrap();
        bc.reset(&mut rt);
        bc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let once = bc.checksum(&mut rt);
        bc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert!((bc.checksum(&mut rt) - 2.0 * once).abs() < 1e-9);
    }
}
