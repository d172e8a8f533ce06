//! Single-source shortest paths.
//!
//! Frontier-based Bellman-Ford over the weighted HMS-resident CSR: each
//! iteration relaxes outgoing edges of the active frontier until no
//! distance improves. Distances and all CSR arrays (including weights) go
//! through the accounted path.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::overlay::WindowOverlay;
use crate::par;

/// SSSP kernel state.
///
/// Edge weights must be non-negative and not NaN: a negative cycle keeps
/// improving a distance, so the frontier never empties and an iteration
/// never ends.
#[derive(Debug)]
pub struct Sssp {
    graph: HmsGraph,
    source: u32,
    dist: TrackedVec<f32>,
    relaxations: u64,
}

impl Sssp {
    /// Allocates SSSP state over a weighted `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph was loaded without weights.
    ///
    /// # Errors
    ///
    /// Allocation failures for the distance array.
    pub fn new(rt: &mut Atmem, graph: HmsGraph, source: u32) -> Result<Self> {
        assert!(graph.is_weighted(), "SSSP requires a weighted graph");
        let dist = rt.malloc::<f32>(graph.num_vertices(), "sssp.dist")?;
        Ok(Sssp {
            graph,
            source,
            dist,
            relaxations: 0,
        })
    }

    /// Edge relaxations performed by the last iteration.
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// Copies the distance array out of simulated memory (unaccounted).
    pub fn distances(&self, rt: &mut Atmem) -> Vec<f32> {
        self.dist.to_vec(rt.machine_mut())
    }

    /// Frontier-sharded Bellman-Ford over `ctx.par_cores()` simulated
    /// cores.
    ///
    /// Each level runs two phases. **Relax-scan** (reads only): every core
    /// streams its contiguous slice of the sorted frontier, reads each
    /// `dist[v]` plus the neighbour/weight runs, gathers the target
    /// distances as a level-start snapshot, and routes every improving
    /// candidate `(u, dist[v] + w)` to the core owning `dist[u]`.
    /// **Tighten** (owner-only writes): each owner replays its merged
    /// candidate queue through the same compare-and-tighten overlay as the
    /// scalar body — single-writer, so no cross-core ordering hazard —
    /// scatters the accepted writes, and emits its slice of the next
    /// frontier sorted ascending.
    ///
    /// Candidate queues merge in `(source core, emission)` order, which
    /// for contiguous slices of a sorted frontier **is** global
    /// `(vertex, edge)` order — identical for every core count, so the
    /// accepted writes and the relaxation counter are too. Against the
    /// scalar body the per-level schedule differs (scalar lets later
    /// frontier vertices observe earlier in-level writes), but both are
    /// monotone descents to the same least fixed point of the f32
    /// relaxation, so the final distances are bit-identical.
    fn run_iteration_sharded(&mut self, ctx: &mut MemCtx) {
        let n = self.graph.num_vertices();
        let cores = ctx.par_cores();
        let cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let fill_cuts = par::even_cuts(n, cores);
        let graph = &self.graph;
        let dist = &self.dist;
        let src = self.source as usize;

        ctx.run_cores(|c, mut cctx| {
            let (lo, hi) = (fill_cuts[c], fill_cuts[c + 1]);
            cctx.write_run(dist, lo, &vec![f32::INFINITY; hi - lo]);
            if (lo..hi).contains(&src) {
                cctx.set(dist, src, 0.0);
            }
        });

        let mut frontier = vec![self.source];
        let mut relaxations = 0u64;
        while !frontier.is_empty() {
            let slices = par::frontier_cuts(&cuts, &frontier);
            let cur = &frontier;
            // Relax-scan: emit owner-routed improving candidates.
            let per_core = ctx.run_cores(|c, mut cctx| {
                let mut queues = vec![Vec::new(); cores];
                let mut nbrs: Vec<u32> = Vec::new();
                let mut ws: Vec<f32> = Vec::new();
                let mut dbuf: Vec<f32> = Vec::new();
                for &v in &cur[slices[c]..slices[c + 1]] {
                    let dv = cctx.get(dist, v as usize);
                    let (start, end) = graph.edge_bounds(&mut cctx, v as usize);
                    let deg = (end - start) as usize;
                    nbrs.resize(deg, 0);
                    ws.resize(deg, 0.0);
                    graph.neighbor_run(&mut cctx, start, &mut nbrs);
                    graph.weight_run(&mut cctx, start, &mut ws);
                    dbuf.resize(deg, 0.0);
                    cctx.gather(dist, &nbrs, &mut dbuf);
                    for ((&u, &w), &du) in nbrs.iter().zip(&ws).zip(&dbuf) {
                        let candidate = dv + w;
                        if candidate < du {
                            queues[par::owner(&cuts, u as usize)].push((u, candidate));
                        }
                    }
                }
                queues
            });
            let routed = par::merge_owners(per_core);
            let routed = &routed;
            // Tighten: owners replay their queue single-writer.
            let settled = ctx.run_cores(|c, mut cctx| {
                let bucket = &routed[c];
                let idx: Vec<u32> = bucket.iter().map(|&(u, _)| u).collect();
                let mut dbuf = vec![0.0f32; idx.len()];
                cctx.gather(dist, &idx, &mut dbuf);
                let mut overlay: std::collections::HashMap<u32, f32> =
                    std::collections::HashMap::new();
                let mut widx: Vec<u32> = Vec::new();
                let mut wvals: Vec<f32> = Vec::new();
                let mut next: Vec<u32> = Vec::new();
                let mut in_next = std::collections::HashSet::new();
                let mut relaxed = 0u64;
                for (k, &(u, candidate)) in bucket.iter().enumerate() {
                    let current = overlay.get(&u).copied().unwrap_or(dbuf[k]);
                    if candidate < current {
                        overlay.insert(u, candidate);
                        widx.push(u);
                        wvals.push(candidate);
                        relaxed += 1;
                        if in_next.insert(u) {
                            next.push(u);
                        }
                    }
                }
                cctx.scatter(dist, &widx, &wvals);
                next.sort_unstable();
                (next, relaxed)
            });
            frontier = Vec::new();
            for (next, relaxed) in settled {
                frontier.extend_from_slice(&next);
                relaxations += relaxed;
            }
        }
        self.relaxations = relaxations;
    }
}

impl Kernel for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        self.dist.fill(rt.machine_mut(), f32::INFINITY);
        self.relaxations = 0;
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
        ctx.write_run(&self.dist, 0, &vec![f32::INFINITY; n]);
        ctx.set(&self.dist, self.source as usize, 0.0);
        let mut frontier = vec![self.source];
        let mut relaxations = 0u64;
        let mut nbrs: Vec<u32> = Vec::new();
        let mut ws: Vec<f32> = Vec::new();
        let mut dbuf: Vec<f32> = Vec::new();
        let mut widx: Vec<u32> = Vec::new();
        let mut wvals: Vec<f32> = Vec::new();
        let mut overlay = WindowOverlay::<f32>::new(n);
        // One window per level: whether a vertex is in the next frontier.
        let mut in_next = WindowOverlay::<()>::new(n);
        while !frontier.is_empty() {
            let mut next = Vec::new();
            in_next.next_window();
            for &v in &frontier {
                let dv = ctx.get(&self.dist, v as usize);
                let (start, end) = self.graph.edge_bounds(ctx, v as usize);
                let deg = (end - start) as usize;
                nbrs.resize(deg, 0);
                ws.resize(deg, 0.0);
                self.graph.neighbor_run(ctx, start, &mut nbrs);
                self.graph.weight_run(ctx, start, &mut ws);
                // Relaxation: gather the neighbour distances as one window,
                // replay the compare-and-tighten decisions host-side (an
                // overlay makes duplicate targets observe the in-window
                // writes before them), then scatter the accepted writes in
                // decision order — one read per edge and one write per
                // relaxation, exactly like the per-element loop.
                dbuf.resize(deg, 0.0);
                ctx.gather(&self.dist, &nbrs, &mut dbuf);
                widx.clear();
                wvals.clear();
                overlay.next_window();
                for ((&u, &w), &du) in nbrs.iter().zip(&ws).zip(&dbuf) {
                    let cur = overlay.get(u).unwrap_or(du);
                    let candidate = dv + w;
                    if candidate < cur {
                        overlay.set(u, candidate);
                        widx.push(u);
                        wvals.push(candidate);
                        relaxations += 1;
                        if in_next.get(u).is_none() {
                            in_next.set(u, ());
                            next.push(u);
                        }
                    }
                }
                ctx.scatter(&self.dist, &widx, &wvals);
            }
            frontier = next;
        }
        self.relaxations = relaxations;
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        let mut sum = 0.0;
        for d in self.dist.values(rt.machine_mut()) {
            if d.is_finite() {
                sum += d as f64;
            }
        }
        sum
    }

    fn output(&self, rt: &mut Atmem) -> Vec<f64> {
        self.distances(rt).into_iter().map(f64::from).collect()
    }
}

/// Host-side reference (Dijkstra via binary heap) for validation.
pub fn reference_sssp(csr: &atmem_graph::Csr, source: u32) -> Vec<f32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f32, u32);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("finite distances")
        }
    }

    let mut dist = vec![f32::INFINITY; csr.num_vertices()];
    dist[source as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse(Entry(0.0, source)));
    while let Some(Reverse(Entry(d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let nbrs = csr.neighbors_of(v as usize);
        let ws = csr.weights_of(v as usize);
        for (&u, &w) in nbrs.iter().zip(ws) {
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse(Entry(nd, u)));
            }
        }
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
    fn sssp_finds_shorter_indirect_path() {
        // 0->2 costs 10 direct, 3 via 1.
        let csr = GraphBuilder::new(3)
            .weighted_edges([(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)])
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut sssp = Sssp::new(&mut rt, g, 0).unwrap();
        sssp.reset(&mut rt);
        sssp.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(sssp.distances(&mut rt), vec![0.0, 1.0, 3.0]);
        assert!(sssp.relaxations() >= 3);
    }

    #[test]
    fn sssp_matches_dijkstra_on_rmat() {
        let csr = Dataset::Pokec.build_small(6).with_random_weights(16.0, 3);
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut sssp = Sssp::new(&mut rt, g, 0).unwrap();
        sssp.reset(&mut rt);
        sssp.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let got = sssp.distances(&mut rt);
        let expect = reference_sssp(&csr, 0);
        for (v, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-3 || (a.is_infinite() && b.is_infinite()),
                "vertex {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires a weighted graph")]
    fn unweighted_graph_rejected() {
        let csr = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let _ = Sssp::new(&mut rt, g, 0);
    }
}
