//! Direction-optimizing BFS (Beamer-style top-down / bottom-up switching).
//!
//! When the frontier is small, classic top-down expansion is cheapest; when
//! it covers a large fraction of the graph, *bottom-up* — every unvisited
//! vertex scanning its in-edges for a visited parent — touches far fewer
//! edges. The two phases have opposite access patterns (scatter vs gather),
//! so the kernel exercises both directions of the CSR and its transpose —
//! a stress test for placement decisions that must serve both.

use atmem::{Atmem, Result};
use atmem_graph::{transpose, Csr};
use atmem_hms::{merge_owner_queues, OwnerQueues, TrackedVec};

use crate::access::MemCtx;
use crate::bfs::UNREACHED;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// Frontier-to-unvisited ratio above which the kernel switches bottom-up.
const SWITCH_THRESHOLD: f64 = 0.05;

/// Direction-optimizing BFS state. Holds both edge directions.
#[derive(Debug)]
pub struct BfsDir {
    out_graph: HmsGraph,
    in_graph: HmsGraph,
    source: u32,
    dist: TrackedVec<u32>,
    /// (top-down levels, bottom-up levels) executed by the last iteration.
    phases: (u32, u32),
}

impl BfsDir {
    /// Builds the kernel from the original CSR (loads both the graph and
    /// its transpose into simulated memory).
    ///
    /// # Errors
    ///
    /// Allocation failures for either direction or the distance array.
    pub fn new(rt: &mut Atmem, csr: &Csr, source: u32) -> Result<Self> {
        let out_graph = HmsGraph::load(rt, csr)?;
        let in_graph = HmsGraph::load(rt, &transpose(csr))?;
        let dist = rt.malloc::<u32>(csr.num_vertices(), "bfsdir.dist")?;
        Ok(BfsDir {
            out_graph,
            in_graph,
            source,
            dist,
            phases: (0, 0),
        })
    }

    /// (top-down, bottom-up) level counts of the last iteration.
    pub fn phases(&self) -> (u32, u32) {
        self.phases
    }

    /// Copies the distance array out of simulated memory (unaccounted).
    pub fn distances(&self, rt: &mut Atmem) -> Vec<u32> {
        self.dist.to_vec(rt.machine_mut())
    }

    /// Direction-optimizing traversal partitioned over `ctx.par_cores()`
    /// simulated cores.
    ///
    /// Top-down levels shard exactly like classic BFS (owned slices of the
    /// sorted frontier expand over the out-graph, discovered vertices are
    /// owner-routed and settled single-writer). Bottom-up levels split
    /// into a read-only **scan** phase — each core sweeps its in-edge-
    /// balanced vertex range, reads its distance slice as a level-start
    /// snapshot, and probes unvisited vertices' in-edges for a parent at
    /// `level - 1` — and an owner-only **claim** phase that scatters the
    /// level into each core's found list. The naive scalar interleaving
    /// (writing `dist[v]` while other vertices' probes read `dist`) would
    /// violate the partition contract, which is why the scan phase works
    /// from the immutable snapshot.
    ///
    /// Both directions produce the per-level discovered *set* of the
    /// level-synchronous traversal, and the frontier is kept in canonical
    /// ascending order, so the direction switch (a pure function of
    /// frontier/unvisited counts) and the distances are bit-identical for
    /// every core count and to the scalar body.
    fn run_iteration_sharded(&mut self, ctx: &mut MemCtx) {
        let n = self.out_graph.num_vertices();
        let cores = ctx.par_cores();
        let out_cuts = self.out_graph.edge_cuts(ctx.machine(), cores);
        let in_cuts = self.in_graph.edge_cuts(ctx.machine(), cores);
        let fill_cuts = par::even_cuts(n, cores);
        let out_graph = &self.out_graph;
        let in_graph = &self.in_graph;
        let dist = &self.dist;
        let src = self.source as usize;

        ctx.run_cores(|c, mut cctx| {
            let (lo, hi) = (fill_cuts[c], fill_cuts[c + 1]);
            cctx.write_run(dist, lo, &vec![UNREACHED; hi - lo]);
            if (lo..hi).contains(&src) {
                cctx.set(dist, src, 0);
            }
        });

        let mut frontier = vec![self.source];
        let mut unvisited = n - 1;
        let mut level = 0u32;
        let mut top_down_levels = 0u32;
        let mut bottom_up_levels = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let go_bottom_up = frontier.len() as f64 > SWITCH_THRESHOLD * (unvisited.max(1)) as f64;
            if go_bottom_up {
                bottom_up_levels += 1;
                // Scan (reads only): owned in-edge-balanced vertex ranges
                // probe for parents against the level-start snapshot.
                let found = ctx.run_cores(|c, mut cctx| {
                    let (lo, hi) = (in_cuts[c], in_cuts[c + 1]);
                    let mut mine = vec![0u32; hi - lo];
                    cctx.read_run(dist, lo, &mut mine);
                    let mut found: Vec<u32> = Vec::new();
                    for (v, &dv) in (lo..hi).zip(&mine) {
                        if dv != UNREACHED {
                            continue;
                        }
                        let (s, e) = in_graph.edge_bounds(&mut cctx, v);
                        for edge in s..e {
                            let u = in_graph.neighbor(&mut cctx, edge) as usize;
                            if cctx.get(dist, u) == level - 1 {
                                found.push(v as u32);
                                break;
                            }
                        }
                    }
                    found
                });
                let found = &found;
                // Claim (owner-only writes): each core stamps the level
                // into the vertices its own scan discovered.
                ctx.run_cores(|c, mut cctx| {
                    cctx.scatter(dist, &found[c], &vec![level; found[c].len()]);
                });
                // Scan ranges are contiguous and ascending, so the found
                // lists concatenate into the canonical sorted frontier.
                frontier = found.concat();
            } else {
                top_down_levels += 1;
                let slices = par::frontier_cuts(&out_cuts, &frontier);
                let cur = &frontier;
                let per_core = ctx.run_cores(|c, mut cctx| {
                    let mut queues = OwnerQueues::new(cores);
                    let mut nbrs: Vec<u32> = Vec::new();
                    let mut dbuf: Vec<u32> = Vec::new();
                    for &v in &cur[slices[c]..slices[c + 1]] {
                        let (s, e) = out_graph.edge_bounds(&mut cctx, v as usize);
                        nbrs.resize((e - s) as usize, 0);
                        out_graph.neighbor_run(&mut cctx, s, &mut nbrs);
                        dbuf.resize(nbrs.len(), 0);
                        cctx.gather(dist, &nbrs, &mut dbuf);
                        for (&u, &du) in nbrs.iter().zip(&dbuf) {
                            if du == UNREACHED {
                                queues.push(par::owner(&out_cuts, u as usize), u);
                            }
                        }
                    }
                    queues
                });
                let routed = merge_owner_queues(per_core);
                let routed = &routed;
                let discovered = ctx.run_cores(|c, mut cctx| {
                    let mut seen = std::collections::HashSet::new();
                    let mut new: Vec<u32> = Vec::new();
                    for &u in &routed[c] {
                        if seen.insert(u) {
                            new.push(u);
                        }
                    }
                    cctx.scatter(dist, &new, &vec![level; new.len()]);
                    new.sort_unstable();
                    new
                });
                frontier = discovered.concat();
            }
            unvisited -= frontier.len().min(unvisited);
        }
        self.phases = (top_down_levels, bottom_up_levels);
    }
}

impl Kernel for BfsDir {
    fn name(&self) -> &'static str {
        "BFS-dir"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        self.dist.fill(rt.machine_mut(), UNREACHED);
        self.phases = (0, 0);
    }

    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        if ctx.par_cores() > 1 {
            self.run_iteration_sharded(ctx);
            return;
        }
        let n = self.out_graph.num_vertices();
        // Per-iteration re-init through the accounted path (the same
        // policy as BC: every traversal kernel rewrites its state each
        // source, so repeat-iteration timings are comparable).
        ctx.write_run(&self.dist, 0, &vec![UNREACHED; n]);
        ctx.set(&self.dist, self.source as usize, 0);
        let mut frontier = vec![self.source];
        let mut unvisited = n - 1;
        let mut level = 0u32;
        let mut top_down_levels = 0u32;
        let mut bottom_up_levels = 0u32;
        let mut nbrs: Vec<u32> = Vec::new();
        while !frontier.is_empty() {
            level += 1;
            let go_bottom_up = frontier.len() as f64 > SWITCH_THRESHOLD * (unvisited.max(1)) as f64;
            let mut next = Vec::new();
            if go_bottom_up {
                bottom_up_levels += 1;
                // Bottom-up: every unvisited vertex gathers over in-edges.
                for v in 0..n {
                    if ctx.get(&self.dist, v) != UNREACHED {
                        continue;
                    }
                    let (s, e) = self.in_graph.edge_bounds(ctx, v);
                    for edge in s..e {
                        let u = self.in_graph.neighbor(ctx, edge) as usize;
                        if ctx.get(&self.dist, u) == level - 1 {
                            ctx.set(&self.dist, v, level);
                            next.push(v as u32);
                            break;
                        }
                    }
                }
            } else {
                top_down_levels += 1;
                for &v in &frontier {
                    let (s, e) = self.out_graph.edge_bounds(ctx, v as usize);
                    // Out-adjacency runs are sequential; the bottom-up
                    // search loops above stay per-element because they
                    // terminate early on the first visited parent.
                    nbrs.resize((e - s) as usize, 0);
                    self.out_graph.neighbor_run(ctx, s, &mut nbrs);
                    for &u in &nbrs {
                        let u = u as usize;
                        if ctx.get(&self.dist, u) == UNREACHED {
                            ctx.set(&self.dist, u, level);
                            next.push(u as u32);
                        }
                    }
                }
            }
            unvisited -= next.len().min(unvisited);
            frontier = next;
        }
        self.phases = (top_down_levels, bottom_up_levels);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::reference_bfs;
    use atmem::AtmemConfig;
    use atmem_graph::Dataset;
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn matches_classic_bfs_on_rmat() {
        let csr = Dataset::Rmat24.build_small(8);
        let mut rt = runtime();
        let mut bfs = BfsDir::new(&mut rt, &csr, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bfs.distances(&mut rt), reference_bfs(&csr, 0));
    }

    #[test]
    fn uses_both_directions_on_dense_graphs() {
        // Dense R-MAT: the frontier explodes quickly, forcing bottom-up.
        let mut config = Dataset::Rmat24.config();
        config.scale = 10;
        config.edge_factor = 16;
        let csr = atmem_graph::rmat(&config, 5);
        let mut rt = runtime();
        let mut bfs = BfsDir::new(&mut rt, &csr, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let (td, bu) = bfs.phases();
        assert!(td >= 1, "starts top-down");
        assert!(
            bu >= 1,
            "dense graph must trigger bottom-up: td={td} bu={bu}"
        );
        assert_eq!(bfs.distances(&mut rt), reference_bfs(&csr, 0));
    }

    #[test]
    fn reset_is_repeatable() {
        let csr = Dataset::Pokec.build_small(7);
        let mut rt = runtime();
        let mut bfs = BfsDir::new(&mut rt, &csr, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let a = bfs.checksum(&mut rt);
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(bfs.checksum(&mut rt), a);
    }
}
