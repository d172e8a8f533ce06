//! Connected components (label propagation).
//!
//! Each iteration performs one full pass over every edge, lowering each
//! endpoint's label to the minimum of the pair (treating edges as
//! undirected for connectivity). Repeated iterations converge to the
//! connected-component labelling; the harness times single passes.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::{HmsGraph, EDGE_CHUNK};
use crate::kernel::Kernel;
use crate::overlay::WindowOverlay;

/// CC kernel state.
#[derive(Debug)]
pub struct Cc {
    graph: HmsGraph,
    labels: TrackedVec<u32>,
    changed_last: u64,
    /// Each core's slice of the row bounds, reused across iterations.
    bounds: Vec<Vec<u64>>,
    /// The propagation phase's buffers, reused across iterations: one
    /// `EDGE_CHUNK` of neighbour ids, the labels gathered for a part of it,
    /// and one vertex's accepted lowerings (indices, values).
    staging: [Vec<u32>; 4],
}

impl Cc {
    /// Allocates CC state over `graph`.
    ///
    /// # Errors
    ///
    /// Allocation failures for the label array.
    pub fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        let labels = rt.malloc::<u32>(graph.num_vertices(), "cc.labels")?;
        Ok(Cc {
            graph,
            labels,
            changed_last: 0,
            bounds: Vec::new(),
            staging: Default::default(),
        })
    }

    /// Label updates performed by the last iteration (0 = converged).
    pub fn changed_last(&self) -> u64 {
        self.changed_last
    }

    /// Runs passes until convergence; returns the number of passes.
    pub fn run_to_convergence(&mut self, ctx: &mut MemCtx, max_passes: usize) -> usize {
        for pass in 1..=max_passes {
            self.run_iteration(ctx);
            if self.changed_last == 0 {
                return pass;
            }
        }
        max_passes
    }

    /// Copies the label array out of simulated memory (unaccounted).
    pub fn labels(&self, rt: &mut Atmem) -> Vec<u32> {
        self.labels.to_vec(rt.machine_mut())
    }

    /// The propagation phase, vertex by vertex in ascending order (core
    /// `c`'s bounds hold `cuts[c]..cuts[c + 1]`). Label lowering is
    /// Gauss–Seidel: every vertex observes lowerings made earlier *in the
    /// same pass*, a sequential dependency chain that admits no
    /// deterministic partition — so this phase always runs on the resident
    /// core (which is what keeps the output bit-identical across core
    /// counts). Each vertex's neighbour labels are gathered as one window
    /// (consecutive sub-windows where its edges cross an `EDGE_CHUNK` of the
    /// ids read back unaccounted: the same accesses in the same order),
    /// the min/lower decisions replay host-side (an overlay makes duplicate
    /// neighbours observe in-window lowerings), and the accepted lowerings
    /// scatter back in decision order — one read per edge and one write per
    /// lowering, like the per-element loop.
    fn propagate(&mut self, ctx: &mut MemCtx, cuts: &[usize]) {
        let mut changed = 0u64;
        let labels = &self.labels;
        let [nbrs, lbuf, widx, wvals] = &mut self.staging;
        let mut overlay = WindowOverlay::<u32>::new(self.graph.num_vertices());
        for (bounds, range) in self.bounds.iter().zip(cuts.windows(2)) {
            let lo = range[0];
            if lo == range[1] {
                continue;
            }
            // The ids of edges `held..held + nbrs.len()`.
            let (mut held, range_end) = (bounds[0] as usize, bounds[range[1] - lo] as usize);
            nbrs.clear();
            for v in lo..range[1] {
                let (start, end) = (bounds[v - lo] as usize, bounds[v - lo + 1] as usize);
                if start == end {
                    continue;
                }
                let mut lv = ctx.get(labels, v);
                widx.clear();
                wvals.clear();
                overlay.next_window();
                let mut e = start;
                while e < end {
                    if e == held + nbrs.len() {
                        held = e;
                        nbrs.resize(EDGE_CHUNK.min(range_end - e), 0);
                        self.graph.neighbors.peek_run(ctx.machine(), e, nbrs);
                    }
                    let window = &nbrs[e - held..(end - held).min(nbrs.len())];
                    lbuf.resize(window.len(), 0);
                    ctx.gather(labels, window, lbuf);
                    for (&u, &read) in window.iter().zip(lbuf.iter()) {
                        let lu = overlay.get(u).unwrap_or(read);
                        if lu < lv {
                            lv = lu;
                            changed += 1;
                        } else if lv < lu {
                            overlay.set(u, lv);
                            widx.push(u);
                            wvals.push(lv);
                            changed += 1;
                        }
                    }
                    e += window.len();
                }
                ctx.scatter(labels, widx, wvals);
                ctx.set(labels, v, lv);
            }
        }
        self.changed_last = changed;
    }
}

impl Kernel for Cc {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        self.labels.fill_with(rt.machine_mut(), |v| v as u32);
        self.changed_last = 0;
    }

    /// One pass with the CSR streams partitioned over `ctx.par_cores()`
    /// simulated cores (each core reads its edge-balanced slice of the
    /// bounds and neighbour arrays through its own accounted core, keeping
    /// the bounds), then the sequential [`propagate`](Cc::propagate) phase
    /// on the resident core, which reads the neighbour ids back
    /// unaccounted. One core is the degenerate partition: both streams
    /// whole, on the resident core.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let cores = ctx.par_cores();
        let cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let graph = &self.graph;
        ctx.run_cores_with(&mut self.bounds, |c, mut ctx, bounds| {
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return;
            }
            bounds.resize(hi - lo + 1, 0);
            graph.bounds_run(&mut ctx, lo, bounds);
            let edges = bounds[0] as usize..bounds[hi - lo] as usize;
            ctx.charge_run(&graph.neighbors, edges);
        });
        self.propagate(ctx, &cuts);
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        self.labels.values(rt.machine_mut()).map(f64::from).sum()
    }
}

/// Host-side reference components via union-find (ignoring direction).
pub fn reference_components(csr: &atmem_graph::Csr) -> Vec<u32> {
    let n = csr.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut v = v;
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for (u, v) in csr.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
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
    fn two_components_get_two_labels() {
        let csr = GraphBuilder::new(5).edges([(0, 1), (1, 2), (3, 4)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut cc = Cc::new(&mut rt, g).unwrap();
        cc.reset(&mut rt);
        let passes = cc.run_to_convergence(&mut MemCtx::bulk(rt.machine_mut()), 50);
        assert!(passes < 50);
        let labels = cc.labels(&mut rt);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn matches_union_find_on_rmat() {
        let csr = Dataset::Friendster.build_small(10); // 512 vertices
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut cc = Cc::new(&mut rt, g).unwrap();
        cc.reset(&mut rt);
        cc.run_to_convergence(&mut MemCtx::bulk(rt.machine_mut()), 200);
        let got = cc.labels(&mut rt);
        let expect = reference_components(&csr);
        // Same partition: labels equal iff reference labels equal.
        for v in 0..got.len() {
            for u in (v + 1)..got.len().min(v + 50) {
                assert_eq!(
                    got[v] == got[u],
                    expect[v] == expect[u],
                    "partition mismatch at ({v}, {u})"
                );
            }
        }
    }

    #[test]
    fn converged_pass_reports_no_changes() {
        let csr = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut cc = Cc::new(&mut rt, g).unwrap();
        cc.reset(&mut rt);
        let mut ctx = MemCtx::bulk(rt.machine_mut());
        cc.run_to_convergence(&mut ctx, 10);
        cc.run_iteration(&mut ctx);
        assert_eq!(cc.changed_last(), 0);
    }

    /// No staging buffer grows with the edge count: on a graph of six
    /// chunks of edges, at one and two cores, every buffer stays within
    /// the vertex count or one chunk (and the labels are the same).
    #[test]
    fn staging_is_bounded_by_vertices_or_one_chunk() {
        let csr = crate::graph_data::dense_graph(1024, 96);
        assert!(csr.num_edges() > 4 * EDGE_CHUNK);
        let bound = (csr.num_vertices() + 1).max(EDGE_CHUNK);
        let mut outputs = Vec::new();
        for cores in [1, 2] {
            let mut rt = runtime();
            let g = HmsGraph::load(&mut rt, &csr).unwrap();
            let mut cc = Cc::new(&mut rt, g).unwrap();
            cc.reset(&mut rt);
            cc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
            outputs.push(cc.labels(&mut rt));
            let mut caps: Vec<usize> = cc.bounds.iter().map(Vec::capacity).collect();
            caps.extend(cc.staging.iter().map(Vec::capacity));
            assert!(caps.iter().all(|&c| c <= bound), "{cores} cores: {caps:?}");
        }
        assert_eq!(outputs[0], outputs[1]);
    }
}
