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
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// Damping factor (the classic 0.85).
pub const DAMPING: f64 = 0.85;

/// The contributions one source core routes to one destination owner:
/// destination ids in edge order, and their shares run-length encoded — one
/// `(end, share)` run per source vertex that reached the owner, `share`
/// being the share of the elements from the previous run's `end` up to this
/// one's (8 bytes per edge less than a share per element).
#[derive(Debug, Clone, Default)]
struct Bucket {
    indices: Vec<u32>,
    runs: Vec<(usize, f64)>,
}

/// One source core's phase-A staging and the contributions it routed, one
/// [`Bucket`] per destination owner; reused across iterations.
#[derive(Debug, Default)]
struct Routing {
    bounds: Vec<u64>,
    ranks: Vec<f64>,
    nbrs: Vec<u32>,
    buckets: Vec<Bucket>,
}

/// One destination core's phase-B staging for the damping sweep; reused
/// across iterations (`zeros` is only ever grown with zeros).
#[derive(Debug, Default)]
struct Sweep {
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
    routing: Vec<Routing>,
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
            routing: Vec::new(),
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
    /// neighbour ids through its own accounted core, then buckets the
    /// resulting `(dest, share)` contributions by destination owner
    /// (host-side, unaccounted routing, a [`Bucket`] per owner). **Phase B**
    /// gives each core a contiguous slice of the accumulator: it applies the buckets routed
    /// to it — source cores in core order, each bucket already in edge
    /// order, so every accumulator entry folds in **global edge order**
    /// (f64 addition is non-associative; this ordering is what keeps the
    /// output bit-identical for any core count) — and finishes with the
    /// damping sweep over the same owned slice. One core is the degenerate
    /// partition: one bucket holding the whole edge list, applied as one
    /// scatter-update window on the machine's resident core.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let n = self.graph.num_vertices();
        let cores = ctx.par_cores();
        let src_cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let dst_cuts = par::even_cuts(n, cores);
        let (graph, rank, next) = (&self.graph, &self.rank, &self.next);

        // Phase A: partitioned streams + host-side contribution routing.
        ctx.run_cores_with(&mut self.routing, |c, mut ctx, r| {
            let Routing {
                bounds,
                ranks,
                nbrs,
                buckets,
            } = r;
            buckets.resize_with(cores, Bucket::default);
            for Bucket { indices, runs } in buckets.iter_mut() {
                indices.clear();
                runs.clear();
            }
            let (lo, hi) = (src_cuts[c], src_cuts[c + 1]);
            if lo == hi {
                return;
            }
            bounds.resize(hi - lo + 1, 0);
            graph.bounds_run(&mut ctx, lo, bounds);
            ranks.resize(hi - lo, 0.0);
            ctx.read_run(rank, lo, ranks);
            let (es, ee) = (bounds[0] as usize, bounds[hi - lo] as usize);
            nbrs.resize(ee - es, 0);
            graph.neighbor_run(&mut ctx, es as u64, nbrs);
            for v in lo..hi {
                let (s, e) = (bounds[v - lo] as usize, bounds[v - lo + 1] as usize);
                if s == e {
                    continue;
                }
                let share = ranks[v - lo] / (e - s) as f64;
                for &u in &nbrs[s - es..e - es] {
                    buckets[par::owner(&dst_cuts, u as usize)].indices.push(u);
                }
                // Close this vertex's run in every bucket it reached.
                for Bucket { indices, runs } in buckets.iter_mut() {
                    let routed = runs.last().map_or(0, |&(end, _)| end);
                    if indices.len() > routed {
                        runs.push((indices.len(), share));
                    }
                }
            }
        });

        // Phase B: owned accumulation in global edge order, then damping.
        let base = (1.0 - DAMPING) / n as f64;
        let routing = &self.routing;
        ctx.run_cores_with(&mut self.sweep, |c, mut ctx, s| {
            for src in routing {
                // Element `k` only increases, so a cursor over the runs
                // finds its share.
                let Bucket { indices, runs } = &src.buckets[c];
                let mut run = 0;
                ctx.gather_update(next, indices, |k, acc| {
                    while runs[run].0 <= k {
                        run += 1;
                    }
                    acc + runs[run].1
                });
            }
            let (lo, hi) = (dst_cuts[c], dst_cuts[c + 1]);
            if lo == hi {
                return;
            }
            let Sweep { accs, zeros } = s;
            accs.resize(hi - lo, 0.0);
            ctx.read_run(next, lo, accs);
            for acc in accs.iter_mut() {
                *acc = base + DAMPING * *acc;
            }
            ctx.write_run(rank, lo, accs);
            zeros.resize(hi - lo, 0.0);
            ctx.write_run(next, lo, zeros);
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
}
