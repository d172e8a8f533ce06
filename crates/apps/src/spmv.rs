//! Sparse matrix-vector multiply (the paper's §9 generalisation example).
//!
//! The CSR graph is interpreted as a sparse matrix; each iteration computes
//! `y = A·x`. Column accesses `x[col]` follow the neighbour distribution,
//! so skewed graphs produce the same hot-region structure the graph kernels
//! have, while uniform matrices degenerate to coarse-grained placement —
//! exactly the behaviour §9 describes.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::{edge_chunks, HmsGraph};
use crate::kernel::Kernel;

/// SpMV kernel state.
#[derive(Debug)]
pub struct Spmv {
    graph: HmsGraph,
    x: TrackedVec<f64>,
    y: TrackedVec<f64>,
    staging: Vec<Staging>,
}

/// One core's host staging, reused across iterations: one `EDGE_CHUNK` of
/// its edge streams, and its rows' outputs (vertex-sized: the one accounted
/// `y` write follows every gather).
#[derive(Debug, Default)]
struct Staging {
    cols: Vec<u32>,
    vals: Vec<f32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Spmv {
    /// Allocates SpMV state over a weighted `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph was loaded without weights.
    ///
    /// # Errors
    ///
    /// Allocation failures for the vectors.
    pub fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        assert!(graph.is_weighted(), "SpMV requires matrix values (weights)");
        let n = graph.num_vertices();
        let x = rt.malloc::<f64>(n, "spmv.x")?;
        let y = rt.malloc::<f64>(n, "spmv.y")?;
        Ok(Spmv {
            graph,
            x,
            y,
            staging: Vec::new(),
        })
    }
}

impl Kernel for Spmv {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let m = rt.machine_mut();
        self.x.fill_with(m, |v| 1.0 + (v % 7) as f64);
        self.y.fill(m, 0.0);
    }

    /// One multiply partitioned over `ctx.par_cores()` simulated cores in a
    /// single `run_cores` phase: rows split into contiguous edge-balanced
    /// ranges, each core streaming its bounds/column/value slices, gathering
    /// `x[col]` (read-only, so shared reads are safe under the partition
    /// contract) and writing its owned slice of `y`. Each row reduces in
    /// edge order, so the output is bit-identical for any core count; one
    /// core is the degenerate partition, the whole matrix on the machine's
    /// resident core.
    /// The column and value streams are charged whole, then read back
    /// unaccounted one `EDGE_CHUNK` at a time, so the gather is consecutive
    /// sub-windows: the same accesses in the same order as one window.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let cores = ctx.par_cores();
        let cuts = self.graph.edge_cuts(ctx.machine(), cores);
        let (graph, x, y) = (&self.graph, &self.x, &self.y);
        ctx.run_cores_with(&mut self.staging, |c, mut ctx, s| {
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return;
            }
            let Staging { cols, vals, xs, ys } = s;
            ctx.charge_run(&graph.offsets, lo..hi + 1);
            let mut rows = graph.rows(ctx.machine(), lo..hi);
            let (edges, mut row) = (rows.edges.clone(), lo);
            let nbrs = &graph.neighbors;
            let weights = graph.weights.as_ref().expect("SpMV runs weighted");
            ctx.charge_run(nbrs, edges.clone());
            ctx.charge_run(weights, edges.clone());
            ys.clear();
            ys.resize(hi - lo, 0.0);
            for chunk in edge_chunks(edges) {
                cols.resize(chunk.len(), 0);
                vals.resize(chunk.len(), 0.0);
                xs.resize(chunk.len(), 0.0);
                nbrs.peek_run(ctx.machine(), chunk.start, cols);
                weights.peek_run(ctx.machine(), chunk.start, vals);
                ctx.gather(x, cols, xs);
                for (e, (&a, &xe)) in chunk.zip(vals.iter().zip(xs.iter())) {
                    while rows.edges_of(ctx.machine(), row).end <= e {
                        row += 1;
                    }
                    ys[row - lo] += a as f64 * xe;
                }
            }
            ctx.write_run(y, lo, ys);
        });
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        self.y.values(rt.machine_mut()).sum()
    }

    fn output(&self, rt: &mut Atmem) -> Vec<f64> {
        self.y.to_vec(rt.machine_mut())
    }
}

/// Host-side reference multiply for validation.
pub fn reference_spmv(csr: &atmem_graph::Csr, x: &[f64]) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut y = vec![0.0; n];
    for (row, y_row) in y.iter_mut().enumerate() {
        let nbrs = csr.neighbors_of(row);
        let ws = csr.weights_of(row);
        *y_row = nbrs
            .iter()
            .zip(ws)
            .map(|(&c, &a)| a as f64 * x[c as usize])
            .sum();
    }
    y
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
    fn small_multiply_is_exact() {
        let csr = GraphBuilder::new(2)
            .weighted_edges([(0, 1, 2.0), (1, 0, 3.0)])
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut spmv = Spmv::new(&mut rt, g).unwrap();
        spmv.reset(&mut rt);
        spmv.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        // x = [1, 2]; y[0] = 2*x[1] = 4; y[1] = 3*x[0] = 3.
        assert_eq!(spmv.output(&mut rt), vec![4.0, 3.0]);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let csr = Dataset::Rmat24.build_small(8).with_random_weights(8.0, 5);
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut spmv = Spmv::new(&mut rt, g).unwrap();
        spmv.reset(&mut rt);
        spmv.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let x: Vec<f64> = (0..csr.num_vertices())
            .map(|v| 1.0 + (v % 7) as f64)
            .collect();
        let expect = reference_spmv(&csr, &x);
        for (got, want) in spmv.output(&mut rt).iter().zip(&expect) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    /// No staging buffer grows with the graph: on a graph of three chunks
    /// of vertices and nine of edges, degree 3 so that rows cross chunk
    /// boundaries (`EDGE_CHUNK` is not a multiple of 3), at one and two
    /// cores, every buffer stays within one chunk except the vertex-sized
    /// outputs `ys` (and the output is the same).
    #[test]
    fn staging_is_bounded_by_vertices_or_one_chunk() {
        let csr =
            crate::graph_data::dense_graph(3 * EDGE_CHUNK as u32, 3).with_random_weights(8.0, 5);
        assert!(csr.num_edges() > 4 * EDGE_CHUNK);
        assert!(!csr.offsets().contains(&(EDGE_CHUNK as u64)));
        let mut outputs = Vec::new();
        for cores in [1, 2] {
            let mut rt = runtime();
            let g = HmsGraph::load(&mut rt, &csr).unwrap();
            let mut spmv = Spmv::new(&mut rt, g).unwrap();
            spmv.reset(&mut rt);
            spmv.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
            outputs.push(spmv.output(&mut rt));
            for s in &spmv.staging {
                let caps = [s.cols.capacity(), s.vals.capacity(), s.xs.capacity()];
                assert!(
                    caps.iter().all(|&c| c <= EDGE_CHUNK),
                    "{cores} cores: {caps:?}"
                );
                assert!(s.ys.capacity() <= csr.num_vertices());
            }
        }
        assert_eq!(outputs[0], outputs[1]);
    }
}
