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
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// SpMV kernel state.
#[derive(Debug)]
pub struct Spmv {
    graph: HmsGraph,
    x: TrackedVec<f64>,
    y: TrackedVec<f64>,
    // Host-side staging buffers, reused across iterations.
    bounds: Vec<u64>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    xs: Vec<f64>,
    ybuf: Vec<f64>,
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
        let e = graph.num_edges();
        let x = rt.malloc::<f64>(n, "spmv.x")?;
        let y = rt.malloc::<f64>(n, "spmv.y")?;
        Ok(Spmv {
            graph,
            x,
            y,
            bounds: vec![0; n + 1],
            cols: vec![0; e],
            vals: vec![0.0; e],
            xs: vec![0.0; e],
            ybuf: vec![0.0; n],
        })
    }

    /// Copies the output vector out of simulated memory (unaccounted).
    pub fn output(&self, rt: &mut Atmem) -> Vec<f64> {
        self.y.to_vec(rt.machine_mut())
    }

    /// One multiply partitioned over `ctx.par_cores()` simulated cores in a
    /// single `run_cores` phase: rows split into contiguous edge-balanced
    /// ranges, each core streaming its bounds/column/value slices, gathering
    /// `x[col]` (read-only, so shared reads are safe under the partition
    /// contract) and writing its owned slice of `y`. Each row reduces in
    /// edge order exactly as the scalar body does, so the output is
    /// bit-identical for any core count.
    fn run_iteration_sharded(&mut self, ctx: &mut MemCtx) {
        let cores = ctx.par_cores();
        let host_bounds = self.graph.host_bounds(ctx.machine());
        let cuts = par::edge_cuts(&host_bounds, cores);
        let graph = &self.graph;
        let x = &self.x;
        let y = &self.y;
        ctx.run_cores(|c, mut ctx| {
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return;
            }
            let mut b = vec![0u64; hi - lo + 1];
            graph.bounds_run(&mut ctx, lo, &mut b);
            let (es, ee) = (b[0] as usize, b[hi - lo] as usize);
            let mut cols = vec![0u32; ee - es];
            let mut vals = vec![0.0f32; ee - es];
            let mut xs = vec![0.0f64; ee - es];
            if ee > es {
                graph.neighbor_run(&mut ctx, es as u64, &mut cols);
                graph.weight_run(&mut ctx, es as u64, &mut vals);
                ctx.gather(x, &cols, &mut xs);
            }
            let mut ybuf = vec![0.0f64; hi - lo];
            for (row, y_row) in ybuf.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for e in (b[row] as usize - es)..(b[row + 1] as usize - es) {
                    acc += vals[e] as f64 * xs[e];
                }
                *y_row = acc;
            }
            ctx.write_run(y, lo, &ybuf);
        });
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

    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        if ctx.par_cores() > 1 {
            self.run_iteration_sharded(ctx);
            return;
        }
        let n = self.graph.num_vertices();
        // Stream phase: row bounds, column indices, matrix values.
        self.graph.bounds_into(ctx, &mut self.bounds);
        let num_edges = self.graph.num_edges();
        self.cols.resize(num_edges, 0);
        self.graph.neighbor_run(ctx, 0, &mut self.cols);
        self.vals.resize(num_edges, 0.0);
        self.graph.weight_run(ctx, 0, &mut self.vals);
        // Gather phase: x[col] accesses follow the neighbour distribution —
        // one simulated access per edge in order, batched by the window
        // engine in bulk mode; the row reduction then runs host-side on the
        // staged values.
        self.xs.resize(num_edges, 0.0);
        ctx.gather(&self.x, &self.cols, &mut self.xs);
        self.ybuf.resize(n, 0.0);
        for (row, y_row) in self.ybuf.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for e in self.bounds[row] as usize..self.bounds[row + 1] as usize {
                acc += self.vals[e] as f64 * self.xs[e];
            }
            *y_row = acc;
        }
        // Store phase: one sequential stream into y.
        ctx.write_run(&self.y, 0, &self.ybuf);
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        self.y.values(rt.machine_mut()).sum()
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
}
