//! The kernel abstraction and the application roster.

use atmem::{Atmem, Result};

use crate::access::MemCtx;
use crate::bc::Bc;
use crate::bfs::Bfs;
use crate::cc::Cc;
use crate::graph_data::HmsGraph;
use crate::pagerank::PageRank;
use crate::spmv::Spmv;
use crate::sssp::Sssp;

/// A graph kernel runnable under the paper's iteration protocol.
///
/// One *iteration* is the unit the paper times: a full traversal for BFS
/// and SSSP, one power iteration for PageRank, one source for BC, one full
/// edge pass for CC, one multiply for SpMV.
pub trait Kernel {
    /// Kernel name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Re-initialises kernel state so the next iteration starts fresh.
    /// Unaccounted (happens outside the measured region).
    fn reset(&mut self, rt: &mut Atmem);

    /// Runs one iteration through the accounted access path, partitioned
    /// over the context's [`par_cores`](MemCtx::par_cores) simulated cores
    /// (chosen once by the runner or harness).
    fn run_iteration(&mut self, ctx: &mut MemCtx);

    /// A checksum over the kernel's output arrays, for correctness
    /// comparisons across placements (unaccounted).
    fn checksum(&self, rt: &mut Atmem) -> f64;
}

/// The applications evaluated in the paper (§6) plus SpMV (§9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// PageRank.
    PageRank,
    /// Betweenness centrality (Brandes, one source per iteration).
    Bc,
    /// Connected components (label propagation).
    Cc,
    /// Sparse matrix-vector multiply (the paper's generalisation example).
    Spmv,
}

impl App {
    /// The five applications of the paper's evaluation, in figure order.
    pub const FIVE: [App; 5] = [App::Bfs, App::Sssp, App::PageRank, App::Bc, App::Cc];

    /// Name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs => "BFS",
            App::Sssp => "SSSP",
            App::PageRank => "PR",
            App::Bc => "BC",
            App::Cc => "CC",
            App::Spmv => "SpMV",
        }
    }

    /// Whether the kernel consumes edge weights.
    pub fn needs_weights(self) -> bool {
        matches!(self, App::Sssp | App::Spmv)
    }

    /// Instantiates the kernel over a loaded graph. The default query
    /// source (for BFS/SSSP/BC) is vertex 0 of the largest-degree region —
    /// deterministic and connected in R-MAT inputs.
    ///
    /// # Errors
    ///
    /// Allocation failures while creating the kernel's property arrays.
    pub fn instantiate(self, rt: &mut Atmem, graph: HmsGraph) -> Result<Box<dyn Kernel>> {
        let source = 0u32;
        Ok(match self {
            App::Bfs => Box::new(Bfs::new(rt, graph, source)?),
            App::Sssp => Box::new(Sssp::new(rt, graph, source)?),
            App::PageRank => Box::new(PageRank::new(rt, graph)?),
            App::Bc => Box::new(Bc::new(rt, graph, source)?),
            App::Cc => Box::new(Cc::new(rt, graph)?),
            App::Spmv => Box::new(Spmv::new(rt, graph)?),
        })
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper() {
        let names: Vec<_> = App::FIVE.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["BFS", "SSSP", "PR", "BC", "CC"]);
    }

    #[test]
    fn weight_requirements() {
        assert!(App::Sssp.needs_weights());
        assert!(App::Spmv.needs_weights());
        assert!(!App::Bfs.needs_weights());
        assert!(!App::PageRank.needs_weights());
    }
}
