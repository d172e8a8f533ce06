//! Writing your own kernel against the ATMem API.
//!
//! Implements a tiny "degree-weighted triangle counting sweep" kernel from
//! scratch using the `Kernel` trait, runs it under the paper's protocol on
//! the simulated KNL (MCDRAM-DRAM) testbed, and compares baseline vs ATMem.
//!
//! Run with: `cargo run -p atmem-bench --release --example custom_kernel`

use atmem::{Atmem, AtmemConfig, PlacementPolicy, Result};
use atmem_apps::{HmsGraph, Kernel, MemCtx};
use atmem_graph::Dataset;
use atmem_hms::{Platform, TrackedVec};

/// A wedge-counting kernel: for every vertex, counts length-2 paths through
/// it, weighting by the endpoints' degrees. Irregular reads of the
/// degree array, driven by the neighbour distribution — a natural fit for
/// fine-grained placement.
#[derive(Debug)]
struct WedgeCount {
    graph: HmsGraph,
    degree: TrackedVec<u32>,
    wedges: TrackedVec<f64>,
}

impl WedgeCount {
    fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        let n = graph.num_vertices();
        let degree = rt.malloc::<u32>(n, "wedge.degree")?;
        let wedges = rt.malloc::<f64>(n, "wedge.count")?;
        // Precompute degrees (unaccounted setup).
        let mut ctx = MemCtx::bulk(rt.machine_mut());
        for v in 0..n {
            let (s, e) = graph.edge_bounds(&mut ctx, v);
            degree.poke(ctx.machine(), v, (e - s) as u32);
        }
        Ok(WedgeCount {
            graph,
            degree,
            wedges,
        })
    }
}

impl Kernel for WedgeCount {
    fn name(&self) -> &'static str {
        "Wedge"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        self.wedges.fill(rt.machine_mut(), 0.0);
    }

    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let mut nbrs: Vec<u32> = Vec::new();
        let mut degs: Vec<u32> = Vec::new();
        for v in 0..self.graph.num_vertices() {
            let (s, e) = self.graph.edge_bounds(ctx, v);
            // Each row is one sequential neighbour run plus one irregular
            // degree window — the window engine batches the latter.
            nbrs.resize((e - s) as usize, 0);
            self.graph.neighbor_run(ctx, s, &mut nbrs);
            degs.resize(nbrs.len(), 0);
            ctx.gather(&self.degree, &nbrs, &mut degs);
            let acc: f64 = degs.iter().map(|&d| d as f64).sum();
            ctx.set(&self.wedges, v, acc);
        }
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        self.wedges.values(rt.machine_mut()).sum()
    }
}

fn run(placement: PlacementPolicy, optimize: bool) -> Result<(f64, f64, f64)> {
    let csr = Dataset::Friendster.build_small(3); // 64 Ki vertices
    let config = AtmemConfig::default().with_placement(placement);
    let mut rt = Atmem::new(Platform::mcdram_dram(), config)?;
    let graph = HmsGraph::load(&mut rt, &csr)?;
    let mut kernel = WedgeCount::new(&mut rt, graph)?;

    kernel.reset(&mut rt);
    if optimize {
        rt.profiling_start()?;
    }
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    if optimize {
        rt.profiling_stop()?;
        rt.optimize()?;
    }
    kernel.reset(&mut rt);
    let t = rt.now();
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    let iter2 = rt.now().as_ns() - t.as_ns();
    Ok((iter2, rt.fast_data_ratio(), kernel.checksum(&mut rt)))
}

fn main() -> Result<()> {
    println!("custom wedge-count kernel on the simulated KNL testbed\n");
    let (base_ns, base_ratio, base_sum) = run(PlacementPolicy::AllSlow, false)?;
    let (atm_ns, atm_ratio, atm_sum) = run(PlacementPolicy::AllSlow, true)?;
    assert_eq!(base_sum, atm_sum, "placement must not change results");
    println!(
        "baseline (all-DRAM): {:.3} ms  ({:.1}% data on MCDRAM)",
        base_ns / 1e6,
        base_ratio * 100.0
    );
    println!(
        "atmem              : {:.3} ms  ({:.1}% data on MCDRAM)",
        atm_ns / 1e6,
        atm_ratio * 100.0
    );
    println!("speedup            : {:.2}x", base_ns / atm_ns);
    Ok(())
}
