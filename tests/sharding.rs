//! Determinism and bit-identity gates for the sharded simulation engine.
//!
//! Two contracts from the sharded-engine design are enforced here, at the
//! kernel level (the hms crate tests the same contracts at the machine
//! level, including `run_cores_n1_is_bit_identical_to_scalar` for the
//! one-core phase):
//!
//! 1. **Run-to-run determinism** — same seed, same core count, same input
//!    ⇒ bit-identical simulated clocks, counters and checksums across two
//!    independent runs, threads notwithstanding.
//! 2. **Core-count invariance of kernel output** — every kernel's output
//!    arrays are bit-identical, element by element, for 1, 2, 4 and 8
//!    simulated cores. For the f64 kernels this is only true because the
//!    partitioned bodies fold contributions in global edge order.

use atmem::{Atmem, AtmemConfig};
use atmem_apps::{
    run_protocol_cores, App, Bc, Bfs, Cc, HmsGraph, Kernel, MemCtx, Mode, PageRank, Spmv, Sssp,
};
use atmem_graph::{Csr, Dataset};
use atmem_hms::Platform;

fn runtime() -> Atmem {
    Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
}

fn skewed_graph() -> Csr {
    Dataset::Twitter.build_small(7) // 2048 vertices, skewed degrees
}

/// Runs `iters` iterations of a freshly instantiated kernel at the given
/// simulated core count and returns the checksum.
fn checksum_at_cores(
    csr: &Csr,
    make: &dyn Fn(&mut Atmem, &Csr) -> Box<dyn Kernel>,
    cores: usize,
    iters: usize,
) -> f64 {
    let mut rt = runtime();
    let mut kernel = make(&mut rt, csr);
    kernel.reset(&mut rt);
    for _ in 0..iters {
        kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    }
    kernel.checksum(&mut rt)
}

fn assert_core_count_invariant(
    name: &str,
    csr: &Csr,
    iters: usize,
    make: &dyn Fn(&mut Atmem, &Csr) -> Box<dyn Kernel>,
) {
    let one = checksum_at_cores(csr, make, 1, iters);
    for cores in [2usize, 4, 8] {
        let sharded = checksum_at_cores(csr, make, cores, iters);
        assert_eq!(
            one.to_bits(),
            sharded.to_bits(),
            "{name}: checksum diverges at {cores} cores ({one} vs {sharded})"
        );
    }
}

/// Runs `iters` iterations of a freshly instantiated kernel at `cores`
/// simulated cores and returns its output array, bit patterns included.
fn output_at_cores<K: Kernel, T>(
    csr: &Csr,
    make: impl Fn(&mut Atmem, &Csr) -> K,
    output: impl Fn(&K, &mut Atmem) -> Vec<T>,
    cores: usize,
    iters: usize,
) -> Vec<T> {
    let mut rt = runtime();
    let mut kernel = make(&mut rt, csr);
    kernel.reset(&mut rt);
    for _ in 0..iters {
        kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    }
    output(&kernel, &mut rt)
}

/// Asserts a kernel's output array is element-wise identical at 2, 4 and
/// 8 cores to its one-core output.
fn assert_output_core_count_invariant<K: Kernel, T: PartialEq + std::fmt::Debug>(
    name: &str,
    csr: &Csr,
    iters: usize,
    make: impl Fn(&mut Atmem, &Csr) -> K,
    output: impl Fn(&K, &mut Atmem) -> Vec<T>,
) {
    let one = output_at_cores(csr, &make, &output, 1, iters);
    assert!(!one.is_empty(), "{name} produced no output");
    for cores in [2usize, 4, 8] {
        let got = output_at_cores(csr, &make, &output, cores, iters);
        assert!(one == got, "{name}: output diverges at {cores} cores");
    }
}

fn f64_bits(xs: Vec<f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

#[test]
fn kernel_outputs_are_core_count_invariant() {
    let skewed = skewed_graph();
    let weighted = skewed.clone().with_random_weights(16.0, 1);

    assert_output_core_count_invariant(
        "PR-push",
        &skewed,
        3,
        |rt, csr| {
            let g = HmsGraph::load(rt, csr).unwrap();
            PageRank::new(rt, g).unwrap()
        },
        |pr, rt| f64_bits(pr.output(rt)),
    );
    assert_output_core_count_invariant(
        "SpMV",
        &weighted,
        2,
        |rt, csr| {
            let g = HmsGraph::load(rt, csr).unwrap();
            Spmv::new(rt, g).unwrap()
        },
        |spmv, rt| f64_bits(spmv.output(rt)),
    );
    assert_output_core_count_invariant(
        "CC",
        &skewed,
        3,
        |rt, csr| {
            let g = HmsGraph::load(rt, csr).unwrap();
            Cc::new(rt, g).unwrap()
        },
        |cc, rt| cc.labels(rt),
    );
}

#[test]
fn traversal_outputs_are_core_count_invariant() {
    let skewed = skewed_graph();
    let weighted = skewed.clone().with_random_weights(16.0, 1);

    assert_core_count_invariant("BFS", &skewed, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Bfs::new(rt, g, 0).unwrap())
    });
    assert_core_count_invariant("SSSP", &weighted, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Sssp::new(rt, g, 0).unwrap())
    });
    assert_core_count_invariant("BC", &skewed, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Bc::new(rt, g, 0).unwrap())
    });
}

/// Element-wise (not just checksum) bit-identity of every traversal
/// kernel's output arrays across core counts, with `par_cores == 1`
/// (the one-core body) as the reference — the frontier partition must not
/// change a single distance, phase count or centrality bit.
#[test]
fn traversal_outputs_match_scalar_elementwise() {
    let csr = skewed_graph();
    let weighted = csr.clone().with_random_weights(16.0, 1);

    let bfs_at = |cores: usize| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        (bfs.distances(&mut rt), bfs.reached())
    };
    let sssp_at = |cores: usize| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &weighted).unwrap();
        let mut sssp = Sssp::new(&mut rt, g, 0).unwrap();
        sssp.reset(&mut rt);
        sssp.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        let bits: Vec<u32> = sssp
            .distances(&mut rt)
            .into_iter()
            .map(f32::to_bits)
            .collect();
        bits
    };
    let bc_at = |cores: usize| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bc = Bc::new(&mut rt, g, 0).unwrap();
        bc.reset(&mut rt);
        bc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        let bits: Vec<u64> = bc.output(&mut rt).into_iter().map(f64::to_bits).collect();
        bits
    };

    let (bfs, sssp, bc) = (bfs_at(1), sssp_at(1), bc_at(1));
    for cores in [2usize, 4, 8] {
        assert_eq!(bfs, bfs_at(cores), "BFS diverges at {cores} cores");
        assert_eq!(sssp, sssp_at(cores), "SSSP diverges at {cores} cores");
        assert_eq!(bc, bc_at(cores), "BC diverges at {cores} cores");
    }
}

/// Same seed, same core count ⇒ the sharded traversal reproduces its
/// stats, clock, merged PEBS stream and outputs bit-for-bit — the
/// frontier partition introduces no scheduling nondeterminism.
#[test]
fn sharded_traversal_is_deterministic_across_runs() {
    let csr = skewed_graph();
    let run = || {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        rt.machine_mut().pebs_enable(64, 16);
        for _ in 0..2 {
            bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(4));
        }
        let stats = rt.machine().stats();
        let now = rt.machine().now().as_ns().to_bits();
        let pebs = rt.machine_mut().pebs_drain();
        let audit = rt.machine_mut().audit();
        assert!(audit.is_empty(), "audit: {audit:?}");
        (stats, now, pebs, bfs.distances(&mut rt))
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "stats diverge");
    assert_eq!(a.1, b.1, "clocks diverge");
    assert_eq!(a.2, b.2, "PEBS streams diverge");
    assert_eq!(a.3, b.3, "outputs diverge");
}

#[test]
fn sharded_protocol_is_deterministic_across_runs() {
    let csr = skewed_graph();
    let run = || {
        run_protocol_cores(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::PageRank,
            Mode::Atmem,
            2,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.first_iter.as_ns().to_bits(),
        b.first_iter.as_ns().to_bits()
    );
    assert_eq!(
        a.second_iter.as_ns().to_bits(),
        b.second_iter.as_ns().to_bits()
    );
    assert_eq!(a.second_iter_stats, b.second_iter_stats);
    assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    let (oa, ob) = (a.optimize.unwrap(), b.optimize.unwrap());
    assert_eq!(oa.migration.bytes_moved, ob.migration.bytes_moved);
    assert_eq!(
        oa.migration.time.as_ns().to_bits(),
        ob.migration.time.as_ns().to_bits()
    );
    assert!(a.audit.is_empty(), "audit: {:?}", a.audit);
}

#[test]
fn merged_pebs_stream_drives_the_optimizer() {
    let csr = skewed_graph();
    let base = run_protocol_cores(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::PageRank,
        Mode::Baseline,
        2,
    )
    .unwrap();
    let atm = run_protocol_cores(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::PageRank,
        Mode::Atmem,
        2,
    )
    .unwrap();
    assert_eq!(
        base.checksum.to_bits(),
        atm.checksum.to_bits(),
        "placement must not change results"
    );
    let opt = atm.optimize.expect("ATMem mode optimizes");
    assert!(
        opt.migration.bytes_moved > 0,
        "the merged sample stream must surface hot regions to migrate"
    );
    assert!(
        atm.second_iter.as_ns() < base.second_iter.as_ns(),
        "atmem {} vs baseline {}",
        atm.second_iter,
        base.second_iter
    );
    assert!(atm.audit.is_empty(), "audit: {:?}", atm.audit);
}
