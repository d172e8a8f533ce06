//! Pinned kernel digests: one per kernel, for all six kernels, plus three
//! multi-chunk runs of the streaming kernels.
//!
//! Each digest folds a kernel's checksum, every `MachineStats` counter, the
//! simulated clock and the drained PEBS stream (order-sensitive, so it
//! catches reorderings the aggregate counters would miss) after a fixed
//! number of iterations at one simulated core, PEBS on at period 7 with
//! jitter 3. The six kernel rows were captured while the kernels still had
//! a per-element scalar access mode, on the commit where that mode was
//! proved bit-identical to the bulk engines for each of these runs; they
//! then held unchanged while the serial PR/SpMV/CC bodies were folded into
//! their one-core partitions and the mode was deleted. So each test says
//! the kernel's one body, on the engines, still produces the stream the
//! per-element loop produced. (The test names keep their historical
//! `_modes_agree` form.)
//!
//! The three `-chunks` rows run PageRank, SpMV and CC on a graph of many
//! 2^14-edge chunks. They were captured on the commit before those kernels
//! streamed their edge arrays in chunks, when each still copied its whole
//! edge streams to the host, and say the streaming bodies produce the same
//! stream across chunk boundaries.
//!
//! Regenerate with `print_current_digests` only when an intentional
//! simulation change lands, and say so in the changelog.

use atmem::{Atmem, AtmemConfig};
use atmem_apps::{Bc, Bfs, Cc, HmsGraph, Kernel, MemCtx, PageRank, Spmv, Sssp};
use atmem_graph::{Csr, Dataset};
use atmem_hms::Platform;

/// FNV-1a over a stream of u64 words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        let mut h = self.0;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

fn plain_graph() -> Csr {
    Dataset::Twitter.build_small(7) // 2048 vertices, skewed
}

fn weighted_graph() -> Csr {
    plain_graph().with_random_weights(16.0, 1)
}

/// Many times the 2^14 edges SpMV, PageRank and CC stream per chunk, so
/// their windows are cut into sub-windows and rows straddle chunks.
fn multi_chunk_graph() -> Csr {
    Dataset::Twitter.build_small(4) // 16384 vertices, skewed
}

fn load(rt: &mut Atmem, csr: &Csr) -> HmsGraph {
    HmsGraph::load(rt, csr).unwrap()
}

type Build = fn(&mut Atmem, &Csr) -> Box<dyn Kernel>;

/// The six kernels, then the three multi-chunk runs: name, input graph,
/// iterations, constructor.
fn kernels() -> Vec<(&'static str, Csr, usize, Build)> {
    vec![
        ("PR", plain_graph(), 2, |rt, csr| {
            let g = load(rt, csr);
            Box::new(PageRank::new(rt, g).unwrap())
        }),
        ("SpMV", weighted_graph(), 2, |rt, csr| {
            let g = load(rt, csr);
            Box::new(Spmv::new(rt, g).unwrap())
        }),
        ("BFS", plain_graph(), 1, |rt, csr| {
            let g = load(rt, csr);
            Box::new(Bfs::new(rt, g, 0).unwrap())
        }),
        ("SSSP", weighted_graph(), 1, |rt, csr| {
            let g = load(rt, csr);
            Box::new(Sssp::new(rt, g, 0).unwrap())
        }),
        ("CC", plain_graph(), 2, |rt, csr| {
            let g = load(rt, csr);
            Box::new(Cc::new(rt, g).unwrap())
        }),
        ("BC", plain_graph(), 2, |rt, csr| {
            let g = load(rt, csr);
            Box::new(Bc::new(rt, g, 0).unwrap())
        }),
        ("PR-chunks", multi_chunk_graph(), 1, |rt, csr| {
            let g = load(rt, csr);
            Box::new(PageRank::new(rt, g).unwrap())
        }),
        (
            "SpMV-chunks",
            multi_chunk_graph().with_random_weights(16.0, 1),
            1,
            |rt, csr| {
                let g = load(rt, csr);
                Box::new(Spmv::new(rt, g).unwrap())
            },
        ),
        ("CC-chunks", multi_chunk_graph(), 1, |rt, csr| {
            let g = load(rt, csr);
            Box::new(Cc::new(rt, g).unwrap())
        }),
    ]
}

/// Runs `iters` iterations of the kernel `build` constructs on one core
/// and digests the checksum, counters, clock and PEBS stream.
fn kernel_digest(csr: &Csr, iters: usize, build: Build) -> u64 {
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
    let mut kernel = build(&mut rt, csr);
    kernel.reset(&mut rt);
    rt.machine_mut().pebs_enable(7, 3);
    for _ in 0..iters {
        kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    }
    let sum = kernel.checksum(&mut rt);
    let s = rt.machine().stats();
    let now = rt.now();
    let pebs = rt.machine_mut().pebs_drain();
    assert!(s.accesses > 0, "kernel performed no work");
    assert!(!pebs.is_empty(), "kernel produced no PEBS samples");

    let mut d = Digest::new();
    d.push(sum.to_bits());
    d.push(now.as_ns().to_bits());
    d.push(s.time_ns.to_bits());
    for c in [
        s.accesses,
        s.reads,
        s.writes,
        s.llc_read_hits,
        s.llc_read_misses,
        s.llc_write_hits,
        s.llc_write_misses,
        s.tlb_hits,
        s.tlb_misses,
        s.bytes_migrated,
    ] {
        d.push(c);
    }
    for b in s.bytes_used {
        d.push(b);
    }
    d.push(pebs.len() as u64);
    for rec in pebs {
        d.push(rec.vaddr.raw());
    }
    d.0
}

/// Digests captured while the per-element scalar mode still existed and
/// equalled the bulk engines on each of these runs (see the module docs).
const PINNED: &[(&str, u64)] = &[
    ("PR", 0xbbb68869abd42b9f),
    ("SpMV", 0xb8417390216c13c8),
    ("BFS", 0x373967533f635d57),
    ("SSSP", 0xe0ecfc52c99fd76a),
    ("CC", 0x57805b5f4308fee3),
    ("BC", 0xe4bbbf6c46d7d70a),
    ("PR-chunks", 0x39b5889fbb132c5a),
    ("SpMV-chunks", 0xa43e7a419de5d18b),
    ("CC-chunks", 0xd851154d4eb1bd3f),
];

/// Prints the digests of the current build (capture helper; always passes).
#[test]
#[ignore = "capture helper: run with --ignored --nocapture to regenerate PINNED"]
fn print_current_digests() {
    for (name, csr, iters, build) in kernels() {
        let d = kernel_digest(&csr, iters, build);
        println!("    (\"{name}\", 0x{d:016x}),");
    }
}

fn assert_pinned(name: &str) {
    let (_, csr, iters, build) = kernels()
        .into_iter()
        .find(|k| k.0 == name)
        .unwrap_or_else(|| panic!("no kernel named {name}"));
    let pinned = PINNED
        .iter()
        .find(|p| p.0 == name)
        .unwrap_or_else(|| panic!("no pinned digest for {name}"))
        .1;
    let d = kernel_digest(&csr, iters, build);
    assert_eq!(
        d, pinned,
        "{name}: kernel digest diverged (0x{d:016x} != 0x{pinned:016x})"
    );
}

#[test]
fn pagerank_modes_agree() {
    assert_pinned("PR");
}

#[test]
fn spmv_modes_agree() {
    assert_pinned("SpMV");
}

#[test]
fn bfs_modes_agree() {
    assert_pinned("BFS");
}

#[test]
fn sssp_modes_agree() {
    assert_pinned("SSSP");
}

#[test]
fn cc_modes_agree() {
    assert_pinned("CC");
}

#[test]
fn bc_modes_agree() {
    assert_pinned("BC");
}

#[test]
fn streamed_kernels_agree_across_chunks() {
    assert!(multi_chunk_graph().num_edges() > 4 << 14);
    for name in ["PR-chunks", "SpMV-chunks", "CC-chunks"] {
        assert_pinned(name);
    }
}
