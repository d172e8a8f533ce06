//! Block + window engines vs. the per-element scalar oracle, on random
//! access programs.
//!
//! Two identical machines execute the same random access program over the
//! same random placement through the kernel-facing [`MemCtx`] API: one in
//! [`AccessMode::Bulk`] (`read_slice` / `write_slice` for sweeps, `gather` /
//! `scatter` / `gather_update` for index windows), one in
//! [`AccessMode::Scalar`] (per-element `get` / `set` loops — a
//! read-modify-write is a `get` followed by a `set`, so the oracle shares
//! none of the engines' run folding). The program mixes sequential sweeps,
//! random gathers/scatters/updates (duplicates included), strided windows,
//! mid-run `mbind` migrations (which splinter mappings and move data
//! between tiers under both machines) and PEBS/trace toggles, so sweeps
//! and windows interleave across migrations with sampling off as well as
//! on. The whole program runs twice so the second pass starts from warm
//! TLB/LLC state and the migrated placement.
//!
//! After the program, *everything observable* must match bit-for-bit:
//! every read buffer, every machine counter, the simulated clock (f64 by
//! bit pattern), the drained PEBS sample stream, the drained trace
//! stream, the full data image, and a clean audit on both machines.

use atmem_apps::{AccessMode, MemCtx};
use atmem_hms::{Machine, Placement, Platform, TierId, TrackedVec, VirtRange};
use atmem_prop::prelude::*;

const PAGE: usize = 4096;
const ELEMS_PER_PAGE: usize = PAGE / 8;

/// One machine + vector under a fixed access mode.
struct Harness {
    m: Machine,
    v: TrackedVec<u64>,
    mode: AccessMode,
}

impl Harness {
    fn new(pages: usize, placement: Placement, mode: AccessMode) -> Self {
        let len = pages * ELEMS_PER_PAGE;
        let mut m = Machine::new(Platform::testing());
        let v = TrackedVec::<u64>::new(&mut m, len, placement).unwrap();
        for i in 0..len {
            v.poke(&mut m, i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        Harness { m, v, mode }
    }

    /// Executes one op and returns whatever it read (empty for writes).
    fn apply(&mut self, op: &Op) -> Vec<u64> {
        let len = self.v.len();
        match op {
            Op::SweepRead { start, count } => {
                let mut out = vec![0u64; *count];
                MemCtx::new(&mut self.m, self.mode).read_run(&self.v, *start, &mut out);
                out
            }
            Op::SweepWrite { start, count, salt } => {
                let vals: Vec<u64> = (0..*count as u64).map(|j| j.wrapping_mul(*salt)).collect();
                MemCtx::new(&mut self.m, self.mode).write_run(&self.v, *start, &vals);
                Vec::new()
            }
            Op::Gather { indices } => {
                let mut out = vec![0u64; indices.len()];
                MemCtx::new(&mut self.m, self.mode).gather(&self.v, indices, &mut out);
                out
            }
            Op::Scatter { indices, salt } => {
                let vals: Vec<u64> = (0..indices.len() as u64)
                    .map(|j| j.wrapping_mul(*salt))
                    .collect();
                MemCtx::new(&mut self.m, self.mode).scatter(&self.v, indices, &vals);
                Vec::new()
            }
            Op::Update { indices, salt } => {
                // Non-commutative in (k, x): duplicate indices must apply
                // in scalar order on both paths.
                let salt = *salt;
                MemCtx::new(&mut self.m, self.mode).gather_update(&self.v, indices, |k, x: u64| {
                    x.wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(k as u64 ^ salt)
                });
                Vec::new()
            }
            Op::Migrate { page, pages, fast } => {
                let range = VirtRange::new(
                    self.v.range().start.add((*page * PAGE) as u64),
                    *pages * PAGE,
                );
                let tier = if *fast { TierId::FAST } else { TierId::SLOW };
                self.m.migrate_mbind(range, tier).unwrap();
                Vec::new()
            }
            Op::Pebs(on) => {
                if *on {
                    self.m.pebs_enable(64, 16);
                } else {
                    self.m.pebs_disable();
                }
                Vec::new()
            }
            Op::Trace(on) => {
                if *on {
                    self.m.trace_enable();
                } else {
                    self.m.trace_disable();
                }
                Vec::new()
            }
            Op::Stride { start, step, count } => {
                let indices: Vec<u32> = (0..*count)
                    .map(|j| ((start + j * step) % len) as u32)
                    .collect();
                self.apply(&Op::Gather { indices })
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    SweepRead {
        start: usize,
        count: usize,
    },
    SweepWrite {
        start: usize,
        count: usize,
        salt: u64,
    },
    Gather {
        indices: Vec<u32>,
    },
    Scatter {
        indices: Vec<u32>,
        salt: u64,
    },
    Update {
        indices: Vec<u32>,
        salt: u64,
    },
    Stride {
        start: usize,
        step: usize,
        count: usize,
    },
    Migrate {
        page: usize,
        pages: usize,
        fast: bool,
    },
    Pebs(bool),
    Trace(bool),
}

/// Decodes one raw `(kind, a, b)` tuple into an in-bounds op.
fn decode(kind: u32, a: u64, b: u64, len: usize, total_pages: usize) -> Op {
    // Splitmix-style index stream so gathers hit scattered lines, with
    // duplicates whenever the count exceeds the reachable range.
    let indices = |n: usize| -> Vec<u32> {
        (0..n as u64)
            .map(|j| {
                let mut x = a ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x % len as u64) as u32
            })
            .collect()
    };
    let start = (a % len as u64) as usize;
    let count = 1 + (b % 200) as usize;
    match kind {
        0 => Op::SweepRead {
            start,
            count: count.min(len - start),
        },
        1 => Op::SweepWrite {
            start,
            count: count.min(len - start),
            salt: b | 1,
        },
        2 => Op::Gather {
            indices: indices(count),
        },
        3 => Op::Scatter {
            indices: indices(count),
            salt: a | 1,
        },
        4 => Op::Update {
            indices: indices(count),
            salt: b,
        },
        5 => Op::Stride {
            start,
            step: 1 + (b % 97) as usize,
            count,
        },
        6 => {
            let page = (a % total_pages as u64) as usize;
            Op::Migrate {
                page,
                pages: 1 + (b % (total_pages - page) as u64) as usize,
                fast: a & 1 == 0,
            }
        }
        7 => Op::Pebs(a & 1 == 0),
        _ => Op::Trace(a & 1 == 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block and window engines are bit-identical to the per-element
    /// scalar loops on arbitrary access programs, placements, mid-run
    /// migrations and instrumentation toggles.
    #[test]
    fn engines_are_bit_identical_to_scalar_loops(
        raw in prop::collection::vec((0u32..9, any::<u64>(), any::<u64>()), 1..24),
        pages in 1usize..5,
        place in 0u32..3,
    ) {
        let placement = match place {
            0 => Placement::Fast,
            1 => Placement::Slow,
            _ => Placement::Preferred(TierId::FAST),
        };
        let len = pages * ELEMS_PER_PAGE;
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(kind, a, b)| decode(kind, a, b, len, pages))
            .collect();
        let mut oracle = Harness::new(pages, placement, AccessMode::Scalar);
        let mut engine = Harness::new(pages, placement, AccessMode::Bulk);
        // Two passes: the second starts from warm TLB/LLC state and
        // whatever placement the stream's migrations left behind.
        for pass in 0..2 {
            for (i, op) in ops.iter().enumerate() {
                let a = oracle.apply(op);
                let b = engine.apply(op);
                prop_assert_eq!(a, b, "read divergence at pass {} op {} ({:?})", pass, i, op);
            }
        }
        prop_assert_eq!(oracle.m.stats(), engine.m.stats());
        prop_assert_eq!(
            oracle.m.now().as_ns().to_bits(),
            engine.m.now().as_ns().to_bits(),
            "clock divergence"
        );
        prop_assert_eq!(oracle.m.pebs_drain(), engine.m.pebs_drain());
        prop_assert_eq!(oracle.m.trace_drain(), engine.m.trace_drain());
        prop_assert_eq!(
            oracle.v.to_vec(&mut oracle.m),
            engine.v.to_vec(&mut engine.m),
            "data image divergence"
        );
        prop_assert!(oracle.m.audit().is_empty(), "{:?}", oracle.m.audit());
        prop_assert!(engine.m.audit().is_empty(), "{:?}", engine.m.audit());
    }
}
