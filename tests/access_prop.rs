//! Block + window engines vs. the per-element oracle, on random access
//! programs.
//!
//! Two identical machines execute the same random access program over the
//! same random placement: one through the kernel-facing [`MemCtx`] API
//! (`read_run` / `write_run` for sweeps, `gather` / `scatter` /
//! `gather_update` for index windows — the engines every kernel runs on),
//! one through plain per-element `TrackedVec::get` / `set` loops written
//! out in this file (a read-modify-write is a `get` followed by a `set`,
//! so the oracle shares none of the engines' run folding). The program
//! mixes sequential sweeps, random gathers/scatters/updates (duplicates
//! included), strided windows, mid-run `mbind` migrations (which splinter
//! mappings and move data between tiers under both machines) and PEBS
//! switches — off, a jittered period of 64, and period 1 with no jitter —
//! so sweeps and windows interleave across migrations with sampling off,
//! sparse and exhaustive. Arrays span a few base pages or one or two
//! huge-page units (plus a base-page tail), on a TLB that coalesces 1 or
//! 8 base pages per entry. The whole program runs twice so the second
//! pass starts from warm TLB/LLC state and the migrated placement.
//!
//! After every op, the read buffer, every machine counter and the
//! simulated clock (f64 by bit pattern) must match. After the program, so
//! must the drained PEBS stream, the full data image and a clean audit on
//! both machines. At period 1 the PEBS stream is every LLC read miss's
//! address in order, so a read miss charged at the wrong element or in
//! the wrong order shows.
//!
//! What no stream here records is the order of LLC hits and write misses
//! inside one op; the per-op counters pin only how many of each there
//! were. Two things cover the order. The clock: each element adds its own
//! cost (a hit, or a miss at its tier) to an f64 clock in element order,
//! and f64 addition is not associative, so the same costs in another
//! order usually end on other clock bits — and the clock is compared after
//! every op. The warm second pass: a hit or write miss charged to the
//! wrong line leaves other LLC and TLB contents behind, which pass 2's
//! counters, clock and read-miss stream then expose.
//!
//! A second property checks what the streaming kernels rest on: one block
//! or window call cut into consecutive calls — at drawn points, at a point
//! that splits a line and at one that splits a page — leaves the same
//! simulated state as the uncut call.

use std::ops::Range;

use atmem_apps::MemCtx;
use atmem_hms::{Machine, MemPort, PageKind, Placement, Platform, TierId, TrackedVec, VirtRange};
use atmem_prop::prelude::*;

const PAGE: usize = 4096;
const ELEMS_PER_PAGE: usize = PAGE / 8;

/// Base pages per huge-page unit (the simulator's `HUGE_PAGE_FRAMES`): an
/// aligned array of at least this many pages is mapped `PageKind::Huge2M`.
const HUGE_PAGES: usize = 64;

/// One machine + vector, driven through the engines or the oracle loops.
struct Harness {
    m: Machine,
    v: TrackedVec<u64>,
    oracle: bool,
}

impl Harness {
    fn new(pages: usize, placement: Placement, tlb_coalesce: usize, oracle: bool) -> Self {
        let len = pages * ELEMS_PER_PAGE;
        let mut platform = Platform::testing();
        platform.tlb_coalesce = tlb_coalesce;
        let mut m = Machine::new(platform);
        let v = TrackedVec::<u64>::new(&mut m, len, placement).unwrap();
        for i in 0..len {
            v.poke(&mut m, i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        Harness { m, v, oracle }
    }

    /// Executes one op and returns whatever it read (empty for writes).
    fn apply(&mut self, op: &Op) -> Vec<u64> {
        let len = self.v.len();
        match op {
            Op::SweepRead { start, count } => {
                let mut out = vec![0u64; *count];
                if self.oracle {
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = self.v.get(&mut self.m, start + k);
                    }
                } else {
                    MemCtx::bulk(&mut self.m).read_run(&self.v, *start, &mut out);
                }
                out
            }
            Op::SweepWrite { start, count, salt } => {
                let vals: Vec<u64> = (0..*count as u64).map(|j| j.wrapping_mul(*salt)).collect();
                if self.oracle {
                    for (k, &x) in vals.iter().enumerate() {
                        self.v.set(&mut self.m, start + k, x);
                    }
                } else {
                    MemCtx::bulk(&mut self.m).write_run(&self.v, *start, &vals);
                }
                Vec::new()
            }
            Op::Gather { indices } => {
                let mut out = vec![0u64; indices.len()];
                if self.oracle {
                    for (&i, slot) in indices.iter().zip(out.iter_mut()) {
                        *slot = self.v.get(&mut self.m, i as usize);
                    }
                } else {
                    MemCtx::bulk(&mut self.m).gather(&self.v, indices, &mut out);
                }
                out
            }
            Op::Scatter { indices, salt } => {
                let vals: Vec<u64> = (0..indices.len() as u64)
                    .map(|j| j.wrapping_mul(*salt))
                    .collect();
                if self.oracle {
                    for (&i, &x) in indices.iter().zip(&vals) {
                        self.v.set(&mut self.m, i as usize, x);
                    }
                } else {
                    MemCtx::bulk(&mut self.m).scatter(&self.v, indices, &vals);
                }
                Vec::new()
            }
            Op::Update { indices, salt } => {
                // Non-commutative in (k, x): duplicate indices must apply
                // in window order on both paths.
                let f = |k: usize, x: u64| {
                    x.wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(k as u64 ^ salt)
                };
                if self.oracle {
                    for (k, &i) in indices.iter().enumerate() {
                        let old = self.v.get(&mut self.m, i as usize);
                        self.v.set(&mut self.m, i as usize, f(k, old));
                    }
                } else {
                    MemCtx::bulk(&mut self.m).gather_update(&self.v, indices, f);
                }
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
            Op::Pebs(setting) => {
                match *setting {
                    Some((period, jitter)) => self.m.pebs_enable(period, jitter),
                    None => self.m.pebs_disable(),
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
    /// `Some((period, jitter))` enables sampling, `None` disables it.
    Pebs(Option<(u64, u64)>),
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
        7 => Op::Pebs((a & 1 == 0).then_some((64, 16))),
        _ => Op::Pebs(Some((1, 0))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// The block and window engines are bit-identical to the per-element
    /// `get`/`set` loops on arbitrary access programs, placements, array
    /// sizes (base-page and huge mappings), TLB coalescing factors,
    /// mid-run migrations and PEBS settings.
    #[test]
    fn engines_are_bit_identical_to_scalar_loops(
        raw in prop::collection::vec((0u32..9, any::<u64>(), any::<u64>()), 1..24),
        small in 1usize..5,
        huge_units in 0usize..3,
        coalesce_8 in any::<bool>(),
        place in 0u32..3,
    ) {
        let placement = match place {
            0 => Placement::Fast,
            1 => Placement::Slow,
            _ => Placement::Preferred(TierId::FAST),
        };
        // 1..=4 base pages, or 64..=67 / 128..=131: one or two huge units
        // plus a base-page tail.
        let pages = if huge_units == 0 { small } else { huge_units * HUGE_PAGES + small - 1 };
        let tlb_coalesce = if coalesce_8 { 8 } else { 1 };
        let len = pages * ELEMS_PER_PAGE;
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(kind, a, b)| decode(kind, a, b, len, pages))
            .collect();
        let mut oracle = Harness::new(pages, placement, tlb_coalesce, true);
        let mut engine = Harness::new(pages, placement, tlb_coalesce, false);
        if huge_units > 0 {
            let maps = engine.m.mappings_in(engine.v.range());
            prop_assert!(
                maps.iter().filter(|mp| mp.kind == PageKind::Huge2M).count() >= 1,
                "{} pages are not huge-mapped: {:?}", pages, maps
            );
        }
        // Two passes: the second starts from warm TLB/LLC state and
        // whatever placement the stream's migrations left behind.
        for pass in 0..2 {
            for (i, op) in ops.iter().enumerate() {
                let a = oracle.apply(op);
                let b = engine.apply(op);
                prop_assert_eq!(a, b, "read divergence at pass {} op {} ({:?})", pass, i, op);
                prop_assert_eq!(
                    oracle.m.stats(),
                    engine.m.stats(),
                    "counter divergence at pass {} op {} ({:?})", pass, i, op
                );
                prop_assert_eq!(
                    oracle.m.now().as_ns().to_bits(),
                    engine.m.now().as_ns().to_bits(),
                    "clock divergence at pass {} op {} ({:?})", pass, i, op
                );
            }
        }
        prop_assert_eq!(oracle.m.pebs_drain(), engine.m.pebs_drain());
        prop_assert_eq!(
            oracle.v.to_vec(&mut oracle.m),
            engine.v.to_vec(&mut engine.m),
            "data image divergence"
        );
        prop_assert!(oracle.m.audit().is_empty(), "{:?}", oracle.m.audit());
        prop_assert!(engine.m.audit().is_empty(), "{:?}", engine.m.audit());
    }
}

/// One accounted call of the cut-equivalence property: a block read or
/// write over elements `start..start + count`, or an index window.
#[derive(Debug, Clone)]
enum Call {
    Read {
        start: usize,
        count: usize,
    },
    Write {
        start: usize,
        count: usize,
        salt: u64,
    },
    Gather(Vec<u32>),
    Scatter(Vec<u32>, u64),
    Update(Vec<u32>, u64),
}

impl Call {
    /// Elements (block calls) or window slots (window calls).
    fn len(&self) -> usize {
        match self {
            Call::Read { count, .. } | Call::Write { count, .. } => *count,
            Call::Gather(ix) | Call::Scatter(ix, _) | Call::Update(ix, _) => ix.len(),
        }
    }

    /// Runs positions `part` of the call on `port` as one call of its own,
    /// returning what it read. Written values and update functions depend
    /// on the position in the whole call, so every cut writes the same.
    fn run_part(
        &self,
        v: &TrackedVec<u64>,
        port: &mut impl MemPort,
        part: Range<usize>,
    ) -> Vec<u64> {
        let mut ctx = MemCtx::bulk(port);
        let salted = |salt: u64| -> Vec<u64> {
            part.clone()
                .map(|j| (j as u64).wrapping_mul(salt))
                .collect()
        };
        match self {
            Call::Read { start, .. } => {
                let mut out = vec![0; part.len()];
                ctx.read_run(v, start + part.start, &mut out);
                out
            }
            Call::Write { start, salt, .. } => {
                ctx.write_run(v, start + part.start, &salted(*salt));
                Vec::new()
            }
            Call::Gather(ix) => {
                let mut out = vec![0; part.len()];
                ctx.gather(v, &ix[part], &mut out);
                out
            }
            Call::Scatter(ix, salt) => {
                ctx.scatter(v, &ix[part.clone()], &salted(*salt));
                Vec::new()
            }
            Call::Update(ix, salt) => {
                let base = part.start;
                ctx.gather_update(v, &ix[part], |k, x| {
                    x.wrapping_mul(0x100_0000_01b3)
                        .wrapping_add((base + k) as u64 ^ salt)
                });
                Vec::new()
            }
        }
    }

    /// Runs the call cut at `bounds` (ascending, from 0 to `len`) as
    /// consecutive calls, then reads one element of every line of the
    /// array: what the probe hits and misses exposes the TLB and LLC
    /// contents the call left behind.
    fn run_cut(&self, v: &TrackedVec<u64>, port: &mut impl MemPort, bounds: &[usize]) -> Vec<u64> {
        let mut read: Vec<u64> = bounds
            .windows(2)
            .flat_map(|b| self.run_part(v, port, b[0]..b[1]))
            .collect();
        read.extend(probe(v, port));
        read
    }
}

/// One accounted read of every line of `v`, in address order.
fn probe(v: &TrackedVec<u64>, port: &mut impl MemPort) -> Vec<u64> {
    let lines: Vec<u32> = (0..v.len() as u32).step_by(8).collect();
    let mut out = vec![0; lines.len()];
    MemCtx::bulk(port).gather(v, &lines, &mut out);
    out
}

/// Decodes a call whose block ranges span up to three pages and whose
/// windows mix same-line runs, duplicates, same-page strides and jumps.
fn decode_call(kind: u32, a: u64, b: u64, len: usize) -> Call {
    let start = (a % len as u64) as usize;
    let count = (1 + (b % (3 * ELEMS_PER_PAGE) as u64) as usize).min(len - start);
    let mut state = a ^ b.rotate_left(17);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut window = Vec::new();
    let target = 1 + (b % 600) as usize;
    while window.len() < target {
        let i = next() % len;
        match next() % 4 {
            0 => window.extend((i..len.min(i + 1 + next() % 12)).map(|j| j as u32)),
            1 => window.extend([i as u32; 2]),
            2 => window.extend((0..4).map(|k| ((i + 16 * k) % len) as u32)),
            _ => window.push(i as u32),
        }
    }
    window.truncate(target);
    match kind {
        0 => Call::Read { start, count },
        1 => Call::Write {
            start,
            count,
            salt: b | 1,
        },
        2 => Call::Gather(window),
        3 => Call::Scatter(window, a | 1),
        _ => Call::Update(window, b),
    }
}

/// Cut points for `call`: the drawn ones, plus the first position that
/// splits a line and the first that splits a page between its parts
/// (a same-line and a same-page pair of consecutive window slots).
fn cut_bounds(call: &Call, drawn: &[u64]) -> Vec<usize> {
    let len = call.len();
    let line = |e: usize| e / 8;
    let page = |e: usize| e / ELEMS_PER_PAGE;
    let mut bounds: Vec<usize> = drawn
        .iter()
        .map(|&d| (d % (len as u64 + 1)) as usize)
        .collect();
    let structural = |split: &dyn Fn(usize, usize) -> bool| -> Option<usize> {
        let elem = |k: usize| match call {
            Call::Read { start, .. } | Call::Write { start, .. } => start + k,
            Call::Gather(ix) | Call::Scatter(ix, _) | Call::Update(ix, _) => ix[k] as usize,
        };
        (1..len).find(|&k| split(elem(k - 1), elem(k)))
    };
    bounds.extend(structural(&|x, y| line(x) == line(y)));
    bounds.extend(structural(&|x, y| page(x) == page(y) && line(x) != line(y)));
    bounds.extend([0, len]);
    bounds.sort_unstable();
    bounds
}

/// Everything simulated the cut and the uncut call must agree on.
fn observed(m: &mut Machine) -> (atmem_hms::MachineStats, u64, Vec<atmem_hms::SampleRecord>) {
    (m.stats(), m.now().as_ns().to_bits(), m.pebs_drain())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// A block or window call cut into consecutive calls at any points —
    /// mid-line and mid-page included — is the uncut call: equal reads,
    /// counters, clock bits, PEBS stream (off, sampled, every read miss),
    /// TLB/LLC contents (probed) and data image, through the machine, its
    /// resident core and a forked core. This is what lets a kernel stream
    /// an edge array in bounded chunks without moving a simulated bit.
    #[test]
    fn cut_calls_equal_the_uncut_call(
        warm in prop::collection::vec((0u32..9, any::<u64>(), any::<u64>()), 0..8),
        call in (0u32..5, any::<u64>(), any::<u64>()),
        drawn in prop::collection::vec(any::<u64>(), 0..6),
        pebs in 0u32..3,
        port in 0u32..3,
        pages in 1usize..7,
        huge in any::<bool>(),
        coalesce_8 in any::<bool>(),
    ) {
        let pages = if huge { HUGE_PAGES + pages } else { pages };
        let len = pages * ELEMS_PER_PAGE;
        let tlb_coalesce = if coalesce_8 { 8 } else { 1 };
        let call = decode_call(call.0, call.1, call.2, len);
        let cut = cut_bounds(&call, &drawn);
        let mut runs = Vec::new();
        for bounds in [vec![0, call.len()], cut.clone()] {
            // Same warm-up on both: mixed placement, warm TLB/LLC, drained PEBS.
            let mut h = Harness::new(pages, Placement::Preferred(TierId::FAST), tlb_coalesce, false);
            for &(kind, a, b) in &warm {
                h.apply(&decode(kind, a, b, len, pages));
            }
            h.m.pebs_drain();
            match pebs {
                0 => h.m.pebs_disable(),
                1 => h.m.pebs_enable(64, 16),
                _ => h.m.pebs_enable(1, 0),
            }
            let v = &h.v;
            let read = match port {
                0 => call.run_cut(v, &mut h.m, &bounds),
                1 => h.m.run_cores(1, |_, core| call.run_cut(v, core, &bounds)).concat(),
                _ => h.m.run_cores(2, |c, core| {
                    if c == 0 { call.run_cut(v, core, &bounds) } else { Vec::new() }
                }).concat(),
            };
            let image = h.v.to_vec(&mut h.m);
            runs.push((read, observed(&mut h.m), image));
        }
        prop_assert_eq!(&runs[0], &runs[1], "cut at {:?}: {:?}", cut, call);
    }
}
