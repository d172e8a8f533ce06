//! Tier storage: paged, recycled host backing against a flat model.
//!
//! A machine's frames are backed by 4 KiB pages of host memory (one per
//! mapped or pinned frame) that come from, and return to, a process-wide
//! pool; an adopted buffer's whole pages are the buffer itself. None of
//! that may be visible:
//! the data image must be the one a flat, zero-initialised byte array per
//! tier would hold, fresh memory must read zero whatever the recycled
//! page under it held, and no simulated observable may depend on whether
//! the pool was empty or full of another machine's bytes.
//!
//! `ATMEM_PROP_CASES` overrides the property's case count (see `ci.sh`).

use std::sync::Arc;

use atmem_hms::{
    Machine, MachineStats, Placement, Platform, SampleRecord, TierId, TrackedVec, VirtRange,
    PAGE_SIZE,
};
use atmem_prop::prelude::*;

/// The unit these tests lay allocations out in: 64 frames, one simulated
/// huge page. Tier storage backs every frame with a page of its own, so a
/// span crossing one of these boundaries crosses 64 host pages too.
const CHUNK: usize = 256 << 10;
const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;
/// Twelve and a half spans of fast memory, thirty-six and a half of slow:
/// both tiers end in a partial span.
const CAPACITIES: (usize, usize) = ((3 << 20) + CHUNK / 2, (9 << 20) + CHUNK / 2);

fn platform() -> Platform {
    Platform::testing().with_capacities(CAPACITIES.0, CAPACITIES.1)
}

fn assert_clean(m: &mut Machine, context: &str) {
    let violations = m.audit();
    assert!(violations.is_empty(), "{context}: audit {violations:#?}");
}

/// Leaves the page pool holding every page a machine of [`platform`] can
/// back, each full of `0xA5`, on top of whatever it held. (The pool is the
/// process's: tests running beside this one take from it and add to it,
/// which only varies what "whatever" is.)
fn poison_pool() {
    let mut m = Machine::new(platform());
    for (tier, capacity) in [(TierId::FAST, CAPACITIES.0), (TierId::SLOW, CAPACITIES.1)] {
        let v = TrackedVec::<u64>::new(&mut m, capacity / 8, Placement::Tier(tier)).unwrap();
        v.fill(&mut m, 0xA5A5_A5A5_A5A5_A5A5);
    }
}

/// `(tier index, byte offset of the frame)` of every page of `range`.
fn frames_of(m: &Machine, range: VirtRange) -> Vec<(usize, usize)> {
    let pages = VirtRange::new(range.start, range.len.next_multiple_of(PAGE_SIZE));
    let mut frames = Vec::with_capacity(pages.len / PAGE_SIZE);
    for mapping in m.mappings_in(pages) {
        let first = pages.start.page_index().max(mapping.vpage_start);
        let last = (pages.end().page_index()).min(mapping.vpage_start + mapping.pages as u64);
        for vpage in first..last {
            let frame = mapping.frame_start as u64 + (vpage - mapping.vpage_start);
            frames.push((mapping.tier.index(), frame as usize * PAGE_SIZE));
        }
    }
    assert_eq!(frames.len(), pages.len / PAGE_SIZE, "hole in {range:?}");
    frames
}

/// One machine and the flat model of its tiers: a byte array per tier,
/// indexed by frame number, written wherever the machine is written.
struct Model {
    m: Machine,
    flat: [Vec<u8>; 2],
    vecs: Vec<TrackedVec<u64>>,
}

impl Model {
    fn new() -> Self {
        let mut m = Machine::new(platform());
        m.pebs_enable(16, 4);
        Model {
            m,
            flat: [vec![0; CAPACITIES.0], vec![0; CAPACITIES.1]],
            vecs: Vec::new(),
        }
    }

    fn put(&mut self, v: &TrackedVec<u64>, i: usize, value: u64) {
        let frames = frames_of(&self.m, VirtRange::new(v.addr_of(i), 8));
        let (tier, frame) = frames[0];
        let at = frame + v.addr_of(i).page_offset();
        self.flat[tier][at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// The vec's elements as the flat model holds them.
    fn modelled(&self, v: &TrackedVec<u64>) -> Vec<u64> {
        let mut out = Vec::with_capacity(v.len());
        for (tier, frame) in frames_of(&self.m, v.range()) {
            out.extend(
                self.flat[tier][frame..frame + PAGE_SIZE]
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
            );
        }
        out.truncate(v.len());
        out
    }

    /// Every live vec reads as modelled, every mapped frame's bytes equal
    /// the flat array's, and the audit is clean.
    fn check(&mut self, context: &str) {
        let images = [TierId::FAST, TierId::SLOW]
            .map(|t| self.m.storage_to_vec(t, 0, self.flat[t.index()].len()));
        for v in &self.vecs {
            assert!(
                v.to_vec(&mut self.m) == self.modelled(v),
                "{context}: a vec of {} elements differs from the flat model",
                v.len()
            );
            for (tier, frame) in frames_of(&self.m, v.range()) {
                assert!(
                    images[tier][frame..frame + PAGE_SIZE]
                        == self.flat[tier][frame..frame + PAGE_SIZE],
                    "{context}: frame at byte {frame} of tier {tier} differs from the flat model"
                );
            }
        }
        assert_clean(&mut self.m, context);
    }

    /// Moves the pages of `region` with `migrate` and replays the move on
    /// the flat model: the bytes of the old frames land on the new ones.
    fn migrate(&mut self, region: VirtRange, migrate: impl FnOnce(&mut Machine)) {
        let before = frames_of(&self.m, region);
        let moved: Vec<Vec<u8>> = before
            .iter()
            .map(|&(tier, frame)| self.flat[tier][frame..frame + PAGE_SIZE].to_vec())
            .collect();
        migrate(&mut self.m);
        for (page, (tier, frame)) in moved.iter().zip(frames_of(&self.m, region)) {
            self.flat[tier][frame..frame + PAGE_SIZE].copy_from_slice(page);
        }
    }

    fn apply(&mut self, (kind, a, b, c): (u32, usize, usize, u64)) {
        if kind == 0 || self.vecs.is_empty() {
            let placement = [
                Placement::Slow,
                Placement::Fast,
                Placement::Preferred(TierId::FAST),
            ][b % 3];
            // Up to 2.7 MiB: ten spans, so runs cross spans and a few
            // allocations fill a tier.
            let Ok(v) = TrackedVec::<u64>::new(&mut self.m, 1 + a % 350_000, placement) else {
                return;
            };
            // Fresh memory reads zero.
            for (tier, frame) in frames_of(&self.m, v.range()) {
                self.flat[tier][frame..frame + PAGE_SIZE].fill(0);
            }
            self.vecs.push(v);
            return;
        }
        // Lifted out of the list while the machine is borrowed beside it.
        let v = self.vecs.swap_remove(a % self.vecs.len());
        let pages = v.range().len.div_ceil(PAGE_SIZE);
        let region = {
            let start = b % pages;
            let count = (1 + c as usize % 300).min(pages - start);
            VirtRange::new(
                v.range().start.add((start * PAGE_SIZE) as u64),
                count * PAGE_SIZE,
            )
        };
        let dst = TierId::new(c as usize % 2);
        match kind {
            1 => return v.free(&mut self.m).unwrap(),
            2 => {
                let i = b % v.len();
                v.set(&mut self.m, i, c);
                self.put(&v, i, c);
            }
            3 => {
                let start = b % v.len();
                let values: Vec<u64> = (0..(v.len() - start).min(5_000) as u64)
                    .map(|k| c.wrapping_add(k))
                    .collect();
                v.write_slice(&mut self.m, start, &values);
                for (k, &value) in values.iter().enumerate() {
                    self.put(&v, start + k, value);
                }
            }
            4 => {
                let indices: Vec<u32> = (0..64u64)
                    .map(|k| (c.wrapping_mul(2 * k + 1) % v.len() as u64) as u32)
                    .collect();
                let values: Vec<u64> = (0..64).map(|k| c ^ k).collect();
                v.scatter(&mut self.m, &indices, &values);
                for (&i, &value) in indices.iter().zip(&values) {
                    self.put(&v, i as usize, value);
                }
            }
            5 => self.migrate(region, |m| {
                let Ok(run) = m.alloc_frames(dst, region.len / PAGE_SIZE) else {
                    return;
                };
                m.copy_region_to_frames(region, dst, run, 4).unwrap();
                if m.remap_region(region, dst).is_ok() {
                    m.copy_frames_to_region(dst, run, region, 4).unwrap();
                }
                m.free_frames(dst, run);
            }),
            6 => self.migrate(region, |m| {
                // Out of destination memory moves a prefix only.
                let _ = m.migrate_mbind(region, dst);
            }),
            _ => {
                // A sharded phase: each of two cores writes its half.
                let half = v.len() / 2;
                let written = self.m.run_cores(2, |core, h| {
                    let (lo, hi) = [(0, half), (half, v.len())][core];
                    let mine: Vec<usize> = (lo..hi).step_by(WORDS_PER_PAGE / 2 + 1).collect();
                    for &i in &mine {
                        v.set(h, i, c ^ i as u64);
                    }
                    mine
                });
                for i in written.into_iter().flatten() {
                    self.put(&v, i, c ^ i as u64);
                }
            }
        }
        self.vecs.push(v);
    }
}

/// Everything simulated a program leaves behind.
#[derive(Debug, PartialEq)]
struct Observables {
    stats: MachineStats,
    clock_bits: u64,
    samples: Vec<SampleRecord>,
    images: Vec<Vec<u64>>,
}

/// Runs `ops` — on the pool as it is, or freshly [poisoned](poison_pool) —
/// checking the machine against the flat model after every migration and
/// at the end.
///
/// The machine first adopts a buffer of two and a half spans (all its
/// 160 pages aliased, read-only), which reads as the buffer throughout.
/// Once the machine is dropped, the pool is poisoned again: were a
/// read-only page in it, the `0xA5` would land in the buffer.
fn run(ops: &[(u32, usize, usize, u64)], poisoned: bool) -> Observables {
    if poisoned {
        poison_pool();
    }
    let original: Vec<u64> = (0..(5 * CHUNK / 2 / 8) as u64)
        .map(|i| i ^ 0x5A5A)
        .collect();
    let buffer = Arc::new(original.clone());
    let mut model = Model::new();
    let adopted = TrackedVec::adopt(&mut model.m, Arc::clone(&buffer), Placement::Slow).unwrap();
    assert!(adopted.values(&model.m).eq(original.iter().copied()));
    for (step, &op) in ops.iter().enumerate() {
        model.apply(op);
        if matches!(op.0, 1 | 5 | 6) {
            model.check(&format!("step {step} ({op:?}), poisoned pool: {poisoned}"));
        }
    }
    model.check(&format!("end of program, poisoned pool: {poisoned}"));
    assert!(adopted.values(&model.m).eq(original.iter().copied()));
    let Model { mut m, vecs, .. } = model;
    let observables = Observables {
        stats: m.stats(),
        clock_bits: m.now().as_ns().to_bits(),
        samples: m.pebs_drain(),
        images: vecs.iter().map(|v| v.to_vec(&mut m)).collect(),
    };
    drop(m);
    poison_pool();
    assert!(*buffer == original, "a read-only page reached the pool");
    observables
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(12)))]

    /// Random programs of allocations, frees, scalar / block / window
    /// writes, hand-staged and `mbind` migrations and sharded phases leave
    /// the data image a flat array per tier would hold, and the same
    /// simulated observables whether or not the pool was just filled with
    /// another machine's bytes.
    #[test]
    fn chunked_storage_matches_a_flat_shadow(
        ops in prop::collection::vec(
            (0u32..8, 0usize..1 << 30, 0usize..1 << 30, any::<u64>()),
            8..40,
        ),
    ) {
        let plain = run(&ops, false);
        let poisoned = run(&ops, true);
        prop_assert!(plain == poisoned, "observables depend on the pool's state");
    }
}

/// Fill a machine with `0xA5`, drop it, build another: it is backed by
/// pages the first one dirtied, and every fresh allocation still reads
/// zero.
#[test]
fn fresh_memory_reads_zero_on_a_poisoned_pool() {
    poison_pool();
    let mut m = Machine::new(platform());
    let mut vecs = Vec::new();
    for (elems, placement) in [
        (CAPACITIES.0 / 8, Placement::Fast),
        (CHUNK + 1000, Placement::Slow),
        (3, Placement::Slow),
        (CHUNK / 2, Placement::Preferred(TierId::FAST)),
    ] {
        let v = TrackedVec::<u64>::new(&mut m, elems, placement).unwrap();
        assert!(
            v.values(&m).all(|x| x == 0),
            "a fresh {placement:?} allocation of {elems} elements shows stale bytes"
        );
        v.fill(&mut m, 0xA5A5_A5A5_A5A5_A5A5);
        vecs.push((v, placement));
    }
    assert_clean(&mut m, "after the allocations");
    // Freed and allocated again within one machine.
    for (v, placement) in vecs {
        let len = v.len();
        v.free(&mut m).unwrap();
        let again = TrackedVec::<u64>::new(&mut m, len, placement).unwrap();
        assert!(again.values(&m).all(|x| x == 0), "re-allocation of {len}");
    }
    assert_clean(&mut m, "after the re-allocations");
}

/// Blocks, windows and region copies across a span boundary (and the 64
/// page boundaries of host memory around it), and in the partial last span
/// of a tier.
#[test]
fn accesses_straddle_chunk_boundaries_and_the_partial_last_chunk() {
    let mut m = Machine::new(platform());
    // A span and a half from frame 0 of the slow tier.
    let n = (CHUNK + CHUNK / 2) / 8;
    let v = TrackedVec::<u64>::new(&mut m, n, Placement::Slow).unwrap();
    let boundary = CHUNK / 8;
    assert_eq!(frames_of(&m, v.range())[0], (TierId::SLOW.index(), 0));
    v.fill_with(&mut m, |i| i as u64);

    // A block across the boundary, read and written.
    let mut block = vec![0u64; 4096];
    v.read_slice(&mut m, boundary - 2048, &mut block);
    assert!(block
        .iter()
        .zip(boundary - 2048..)
        .all(|(&x, i)| x == i as u64));
    let doubled: Vec<u64> = block.iter().map(|x| x * 2).collect();
    v.write_slice(&mut m, boundary - 2048, &doubled);
    let mut sum = 0;
    v.scan(&mut m, boundary - 2048, 4096, |_, x| sum += x);
    assert_eq!(sum, doubled.iter().sum::<u64>());

    // Windows with neighbours on either side of the boundary.
    let indices: Vec<u32> = (0..64).map(|k| (boundary - 32 + k) as u32).collect();
    let mut out = vec![0u64; 64];
    v.gather(&mut m, &indices, &mut out);
    assert!(out.iter().zip(&indices).all(|(&x, &i)| x == 2 * i as u64));
    v.scatter(
        &mut m,
        &indices,
        &out.iter().map(|x| x + 1).collect::<Vec<_>>(),
    );
    v.gather_update(&mut m, &indices, |_, old| old + 1);
    assert_eq!(v.get(&mut m, boundary - 1), 2 * (boundary as u64 - 1) + 2);
    assert_eq!(v.get(&mut m, boundary), 2 * boundary as u64 + 2);
    let expect = v.to_vec(&mut m);

    // A staged region copy of 12 pages around the boundary, into the fast
    // tier's partial last span: fill every whole span of the tier so the
    // staging run and the destination share the half span that is left.
    let whole = CAPACITIES.0 - CHUNK / 2;
    let pin = m.alloc(whole, Placement::Fast).unwrap();
    let region = VirtRange::new(
        v.range().start.add((CHUNK - 6 * PAGE_SIZE) as u64),
        12 * PAGE_SIZE,
    );
    let run = m.alloc_frames(TierId::FAST, 12).unwrap();
    m.copy_region_to_frames(region, TierId::FAST, run, 4)
        .unwrap();
    m.remap_region(region, TierId::FAST).unwrap();
    m.copy_frames_to_region(TierId::FAST, run, region, 4)
        .unwrap();
    m.free_frames(TierId::FAST, run);
    assert!(frames_of(&m, region)
        .iter()
        .all(|&(tier, frame)| tier == 0 && frame >= whole));
    assert!(
        v.to_vec(&mut m) == expect,
        "staged copy across the boundary"
    );

    // The same pages back with `mbind`, then everything freed: the pages
    // all go back to the pool.
    m.migrate_mbind(region, TierId::SLOW).unwrap();
    assert!(v.to_vec(&mut m) == expect, "mbind back across the boundary");
    assert_clean(&mut m, "after the migrations");
    v.free(&mut m).unwrap();
    m.free(pin).unwrap();
    assert_clean(&mut m, "after the frees");
    for (tier, capacity) in [(TierId::FAST, CAPACITIES.0), (TierId::SLOW, CAPACITIES.1)] {
        assert!(
            m.storage_to_vec(tier, 0, capacity).iter().all(|&b| b == 0),
            "an empty machine backs no page"
        );
    }
}
