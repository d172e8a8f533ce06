//! Migration data-image property test.
//!
//! Random interleavings of staged and `mbind` region migrations —
//! plus the staged primitives driven by hand — over one allocation on the
//! two- and three-tier testing presets, each region under a scripted fault
//! at one of the migration path's gates (staging allocation, the stage-1
//! and stage-3 copies, the remap, the per-page frame grab, the per-page
//! status check). The data is rewritten between regions, so a replay of
//! stale bytes cannot pass for the live image.
//!
//! A second allocation adopts a host buffer ([`TrackedVec::adopt`]): its
//! whole 4 KiB pages of tier storage are the buffer itself, read-only, so
//! every migration of it must hand them over whole or trade them for owned
//! copies. Its regions are drawn among the others, larger (up to 200
//! pages), and never rewritten.
//!
//! After every region: the whole allocation reads back equal to a shadow
//! `Vec<u64>`, the adopted one equal to its buffer's first contents, the
//! buffer is byte-unchanged, no staging run is outstanding, and
//! [`Machine::audit`] is clean. The hand-driven regions also prove where staged bytes live: the
//! tier storage under a staging run is bit-identical before
//! [`Machine::alloc_frames`] and after [`Machine::free_frames`] wherever the
//! tier has storage at all, and the run itself never gives it any.
//!
//! A deterministic companion, `host_pages_are_exactly_the_mapped_and_pinned_frames`,
//! runs rounds of the three kinds of migration over regions that start and
//! end anywhere and checks the host side: tier storage holds a page for
//! exactly the mapped and pinned frames, and no page move copies a byte.
//!
//! `ATMEM_PROP_CASES` overrides the case count (see `ci.sh`).
//!
//! [`Machine::audit`]: atmem_hms::Machine::audit
//! [`Machine::alloc_frames`]: atmem_hms::Machine::alloc_frames
//! [`Machine::free_frames`]: atmem_hms::Machine::free_frames
//! [`TrackedVec::adopt`]: atmem_hms::TrackedVec::adopt

use std::sync::Arc;

use atmem::{execute_regions, MigrationConfig, MigrationMechanism, ObjectId, PlannedRegion};
use atmem_hms::{
    FaultPlan, FaultSite, Machine, Mapping, MemPort, Placement, Platform, TierId, TrackedVec,
    VirtRange,
};
use atmem_prop::prelude::*;

const PAGE: usize = 4096;
const WORDS_PER_PAGE: usize = PAGE / 8;

/// Every mapping of every live allocation.
fn mappings(m: &Machine) -> Vec<Mapping> {
    let allocated: Vec<VirtRange> = m
        .allocations()
        .map(|a| VirtRange::new(a.range.start, a.pages * PAGE))
        .collect();
    allocated
        .into_iter()
        .flat_map(|r| m.mappings_in(r))
        .collect()
}

/// Per frame of `tier`, whether a mapping maps it — the frames that, with a
/// staged region's pinned sources, have bytes (a page of host memory).
fn backed_frames(m: &Machine, tier: TierId) -> Vec<bool> {
    let mut backed = vec![false; m.capacity(tier) / PAGE];
    for mapping in mappings(m).into_iter().filter(|mp| mp.tier == tier) {
        let frames = mapping.frame_start as usize..(mapping.frame_start + mapping.pages) as usize;
        backed[frames].fill(true);
    }
    backed
}

/// The scripted fault of one region: `(site, nth consult of that site)`.
/// A fresh plan is installed per region, so `Move` 0 is the stage-1 copy
/// and `Move` 1 the stage-3 copy; `FrameAlloc` is consulted by the remap's
/// mapping build and by every `mbind` page, `PageStatus` by every `mbind`
/// page.
const FAULTS: [(FaultSite, u64); 8] = [
    (FaultSite::StagingAlloc, 0),
    (FaultSite::Move, 0),
    (FaultSite::Move, 1),
    (FaultSite::Remap, 0),
    (FaultSite::FrameAlloc, 0),
    (FaultSite::FrameAlloc, 3),
    (FaultSite::PageStatus, 0),
    (FaultSite::PageStatus, 2),
];

/// Pages of the adopted allocation: each a page of the buffer itself,
/// read-only, which a migration hands over whole.
const ADOPTED_PAGES: usize = 200;

/// One machine, one allocation, and the words it must hold; and an adopted
/// allocation, the buffer it adopted, and what that buffer held.
struct Image {
    m: Machine,
    range: VirtRange,
    shadow: Vec<u64>,
    adopted: TrackedVec<u64>,
    buffer: Arc<Vec<u64>>,
    original: Vec<u64>,
}

impl Image {
    fn new(platform: Platform, pages: usize, seed: u64) -> Self {
        let tiers = platform.tiers.len();
        let mut m = Machine::new(platform);
        let range = m.alloc(pages * PAGE, Placement::Slow).unwrap();
        let original: Vec<u64> = (0..(ADOPTED_PAGES * WORDS_PER_PAGE) as u64)
            .map(|i| !i.wrapping_mul(seed.rotate_left(17) | 1))
            .collect();
        let buffer = Arc::new(original.clone());
        let adopted = TrackedVec::adopt(&mut m, Arc::clone(&buffer), Placement::Slow).unwrap();
        // Fragment every tier: fill its free space with pinned 1..8-page
        // allocations, then release every other one (holes of at most 8
        // pages) and the first dozen outright (one hole of 50-odd pages).
        // A staging run then comes out of the large hole, a remap of more
        // than half of it has to settle for several smaller frame runs —
        // so regions have several segments on either side of a copy — and
        // a staging run the large hole cannot hold is a skip.
        let mut k = seed;
        for tier in (0..tiers).map(TierId::new) {
            let mut pins = Vec::new();
            loop {
                k = k
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let pin_pages = 1 + (k >> 61) as usize;
                match m.alloc(pin_pages * PAGE, Placement::Tier(tier)) {
                    Ok(pin) => pins.push(pin),
                    Err(_) => break,
                }
            }
            for (i, pin) in pins.into_iter().enumerate() {
                if i < 12 || i % 2 == 1 {
                    m.free(pin).unwrap();
                }
            }
        }
        let shadow: Vec<u64> = (0..(pages * WORDS_PER_PAGE) as u64)
            .map(|i| i.wrapping_mul(seed | 1))
            .collect();
        for (i, &w) in shadow.iter().enumerate() {
            m.poke::<u64>(range.start.add(i as u64 * 8), w).unwrap();
        }
        Image {
            m,
            range,
            shadow,
            adopted,
            buffer,
            original,
        }
    }

    fn pages(&self, start: usize, count: usize) -> VirtRange {
        VirtRange::new(self.range.start.add((start * PAGE) as u64), count * PAGE)
    }

    fn adopted_pages(&self, start: usize, count: usize) -> VirtRange {
        let first = self.adopted.range().start;
        VirtRange::new(first.add((start * PAGE) as u64), count * PAGE)
    }

    /// Rewrites one word in every page of `start..start + count`.
    fn scribble(&mut self, start: usize, count: usize, salt: u64) {
        for page in start..start + count {
            let word = page * WORDS_PER_PAGE + (salt as usize + page) % WORDS_PER_PAGE;
            self.shadow[word] = self.shadow[word].rotate_left(7) ^ salt;
            self.m
                .poke::<u64>(self.range.start.add(word as u64 * 8), self.shadow[word])
                .unwrap();
        }
    }

    fn check(&mut self, context: &str) {
        for (i, &want) in self.shadow.iter().enumerate() {
            let got = self
                .m
                .peek::<u64>(self.range.start.add(i as u64 * 8))
                .unwrap();
            assert_eq!(
                got,
                want,
                "{context}: word {i} (page {})",
                i / WORDS_PER_PAGE
            );
        }
        assert!(
            self.adopted
                .values(&self.m)
                .eq(self.original.iter().copied()),
            "{context}: the adopted allocation no longer reads as its buffer did"
        );
        assert!(
            *self.buffer == self.original,
            "{context}: the adopted buffer was written"
        );
        assert!(
            self.m.outstanding_staging().is_empty(),
            "{context}: staging leaked {:?}",
            self.m.outstanding_staging()
        );
        let violations = self.m.audit();
        assert!(violations.is_empty(), "{context}: audit {violations:#?}");
    }

    /// The three stages by hand, fault-free, watching the tier bytes under
    /// the staging run.
    fn stage_by_hand(&mut self, range: VirtRange, dst: TierId, context: &str) {
        let m = &mut self.m;
        let tier_before = m.storage_to_vec(dst, 0, m.capacity(dst));
        let backed_before = backed_frames(m, dst);
        let Ok(run) = m.alloc_frames(dst, range.len / PAGE) else {
            return;
        };
        // A tier has bytes only under a mapped (or a staged region's
        // pinned) frame — never under the staging run (the audit,
        // mid-flight, checks exactly that). So wherever the tier has bytes
        // under the run both before and after a stage, they must be the
        // same bytes; where it has none, a write would have panicked.
        // `assert!`, not `assert_eq!`: a failure must not print the run.
        let untouched = |m: &mut Machine, stage: &str| {
            let violations = m.audit();
            assert!(
                violations.is_empty(),
                "{context}: audit after {stage}: {violations:#?}"
            );
            let backed_now = backed_frames(m, dst);
            for frame in run.start as usize..(run.start + run.count) as usize {
                let at = frame * PAGE;
                assert!(
                    !(backed_before[frame] && backed_now[frame])
                        || m.storage_to_vec(dst, at, PAGE) == tier_before[at..at + PAGE],
                    "{context}: tier bytes under the staging run changed by {stage}"
                );
            }
        };
        m.copy_region_to_frames(range, dst, run, 4).unwrap();
        untouched(m, "the stage-1 copy");
        if m.remap_region(range, dst).is_ok() {
            m.copy_frames_to_region(dst, run, range, 4).unwrap();
        }
        untouched(m, "the remap and stage-3 copy");
        m.free_frames(dst, run);
        untouched(m, "free_frames");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    #[test]
    fn migrations_preserve_the_data_image(
        seed in 1u64..1 << 48,
        three_tiers in any::<bool>(),
        pages in 24usize..80,
        ops in prop::collection::vec(
            (
                (0u32..3, 0usize..80, 1usize..40, 0usize..3),
                (0usize..2 * FAULTS.len(), any::<u64>()),
            ),
            4..12,
        ),
    ) {
        let platform = if three_tiers { Platform::testing_three() } else { Platform::testing() };
        let tiers = platform.tiers.len();
        let mut image = Image::new(platform, pages, seed);
        for (step, &((kind, start, count, dst), (fault, salt))) in ops.iter().enumerate() {
            let dst = TierId::new(dst % tiers);
            // A third of the regions lie in the adopted allocation.
            let (range, context) = if salt % 3 == 0 {
                let start = start * ADOPTED_PAGES / 80;
                let count = (5 * count).min(ADOPTED_PAGES - start);
                let context = format!("step {step}: kind {kind}, adopted pages {start}+{count} -> {dst}");
                (image.adopted_pages(start, count), context)
            } else {
                let start = start % pages;
                let count = count.min(pages - start);
                image.scribble(start, count, salt);
                let context = format!("step {step}: kind {kind}, pages {start}+{count} -> {dst}");
                (image.pages(start, count), context)
            };
            if kind == 2 {
                image.stage_by_hand(range, dst, &context);
                image.check(&context);
                continue;
            }
            let config = MigrationConfig {
                mechanism: [MigrationMechanism::Staged, MigrationMechanism::Mbind][kind as usize],
                ..MigrationConfig::default()
            };
            // Half the regions run fault-free.
            let plan = FAULTS.get(fault).map(|&(site, nth)| FaultPlan::new().fail_at(site, nth));
            image.m.set_fault_plan(plan);
            let region = PlannedRegion {
                object: ObjectId::from_index(0),
                range,
                priority: 1.0,
                dst: None,
            };
            let (outcome, _) = execute_regions(&mut image.m, &[region], &config, dst)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            image.m.set_fault_plan(None);
            prop_assert_eq!(
                outcome.bytes_moved + outcome.bytes_skipped + outcome.bytes_failed,
                range.len,
                "{}", context
            );
            image.check(&context);
        }
    }
}

/// Pages of every live mapping.
fn mapped_pages(m: &Machine) -> usize {
    mappings(m).iter().map(|mp| mp.pages as usize).sum()
}

/// Rounds of staged (through the migration engine and by hand) and `mbind`
/// migrations of regions that start and end on any page, in a written
/// allocation and in an adopted one, to either tier. Tier storage must hold
/// a host page for exactly the mapped frames after every round, and for the
/// mapped frames plus a staged region's pinned sources mid-flight — so host
/// memory cannot grow with frames a region boundary leaves behind — and no
/// staged or `mbind` page move may copy a byte: pages change hands.
#[test]
fn host_pages_are_exactly_the_mapped_and_pinned_frames() {
    let mut m = Machine::new(Platform::testing());
    let words: Vec<u64> = (0..(300 * WORDS_PER_PAGE) as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let written = TrackedVec::<u64>::new(&mut m, words.len(), Placement::Slow).unwrap();
    written.fill_from(&mut m, &words);
    let buffer: Arc<Vec<u64>> =
        Arc::new(words[..200 * WORDS_PER_PAGE].iter().map(|w| !w).collect());
    let adopted = TrackedVec::adopt(&mut m, Arc::clone(&buffer), Placement::Slow).unwrap();
    let host_pages = |m: &Machine, pinned: usize, context: &str| {
        assert_eq!(
            m.storage_backed_pages(),
            mapped_pages(m) + pinned,
            "{context}: host pages are not the mapped and pinned frames"
        );
    };
    host_pages(&m, 0, "set-up");
    let mut k = 0x2545_F491_4F6C_DD1Du64;
    for round in 0..60 {
        k ^= k << 13;
        k ^= k >> 7;
        k ^= k << 17;
        let vec = if round / 3 % 2 == 0 {
            &written
        } else {
            &adopted
        };
        let pages = vec.range().len.div_ceil(PAGE);
        let start = (k % pages as u64) as usize;
        let count = 1 + (k >> 32) as usize % 97.min(pages - start);
        let region = VirtRange::new(vec.range().start.add((start * PAGE) as u64), count * PAGE);
        let dst = TierId::new((k >> 16) as usize % 2);
        let context = format!("round {round}: pages {start}+{count} -> {dst}");
        let copied = m.storage_copied_bytes();
        if round % 3 == 2 {
            let run = m.alloc_frames(dst, count).unwrap();
            m.copy_region_to_frames(region, dst, run, 4).unwrap();
            host_pages(&m, 0, &format!("{context}, staged"));
            if m.remap_region(region, dst).is_ok() {
                host_pages(&m, count, &format!("{context}, remapped"));
                m.copy_frames_to_region(dst, run, region, 4).unwrap();
            }
            m.free_frames(dst, run);
        } else {
            let config = MigrationConfig {
                mechanism: [MigrationMechanism::Staged, MigrationMechanism::Mbind][round % 3],
                ..MigrationConfig::default()
            };
            let region = PlannedRegion {
                object: ObjectId::from_index(0),
                range: region,
                priority: 1.0,
                dst: None,
            };
            execute_regions(&mut m, &[region], &config, dst).unwrap();
        }
        assert_eq!(
            m.storage_copied_bytes(),
            copied,
            "{context}: a page move copied bytes"
        );
        host_pages(&m, 0, &context);
        assert!(
            written.values(&m).eq(words.iter().copied()),
            "{context}: data"
        );
        assert!(
            adopted.values(&m).eq(buffer.iter().copied()),
            "{context}: adopted data"
        );
        let violations = m.audit();
        assert!(violations.is_empty(), "{context}: audit {violations:#?}");
    }
}
