//! Integration and property tests of both migration mechanisms.

use atmem::{
    build_demotion_cascade, chunk_geometry, execute_plan, Analysis, ChunkConfig, LocalSelection,
    MigrationConfig, MigrationPlan, ObjectAnalysis, ObjectId, PlannedRegion, Registry,
};
use atmem_hms::{Machine, MemPort, Placement, Platform, TierId, VirtRange};
use atmem_prop::prelude::*;

const PAGE: usize = 4096;

fn filled_machine(bytes: usize, seed: u64) -> (Machine, VirtRange) {
    // Size the fast tier to hold the region plus staging comfortably.
    let platform =
        Platform::testing().with_capacities(4 * bytes.max(1 << 20), 8 * bytes.max(1 << 20));
    let mut m = Machine::new(platform);
    let r = m.alloc(bytes, Placement::Slow).unwrap();
    for i in 0..(bytes / 8) as u64 {
        m.poke::<u64>(r.start.add(i * 8), i.wrapping_mul(seed | 1))
            .unwrap();
    }
    (m, VirtRange::new(r.start, bytes))
}

fn plan_of(ranges: &[VirtRange]) -> MigrationPlan {
    MigrationPlan {
        regions: ranges
            .iter()
            .map(|&range| PlannedRegion {
                object: ObjectId::from_index(0),
                range,
                priority: 1.0,
                dst: None,
            })
            .collect(),
        total_bytes: ranges.iter().map(|r| r.len).sum(),
        dropped_bytes: 0,
    }
}

#[test]
fn both_mechanisms_produce_identical_bytes() {
    let (mut m1, r1) = filled_machine(4 * 1024 * 1024, 3);
    let (mut m2, r2) = filled_machine(4 * 1024 * 1024, 3);
    m1.migrate_mbind(r1, TierId::FAST).unwrap();
    execute_plan(
        &mut m2,
        &plan_of(&[r2]),
        &MigrationConfig::default(),
        TierId::FAST,
    )
    .unwrap();
    for i in (0..(r1.len / 8) as u64).step_by(509) {
        let a = m1.peek::<u64>(r1.start.add(i * 8)).unwrap();
        let b = m2.peek::<u64>(r2.start.add(i * 8)).unwrap();
        assert_eq!(a, b, "divergence at word {i}");
    }
    assert!(m1.audit().is_empty(), "{:?}", m1.audit());
    assert!(m2.audit().is_empty(), "{:?}", m2.audit());
}

/// The tier each page of `r` resides on, in page order.
fn page_tiers(m: &mut Machine, r: VirtRange) -> Vec<TierId> {
    (0..r.len / PAGE)
        .map(|p| m.tier_of(r.start.add((p * PAGE) as u64)).unwrap())
        .collect()
}

/// Differential placement check: fault-free staged migration and the mbind
/// baseline must land the same pages on the same tiers, for promotion
/// (slow -> fast) and demotion (fast -> slow) plans alike. The mechanisms
/// differ in speed and mapping granularity, never in placement.
#[test]
fn staged_and_mbind_agree_on_placement_both_directions() {
    for dst in [TierId::FAST, TierId::SLOW] {
        let setup = || {
            let (mut m, r) = filled_machine(64 * PAGE, 17);
            if dst == TierId::SLOW {
                // Demotion needs the data fast-resident first.
                m.migrate_mbind(r, TierId::FAST).unwrap();
            }
            (m, r)
        };
        let (mut m1, r1) = setup();
        let (mut m2, r2) = setup();
        // Two disjoint subranges, leaving untouched pages on either side.
        let subs = |r: VirtRange| {
            [
                VirtRange::new(r.start.add(4 * PAGE as u64), 16 * PAGE),
                VirtRange::new(r.start.add(40 * PAGE as u64), 8 * PAGE),
            ]
        };
        for sub in subs(r1) {
            m1.migrate_mbind(sub, dst).unwrap();
        }
        execute_plan(
            &mut m2,
            &plan_of(&subs(r2)),
            &MigrationConfig::default(),
            dst,
        )
        .unwrap();
        assert_eq!(
            page_tiers(&mut m1, r1),
            page_tiers(&mut m2, r2),
            "placement diverges for dst {dst:?}"
        );
        for i in 0..(r1.len / 8) as u64 {
            assert_eq!(
                m1.peek::<u64>(r1.start.add(i * 8)).unwrap(),
                m2.peek::<u64>(r2.start.add(i * 8)).unwrap(),
                "data diverges at word {i} for dst {dst:?}"
            );
        }
        assert!(m1.audit().is_empty(), "{:?}", m1.audit());
        assert!(m2.audit().is_empty(), "{:?}", m2.audit());
    }
}

/// A three-tier machine with one allocation resident on each named tier.
/// Returns the machine and the (hot, warm, cold) ranges, each filled with
/// a distinct seeded pattern.
fn three_tier_machine(pages: usize) -> (Machine, VirtRange, VirtRange, VirtRange) {
    let bytes = pages * PAGE;
    let platform =
        Platform::testing_three().with_tier_capacities(&[8 * bytes, 8 * bytes, 32 * bytes]);
    let mut m = Machine::new(platform);
    let hot = m.alloc(bytes, Placement::Fast).unwrap();
    let warm = m.alloc(bytes, Placement::Slow).unwrap();
    let cold = m.alloc(bytes, Placement::Slow).unwrap();
    m.migrate_mbind(warm, TierId::new(1)).unwrap();
    for (range, seed) in [(hot, 3u64), (warm, 5), (cold, 7)] {
        for i in 0..(bytes / 8) as u64 {
            m.poke::<u64>(range.start.add(i * 8), i.wrapping_mul(seed))
                .unwrap();
        }
    }
    (m, hot, warm, cold)
}

/// Multi-hop plans: a single `execute_plan` call routes each region to its
/// own destination tier via `PlannedRegion::dst`, with the call-level tier
/// only a default for regions that leave it unset.
#[test]
fn per_region_destinations_route_one_plan_across_three_tiers() {
    let (mut m, hot, warm, cold) = three_tier_machine(32);
    let plan = MigrationPlan {
        regions: vec![
            // Promote the cold range all the way to the hottest tier.
            PlannedRegion {
                object: ObjectId::from_index(0),
                range: cold,
                priority: 2.0,
                dst: Some(TierId::new(0)),
            },
            // Demote the hot range one hop down.
            PlannedRegion {
                object: ObjectId::from_index(1),
                range: hot,
                priority: 1.0,
                dst: Some(TierId::new(1)),
            },
            // No explicit dst: inherits the call-level destination.
            PlannedRegion {
                object: ObjectId::from_index(2),
                range: warm,
                priority: 0.5,
                dst: None,
            },
        ],
        total_bytes: cold.len + hot.len + warm.len,
        dropped_bytes: 0,
    };
    let out = execute_plan(&mut m, &plan, &MigrationConfig::default(), TierId::new(2)).unwrap();
    assert_eq!(out.bytes_moved, plan.total_bytes);
    assert_eq!(m.resident_bytes(cold, TierId::new(0)), cold.len);
    assert_eq!(m.resident_bytes(hot, TierId::new(1)), hot.len);
    assert_eq!(m.resident_bytes(warm, TierId::new(2)), warm.len);
    for (range, seed) in [(hot, 3u64), (warm, 5), (cold, 7)] {
        for i in (0..(range.len / 8) as u64).step_by(127) {
            assert_eq!(
                m.peek::<u64>(range.start.add(i * 8)).unwrap(),
                i.wrapping_mul(seed),
                "data torn at word {i}"
            );
        }
    }
    assert!(m.audit().is_empty(), "{:?}", m.audit());
}

/// A demotion cascade executed hop by hop (coldest pair first, as
/// `build_demotion_cascade` orders them) conserves every byte and leaves
/// the audit clean after *every* hop, not just at the end.
#[test]
fn demotion_cascade_is_audit_clean_after_every_hop() {
    let (mut m, hot, warm, _cold) = three_tier_machine(32);
    // Hop 1 (coldest pair): middle tier drains to the coldest tier to make
    // room for the incoming demotion from the hottest tier.
    let hops = [
        (warm, TierId::new(1), TierId::new(2)),
        (hot, TierId::new(0), TierId::new(1)),
    ];
    for (range, src, dst) in hops {
        let out =
            execute_plan(&mut m, &plan_of(&[range]), &MigrationConfig::default(), dst).unwrap();
        assert_eq!(out.bytes_moved, range.len, "hop {src} -> {dst} incomplete");
        assert_eq!(m.resident_bytes(range, src), 0);
        assert_eq!(m.resident_bytes(range, dst), range.len);
        assert!(
            m.audit().is_empty(),
            "hop {src} -> {dst} left violations: {:?}",
            m.audit()
        );
    }
    for (range, seed) in [(hot, 3u64), (warm, 5)] {
        for i in (0..(range.len / 8) as u64).step_by(127) {
            assert_eq!(
                m.peek::<u64>(range.start.add(i * 8)).unwrap(),
                i.wrapping_mul(seed),
                "data torn at word {i}"
            );
        }
    }
}

/// End-to-end cascade scenario with a *genuinely overcommitted* middle
/// tier. Object A (64 KiB, all non-critical) sits on the top tier and must
/// be demoted; object B half-occupies a 128 KiB middle tier, but every one
/// of B's chunks is only *half resident* there (the other half was mbind'd
/// down earlier), so region lengths overcount the middle-tier bytes a
/// demotion frees by 2x.
///
/// The numbers are an exact fit and pin two cascade-accounting rules:
///
/// * the hotter hop's transient footprint on the middle tier is
///   `total_bytes + max region len` (in-flight staging + fresh remap
///   frames), not `total_bytes` — here 96 KiB against 64 KiB free, so a
///   middle hop is required at all;
/// * the middle hop must be sized by *freed resident bytes*, not region
///   lengths — two 32 KiB regions of B free only 32 KiB, so both are
///   needed. Either rule dropped, and the top hop's second region fails
///   its frame allocation.
#[test]
fn cascade_sizes_middle_hop_by_resident_bytes_and_staging_headroom() {
    const KIB: usize = 1024;
    let platform =
        Platform::testing_three().with_tier_capacities(&[64 * KIB, 128 * KIB, 1024 * KIB]);
    let mut m = Machine::new(platform);
    // Object A: 16 pages on the top tier, to be demoted in full.
    let a = m.alloc(64 * KIB, Placement::Fast).unwrap();
    let a = VirtRange::new(a.start, 64 * KIB);
    // Object B: 32 pages, mbind'd up to the middle tier, then the tail two
    // pages of every 4-page chunk mbind'd back down — every chunk keeps
    // `resident_bytes > 0` on the middle tier (so it stays a demotion
    // candidate) at exactly half its length.
    let b = m.alloc(128 * KIB, Placement::Slow).unwrap();
    let b = VirtRange::new(b.start, 128 * KIB);
    m.migrate_mbind(b, TierId::new(1)).unwrap();
    for chunk in 0..8u64 {
        let tail = VirtRange::new(
            b.start.add(chunk * 16 * KIB as u64 + 8 * KIB as u64),
            8 * KIB,
        );
        m.migrate_mbind(tail, TierId::new(2)).unwrap();
    }
    for (range, seed) in [(a, 23u64), (b, 29)] {
        for i in 0..(range.len / 8) as u64 {
            m.poke::<u64>(range.start.add(i * 8), i.wrapping_mul(seed))
                .unwrap();
        }
    }
    assert_eq!(m.free_bytes(TierId::new(1)), 64 * KIB, "fixture drifted");

    let mut registry = Registry::new();
    let chunks = |bytes: usize, target| {
        chunk_geometry(
            bytes,
            &ChunkConfig {
                target_chunks: target,
                min_chunk_bytes: bytes / target,
            },
        )
    };
    let id_a = registry.register("a", a, chunks(a.len, 16));
    let id_b = registry.register("b", b, chunks(b.len, 8));
    let object = |id, n: usize| ObjectAnalysis {
        id,
        selection: LocalSelection {
            priorities: (0..n).map(|i| i as f64 * 0.1).collect(),
            theta: 0.5,
            critical: vec![false; n],
        },
        weight: 1.0,
        tr_threshold: 0.5,
        critical: vec![false; n],
        promoted_chunks: 0,
    };
    let analysis = Analysis {
        objects: vec![object(id_a, 16), object(id_b, 8)],
    };
    let config = MigrationConfig {
        max_region_bytes: 32 * KIB,
        ..MigrationConfig::default()
    };

    let hops = build_demotion_cascade(&[(&registry, &analysis)], &m, &config, usize::MAX / 2);
    assert_eq!(hops.len(), 2, "middle tier is overcommitted: {hops:?}");
    // The middle hop (executed first) must take TWO of B's regions: each
    // 32 KiB region frees only 16 KiB of middle-tier residue.
    assert_eq!(hops[0].regions.len(), 2, "{:?}", hops[0]);
    for (i, hop) in hops.iter().enumerate() {
        let out = execute_plan(&mut m, hop, &config, TierId::new(2)).unwrap();
        assert_eq!(out.regions_skipped, 0, "hop {i} skipped regions: {out:?}");
        assert_eq!(out.regions_failed, 0, "hop {i} failed regions: {out:?}");
        assert_eq!(out.bytes_moved, hop.total_bytes, "hop {i} incomplete");
        assert!(
            m.audit().is_empty(),
            "hop {i} left violations: {:?}",
            m.audit()
        );
    }
    assert_eq!(m.resident_bytes(a, TierId::new(1)), a.len);
    for (range, seed) in [(a, 23u64), (b, 29)] {
        for i in (0..(range.len / 8) as u64).step_by(101) {
            assert_eq!(
                m.peek::<u64>(range.start.add(i * 8)).unwrap(),
                i.wrapping_mul(seed),
                "data torn at word {i}"
            );
        }
    }
}

#[test]
fn staged_migration_causes_fewer_post_migration_tlb_misses() {
    let scan = |m: &mut Machine, r: VirtRange| {
        m.flush_caches();
        let before = m.stats().tlb_misses;
        for page in 0..(r.len / PAGE) as u64 {
            let _ = m.read::<u64>(r.start.add(page * PAGE as u64)).unwrap();
        }
        m.stats().tlb_misses - before
    };
    let (mut m1, r1) = filled_machine(8 * 1024 * 1024, 5);
    m1.migrate_mbind(r1, TierId::FAST).unwrap();
    let mbind_misses = scan(&mut m1, r1);

    let (mut m2, r2) = filled_machine(8 * 1024 * 1024, 5);
    execute_plan(
        &mut m2,
        &plan_of(&[r2]),
        &MigrationConfig {
            max_region_bytes: 8 * 1024 * 1024,
            ..MigrationConfig::default()
        },
        TierId::FAST,
    )
    .unwrap();
    let staged_misses = scan(&mut m2, r2);
    assert!(
        mbind_misses > 10 * staged_misses.max(1),
        "mbind {mbind_misses} vs staged {staged_misses}"
    );
    assert!(m1.audit().is_empty(), "{:?}", m1.audit());
    assert!(m2.audit().is_empty(), "{:?}", m2.audit());
}

#[test]
fn migration_under_concurrent_reuse_of_other_allocations() {
    // Other live allocations must be untouched by a migration.
    let mut m = Machine::new(Platform::testing());
    let a = m.alloc(1024 * 1024, Placement::Slow).unwrap();
    let b = m.alloc(1024 * 1024, Placement::Slow).unwrap();
    for i in 0..(1024 * 1024 / 8) as u64 {
        m.poke::<u64>(a.start.add(i * 8), i).unwrap();
        m.poke::<u64>(b.start.add(i * 8), !i).unwrap();
    }
    let range_a = VirtRange::new(a.start, 1024 * 1024);
    execute_plan(
        &mut m,
        &plan_of(&[range_a]),
        &MigrationConfig::default(),
        TierId::FAST,
    )
    .unwrap();
    for i in (0..(1024 * 1024 / 8) as u64).step_by(101) {
        assert_eq!(m.peek::<u64>(a.start.add(i * 8)).unwrap(), i);
        assert_eq!(m.peek::<u64>(b.start.add(i * 8)).unwrap(), !i);
    }
    assert!(m.audit().is_empty(), "{:?}", m.audit());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Migrating any page-aligned sub-region set preserves every byte of
    /// the allocation (the central correctness property of the optimizer).
    #[test]
    fn arbitrary_subregion_migration_preserves_data(
        // (start_page, page_count) pairs within a 64-page allocation.
        cuts in prop::collection::vec((0usize..60, 1usize..8), 1..4),
    ) {
        let pages = 64usize;
        let (mut m, r) = filled_machine(pages * PAGE, 11);
        // Normalise to non-overlapping sorted regions.
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for (start, count) in cuts {
            let end = (start + count).min(pages);
            if regions.iter().all(|&(s, e)| end <= s || e <= start) {
                regions.push((start, end));
            }
        }
        regions.sort_unstable();
        let ranges: Vec<VirtRange> = regions
            .iter()
            .map(|&(s, e)| VirtRange::new(r.start.add((s * PAGE) as u64), (e - s) * PAGE))
            .collect();
        execute_plan(&mut m, &plan_of(&ranges), &MigrationConfig::default(), TierId::FAST)
            .unwrap();
        for i in 0..(r.len / 8) as u64 {
            let v = m.peek::<u64>(r.start.add(i * 8)).unwrap();
            prop_assert_eq!(v, i.wrapping_mul(11));
        }
        // Migrated regions are on the fast tier, the rest slow.
        for &(s, e) in &regions {
            let range = VirtRange::new(r.start.add((s * PAGE) as u64), (e - s) * PAGE);
            prop_assert_eq!(m.resident_bytes(range, TierId::FAST), (e - s) * PAGE);
        }
        prop_assert!(m.audit().is_empty(), "{:?}", m.audit());
    }

    /// mbind on arbitrary aligned sub-ranges moves exactly that range.
    #[test]
    fn mbind_subrange_is_exact(
        start_page in 0usize..48,
        count in 1usize..16,
    ) {
        let pages = 64usize;
        let (mut m, r) = filled_machine(pages * PAGE, 13);
        let count = count.min(pages - start_page);
        let range = VirtRange::new(r.start.add((start_page * PAGE) as u64), count * PAGE);
        let report = m.migrate_mbind(range, TierId::FAST).unwrap();
        prop_assert_eq!(report.pages, count);
        prop_assert_eq!(m.resident_bytes(range, TierId::FAST), count * PAGE);
        // Everything outside stays slow.
        let outside = r.len - count * PAGE;
        prop_assert_eq!(m.resident_bytes(r, TierId::SLOW), outside);
        for i in 0..(r.len / 8) as u64 {
            prop_assert_eq!(
                m.peek::<u64>(r.start.add(i * 8)).unwrap(),
                i.wrapping_mul(13)
            );
        }
        prop_assert!(m.audit().is_empty(), "{:?}", m.audit());
    }
}
