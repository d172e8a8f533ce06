//! Fault-injection property harness.
//!
//! Random workloads meet random fault plans: every property runs a
//! fault-free twin of the faulted machine and demands that, whatever the
//! fault schedule did,
//!
//! * no error escapes the migration engine for pressure-class faults,
//! * [`Machine::audit`] comes back clean (no leaked or double-booked
//!   frames, no stale TLB/LLC entries, conserved tier accounting),
//! * the data is bit-identical to the fault-free run — a faulted region
//!   is rolled back page-exactly, never torn,
//! * the outcome buckets conserve the planned bytes
//!   (`moved + skipped + failed == planned`), and
//! * placement only degrades gracefully: the faulted run never ends up
//!   with *more* fast-tier residency than its fault-free twin, and a
//!   retry round recovers monotonically.
//!
//! Case counts default to a full sweep of 200+ (kernel, fault-plan)
//! pairs; set `ATMEM_PROP_CASES` to shrink (CI smoke) or enlarge it.
//!
//! [`Machine::audit`]: atmem_hms::Machine::audit

use atmem::{
    execute_plan, AnalyzerKind, Atmem, AtmemConfig, MigrationConfig, MigrationMechanism,
    MigrationPlan, ObjectId, PlannedRegion, Scheduler,
};
use atmem_apps::{App, Bfs, HmsGraph, Kernel, MemCtx};
use atmem_graph::{Dataset, GraphBuilder, SelfLoops};
use atmem_hms::{
    FaultPlan, FaultSite, Machine, MemPort, Placement, Platform, TierId, TrackedVec, VirtRange,
    FAULT_SITES,
};
use atmem_prop::prelude::*;

const PAGE: usize = 4096;

/// A slow-tier allocation of `pages` pages filled with a seeded pattern.
fn filled_machine(pages: usize, seed: u64) -> (Machine, VirtRange) {
    let bytes = pages * PAGE;
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

/// Normalises random (start, count) cuts into disjoint page subranges.
fn disjoint_ranges(base: VirtRange, pages: usize, cuts: &[(usize, usize)]) -> Vec<VirtRange> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for &(start, count) in cuts {
        let start = start.min(pages - 1);
        let end = (start + count).min(pages);
        if regions.iter().all(|&(s, e)| end <= s || e <= start) {
            regions.push((start, end));
        }
    }
    regions.sort_unstable();
    regions
        .iter()
        .map(|&(s, e)| VirtRange::new(base.start.add((s * PAGE) as u64), (e - s) * PAGE))
        .collect()
}

fn assert_audit_clean(m: &mut Machine, context: &str) {
    let violations = m.audit();
    assert!(
        violations.is_empty(),
        "{context}: audit found {violations:?}"
    );
    assert!(
        m.outstanding_staging().is_empty(),
        "{context}: staging leaked {:?}",
        m.outstanding_staging()
    );
}

/// Every word of `range` equals the `filled_machine` pattern for `seed`.
fn assert_pattern_intact(m: &mut Machine, range: VirtRange, seed: u64, context: &str) {
    for i in 0..(range.len / 8) as u64 {
        let v = m.peek::<u64>(range.start.add(i * 8)).unwrap();
        assert_eq!(v, i.wrapping_mul(seed | 1), "{context}: torn at word {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(120)))]

    /// Random multi-region plans under random fault schedules (both
    /// scripted step-faults and seeded per-site rates): the engine never
    /// errors, rolls every faulted region back page-exactly, conserves
    /// the planned bytes across the outcome buckets, and leaves the
    /// memory system audit-clean with no more fast residency than the
    /// fault-free twin.
    #[test]
    fn random_faulted_plans_roll_back_exactly(
        seed in 1u64..1 << 48,
        pages in 16usize..64,
        cuts in prop::collection::vec((0usize..56, 1usize..10), 1..4),
        scripted in prop::collection::vec((0usize..4, 0u64..6), 0..4),
        rate in 0.0f64..0.35,
    ) {
        let (mut faulted, r1) = filled_machine(pages, seed);
        let (mut clean, r2) = filled_machine(pages, seed);
        let ranges1 = disjoint_ranges(r1, pages, &cuts);
        let ranges2 = disjoint_ranges(r2, pages, &cuts);
        let config = MigrationConfig::default();

        let mut plan = FaultPlan::seeded(seed);
        for &(site, nth) in &scripted {
            plan = plan.fail_at(FAULT_SITES[site], nth);
        }
        for &site in &FAULT_SITES {
            plan = plan.with_rate(site, rate);
        }
        faulted.set_fault_plan(Some(plan));

        let out = execute_plan(&mut faulted, &plan_of(&ranges1), &config, TierId::FAST)
            .expect("pressure-class faults must not escape");
        faulted.set_fault_plan(None);
        let clean_out =
            execute_plan(&mut clean, &plan_of(&ranges2), &config, TierId::FAST).unwrap();

        // Conservation: every planned byte lands in exactly one bucket.
        prop_assert_eq!(
            out.bytes_moved + out.bytes_skipped + out.bytes_failed,
            plan_of(&ranges1).total_bytes
        );
        prop_assert_eq!(
            out.regions + out.regions_skipped + out.regions_failed,
            ranges1.len()
        );
        prop_assert_eq!(clean_out.bytes_moved, plan_of(&ranges2).total_bytes);

        // Bit-identical data, wherever each region ended up.
        assert_pattern_intact(&mut faulted, r1, seed, "faulted");
        assert_pattern_intact(&mut clean, r2, seed, "clean");

        // Graceful degradation: faults can only lose fast residency.
        let fast_faulted = faulted.resident_bytes(r1, TierId::FAST);
        let fast_clean = clean.resident_bytes(r2, TierId::FAST);
        prop_assert!(
            fast_faulted <= fast_clean,
            "faulted run gained residency: {} > {}", fast_faulted, fast_clean
        );
        prop_assert_eq!(fast_faulted, out.bytes_moved);

        assert_audit_clean(&mut faulted, "faulted");
        assert_audit_clean(&mut clean, "clean");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    /// Satellite: `MigrationOutcome` conservation under purely scripted
    /// fault schedules at every site and step index.
    #[test]
    fn migration_outcome_conserves_planned_bytes(
        seed in 1u64..1 << 48,
        pages in 24usize..64,
        cuts in prop::collection::vec((0usize..56, 1usize..8), 1..4),
        scripted in prop::collection::vec((0usize..4, 0u64..8), 1..6),
    ) {
        let (mut m, r) = filled_machine(pages, seed);
        let ranges = disjoint_ranges(r, pages, &cuts);
        let mut plan = FaultPlan::new();
        for &(site, nth) in &scripted {
            plan = plan.fail_at(FAULT_SITES[site], nth);
        }
        m.set_fault_plan(Some(plan));
        let out = execute_plan(&mut m, &plan_of(&ranges), &MigrationConfig::default(), TierId::FAST)
            .unwrap();
        prop_assert_eq!(
            out.bytes_moved + out.bytes_skipped + out.bytes_failed,
            ranges.iter().map(|r| r.len).sum::<usize>()
        );
        prop_assert_eq!(out.regions + out.regions_skipped + out.regions_failed, ranges.len());
        assert_pattern_intact(&mut m, r, seed, "scripted");
        assert_audit_clean(&mut m, "scripted");
    }
}

/// One skewed-read "iteration" over a tracked array (the synthetic kernel
/// the runtime-level properties drive).
fn skewed_reads(rt: &mut Atmem, v: &TrackedVec<u64>, reads: usize, hot_frac: f64) {
    let n = v.len();
    let hot = ((n as f64 * hot_frac) as usize).max(1);
    for i in 0..reads {
        let idx = if i % 10 < 9 {
            (i * 7919) % hot
        } else {
            hot + (i * 104729) % (n - hot)
        };
        let _ = v.get(rt.machine_mut(), idx);
    }
}

/// Profiles one skewed iteration, then optimizes under `fault`.
/// Returns (data_ratio after optimize, data_ratio after a retry round).
fn profiled_optimize(fault: Option<FaultPlan>, hot_frac: f64) -> (f64, f64) {
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
    let v = rt.malloc::<u64>(64 * 1024, "data").unwrap();
    for i in 0..v.len() {
        v.poke(rt.machine_mut(), i, (i as u64).wrapping_mul(0x9E37_79B9));
    }
    rt.profiling_start().unwrap();
    skewed_reads(&mut rt, &v, 40_000, hot_frac);
    rt.profiling_stop().unwrap();
    rt.machine_mut().set_fault_plan(fault);
    rt.optimize()
        .expect("optimize must absorb pressure-class faults");
    let after_faults = rt.fast_data_ratio();
    // Retry round: samples persist, so failed/skipped regions are
    // replanned; recovery must be monotone.
    rt.machine_mut().set_fault_plan(None);
    rt.optimize().unwrap();
    let after_retry = rt.fast_data_ratio();
    for i in 0..v.len() {
        assert_eq!(
            v.peek(rt.machine_mut(), i),
            (i as u64).wrapping_mul(0x9E37_79B9),
            "data torn at {i}"
        );
    }
    assert_audit_clean(rt.machine_mut(), "runtime");
    (after_faults, after_retry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(32)))]

    /// Full runtime loop under random per-site fault rates: `optimize`
    /// never errors, the data survives bit-exactly, the audit stays
    /// clean, the fault run never beats the fault-free run's placement,
    /// and the retry round recovers monotonically.
    #[test]
    fn runtime_optimize_absorbs_random_faults(
        seed in 1u64..1 << 48,
        rate in 0.0f64..0.6,
        hot_pct in 5usize..20,
    ) {
        let hot_frac = hot_pct as f64 / 100.0;
        let (clean_ratio, _) = profiled_optimize(None, hot_frac);
        let mut plan = FaultPlan::seeded(seed);
        for &site in &FAULT_SITES {
            plan = plan.with_rate(site, rate);
        }
        let (faulted_ratio, retried_ratio) = profiled_optimize(Some(plan), hot_frac);
        prop_assert!(
            faulted_ratio <= clean_ratio + 1e-9,
            "faults improved placement: {} > {}", faulted_ratio, clean_ratio
        );
        prop_assert!(
            retried_ratio + 1e-9 >= faulted_ratio,
            "retry lost placement: {} < {}", retried_ratio, faulted_ratio
        );
    }
}

/// Profiles one skewed iteration with `SampleLoss` installed for the
/// *profiling window* (dropped PEBS records, not migration faults), then
/// optimizes on the degraded profile with the chosen analyzer. Returns
/// the achieved fast-data ratio; audits along the way.
fn lossy_profile_ratio(analyzer: AnalyzerKind, loss: Option<(f64, u64)>, hot_frac: f64) -> f64 {
    let mut config = AtmemConfig::default();
    config.analyzer.kind = analyzer;
    let mut rt = Atmem::new(Platform::testing(), config).unwrap();
    let v = rt.malloc::<u64>(64 * 1024, "data").unwrap();
    if let Some((rate, seed)) = loss {
        rt.machine_mut().set_fault_plan(Some(
            FaultPlan::seeded(seed).with_rate(FaultSite::SampleLoss, rate),
        ));
    }
    rt.profiling_start().unwrap();
    skewed_reads(&mut rt, &v, 40_000, hot_frac);
    rt.profiling_stop().unwrap();
    rt.machine_mut().set_fault_plan(None);
    rt.optimize().unwrap();
    assert_audit_clean(rt.machine_mut(), "sample-loss");
    rt.fast_data_ratio()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// Analyzer robustness under sampling-record loss: with up to half of
    /// all PEBS records dropped before attribution, BOTH analyzers must
    /// degrade boundedly — the run stays audit-clean, loss never
    /// *improves* placement, and the achieved fast-data ratio stays
    /// within a pinned envelope of the loss-free run's.
    #[test]
    fn analyzers_degrade_boundedly_under_sample_loss(
        seed in 1u64..1 << 48,
        loss_pct in 0u32..51,
        hot_pct in 8usize..20,
    ) {
        let hot_frac = hot_pct as f64 / 100.0;
        let rate = f64::from(loss_pct) / 100.0;
        // The pinned envelopes differ by an order of magnitude in both
        // directions. The paper's thresholds are *absolute*: Eq. 2's
        // average-density cut moves with every lost record, so loss can
        // both discard real hot chunks (observed retention down to 0.16x
        // of the loss-free ratio) and lower the cut enough to admit cold
        // ones (observed up to 4.25x). The learned ranker orders chunks
        // by relative features, which uniform record thinning barely
        // perturbs — across hundreds of seeds it reproduces the loss-free
        // placement exactly, so its envelope is pinned tight (slack for
        // unexplored seeds only).
        let envelopes = [
            (AnalyzerKind::Paper, 0.10, 5.00),
            (AnalyzerKind::Learned, 0.90, 1.00),
        ];
        for (analyzer, floor, ceil) in envelopes {
            let clean = lossy_profile_ratio(analyzer, None, hot_frac);
            let lossy = lossy_profile_ratio(analyzer, Some((rate, seed)), hot_frac);
            prop_assert!(
                lossy <= clean * ceil + 0.02,
                "{analyzer:?}: loss inflated the selection past the envelope: \
                 {lossy} vs clean {clean} (ceil {ceil}x)"
            );
            prop_assert!(
                lossy >= clean * floor - 0.02,
                "{analyzer:?}: placement collapsed under {rate} loss: \
                 {lossy} vs clean {clean} (floor {floor}x)"
            );
        }
    }
}

/// BFS on a random graph, profiled and optimized under `fault`.
/// Returns (distances, audit violations).
fn bfs_under_faults(
    n: usize,
    edges: &[(u32, u32)],
    source: u32,
    fault: Option<FaultPlan>,
) -> (Vec<u32>, Vec<String>) {
    let csr = GraphBuilder::new(n)
        .edges(
            edges
                .iter()
                .map(|&(u, v)| (u % n as u32, v % n as u32))
                .collect::<Vec<_>>(),
        )
        .self_loops(SelfLoops::Keep)
        .build();
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
    let g = HmsGraph::load(&mut rt, &csr).unwrap();
    let mut bfs = Bfs::new(&mut rt, g, source % n as u32).unwrap();
    bfs.reset(&mut rt);
    rt.profiling_start().unwrap();
    bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    rt.profiling_stop().unwrap();
    rt.machine_mut().set_fault_plan(fault);
    rt.optimize()
        .expect("optimize must absorb pressure-class faults");
    rt.machine_mut().set_fault_plan(None);
    bfs.reset(&mut rt);
    bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    let distances = bfs.distances(&mut rt);
    let audit = rt.machine_mut().audit();
    (distances, audit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(16)))]

    /// A real graph kernel's outputs are bit-identical whether or not the
    /// optimizer's migration round was riddled with faults.
    #[test]
    fn kernel_outputs_survive_faulted_optimize(
        seed in 1u64..1 << 48,
        n in 2usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 1..120),
        source in 0u32..40,
        rate in 0.05f64..0.6,
    ) {
        let (clean, clean_audit) = bfs_under_faults(n, &edges, source, None);
        let mut plan = FaultPlan::seeded(seed);
        for &site in &FAULT_SITES {
            plan = plan.with_rate(site, rate);
        }
        let (faulted, faulted_audit) = bfs_under_faults(n, &edges, source, Some(plan));
        prop_assert_eq!(clean, faulted, "kernel output changed under faults");
        prop_assert!(clean_audit.is_empty(), "{:?}", clean_audit);
        prop_assert!(faulted_audit.is_empty(), "{:?}", faulted_audit);
    }
}

/// Acceptance check: a scripted fault at every stage boundary of a
/// single-region staged migration leaves the region fully readable on the
/// source tier (or fully moved, for the stage-3 completion fallback) with
/// a clean audit.
#[test]
fn fault_at_every_stage_boundary_leaves_region_whole() {
    let cases = [
        (FaultSite::StagingAlloc, 0, "stage 0: staging allocation"),
        (FaultSite::Move, 0, "stage 1: copy into staging"),
        (FaultSite::Remap, 0, "stage 2: remap"),
        (FaultSite::Move, 1, "stage 3: copy out of staging"),
        (FaultSite::FrameAlloc, 0, "stage 2: frame allocation"),
    ];
    for (site, nth, label) in cases {
        let (mut m, r) = filled_machine(32, 7);
        m.set_fault_plan(Some(FaultPlan::new().fail_at(site, nth)));
        let out = execute_plan(
            &mut m,
            &plan_of(&[r]),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap_or_else(|e| panic!("{label}: error escaped: {e}"));
        let injected = m.fault_plan().unwrap().injected().len();
        assert_eq!(injected, 1, "{label}: expected exactly one injected fault");
        assert_eq!(out.regions, 0, "{label}: region must not count as moved");
        assert_eq!(
            out.regions_skipped + out.regions_failed,
            1,
            "{label}: region must be skipped or failed"
        );
        // Rolled back page-exactly: whole region back on the source tier.
        assert_eq!(
            m.resident_bytes(r, TierId::SLOW),
            r.len,
            "{label}: region not whole on source tier"
        );
        assert_pattern_intact(&mut m, r, 7, label);
        m.set_fault_plan(None);
        assert_audit_clean(&mut m, label);
    }
}

/// Acceptance check (N-tier): a demotion cascade on a three-tier machine
/// that faults mid-hop rolls the faulted hop back page-exactly to its
/// *actual* source tier — the middle tier, which no two-tier rollback
/// heuristic ("the opposite of the destination") would pick — while the
/// other hop completes, bytes are conserved per hop, and the audit stays
/// clean after every hop.
#[test]
fn cascade_fault_mid_hop_rolls_back_to_the_middle_tier() {
    let pages = 32usize;
    let bytes = pages * PAGE;
    let platform =
        Platform::testing_three().with_tier_capacities(&[8 * bytes, 8 * bytes, 32 * bytes]);
    let mut m = Machine::new(platform);
    let hot = m.alloc(bytes, Placement::Fast).unwrap();
    let warm = m.alloc(bytes, Placement::Slow).unwrap();
    m.migrate_mbind(warm, TierId::new(1)).unwrap();
    for (range, seed) in [(hot, 3u64), (warm, 5)] {
        for i in 0..(bytes / 8) as u64 {
            m.poke::<u64>(range.start.add(i * 8), i.wrapping_mul(seed | 1))
                .unwrap();
        }
    }

    // Hop 1 (coldest pair first): drain the middle tier toward the coldest
    // tier. Fault the stage-3 copy out of staging, mid-migration.
    m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Move, 1)));
    let out = execute_plan(
        &mut m,
        &plan_of(&[warm]),
        &MigrationConfig::default(),
        TierId::new(2),
    )
    .expect("pressure-class faults must not escape");
    m.set_fault_plan(None);
    assert_eq!(out.regions, 0, "faulted hop must not count as moved");
    assert_eq!(
        out.bytes_moved + out.bytes_skipped + out.bytes_failed,
        bytes
    );
    // Page-exact rollback to tier 1, the hop's source — not tier 0 and not
    // a torn split across tiers.
    assert_eq!(m.resident_bytes(warm, TierId::new(1)), bytes);
    assert_eq!(m.resident_bytes(warm, TierId::new(2)), 0);
    assert_pattern_intact(&mut m, warm, 5, "faulted middle hop");
    assert_audit_clean(&mut m, "after faulted hop");

    // Hop 2: the hottest tier's demotion still lands (the middle tier kept
    // enough headroom), and the machine stays clean after this hop too.
    let out = execute_plan(
        &mut m,
        &plan_of(&[hot]),
        &MigrationConfig::default(),
        TierId::new(1),
    )
    .unwrap();
    assert_eq!(out.bytes_moved, bytes);
    assert_eq!(m.resident_bytes(hot, TierId::new(1)), bytes);
    assert_pattern_intact(&mut m, hot, 3, "clean top hop");
    assert_audit_clean(&mut m, "after top hop");
}

/// Serves two tenants (PageRank + BFS) through the multi-tenant
/// scheduler with `fault` installed between graph load and the profiled
/// iterations — so sample-loss faults hit the PEBS drains and
/// pressure-class faults hit the shared optimize round, while the
/// loads themselves (where a frame-allocation fault is a *real* error)
/// stay clean. Returns per-tenant checksums, fast-data ratios, and the
/// accumulated audit + conservation violations.
fn served_pair_under_faults(
    migration: MigrationConfig,
    fault: Option<FaultPlan>,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let graphs = [
        Dataset::Twitter.build_small(6),
        Dataset::Pokec.build_small(6),
    ];
    let apps = [App::PageRank, App::Bfs];
    let mut sched = Scheduler::new(Platform::testing(), migration);
    let mut kernels = Vec::new();
    for (csr, app) in graphs.iter().zip(apps) {
        let idx = sched.add_tenant(AtmemConfig::default()).unwrap();
        let kernel = sched
            .run_quantum(idx, |rt| {
                let g = HmsGraph::load(rt, csr)?;
                app.instantiate(rt, g)
            })
            .unwrap();
        kernels.push(kernel);
    }
    sched.machine_mut().set_fault_plan(fault);
    for (idx, kernel) in kernels.iter_mut().enumerate() {
        sched
            .run_quantum(idx, |rt| {
                kernel.reset(rt);
                rt.profiling_start()?;
                kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
                rt.profiling_stop()
            })
            .unwrap();
    }
    sched
        .optimize_round()
        .expect("shared round must absorb pressure-class faults");
    sched.machine_mut().set_fault_plan(None);
    let mut audit = sched.audit();
    let mut checksums = Vec::new();
    let mut ratios = Vec::new();
    for (idx, kernel) in kernels.iter_mut().enumerate() {
        let checksum = sched.run_quantum(idx, |rt| {
            kernel.reset(rt);
            kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
            kernel.checksum(rt)
        });
        checksums.push(checksum);
        ratios.push(sched.fast_data_ratio(idx));
        audit.extend(sched.audit());
    }
    (checksums, ratios, audit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(6)))]

    /// Random per-site fault rates against the multi-tenant scheduler:
    /// the shared optimize round never errors, both tenants' outputs are
    /// bit-identical to the fault-free serve, placements stay sane, and
    /// the machine audit plus per-tenant byte conservation come back
    /// clean after every quantum.
    #[test]
    fn multi_tenant_round_absorbs_random_faults(
        seed in 1u64..1 << 48,
        rate in 0.0f64..0.5,
    ) {
        let (clean_sums, _, clean_audit) =
            served_pair_under_faults(MigrationConfig::default(), None);
        let mut plan = FaultPlan::seeded(seed);
        for &site in &FAULT_SITES {
            plan = plan.with_rate(site, rate);
        }
        let (faulted_sums, ratios, faulted_audit) =
            served_pair_under_faults(MigrationConfig::default(), Some(plan));
        prop_assert_eq!(clean_sums, faulted_sums, "tenant outputs changed under faults");
        prop_assert!(clean_audit.is_empty(), "{:?}", clean_audit);
        prop_assert!(faulted_audit.is_empty(), "{:?}", faulted_audit);
        for r in ratios {
            prop_assert!((0.0..=1.0).contains(&r), "ratio out of range: {}", r);
        }
    }
}

/// Acceptance check: scripted page-status and sample-loss faults across
/// two tenants under the `mbind` mechanism. A faulted per-page status
/// check leaves that page in place; a dropped PEBS record only thins the
/// profile — tenant outputs, byte conservation and the audit are
/// unaffected either way.
#[test]
fn scripted_tenant_faults_under_mbind_stay_clean() {
    let migration = MigrationConfig {
        mechanism: MigrationMechanism::Mbind,
        ..MigrationConfig::default()
    };
    let (clean_sums, _, clean_audit) = served_pair_under_faults(migration, None);
    let plan = FaultPlan::new()
        .fail_at(FaultSite::PageStatus, 0)
        .fail_at(FaultSite::PageStatus, 3)
        .fail_at(FaultSite::SampleLoss, 1)
        .fail_at(FaultSite::SampleLoss, 5);
    let (faulted_sums, ratios, faulted_audit) = served_pair_under_faults(migration, Some(plan));
    assert_eq!(clean_sums, faulted_sums, "tenant outputs changed");
    assert!(clean_audit.is_empty(), "{clean_audit:?}");
    assert!(faulted_audit.is_empty(), "{faulted_audit:?}");
    for r in ratios {
        assert!((0.0..=1.0).contains(&r), "ratio out of range: {r}");
    }
}
