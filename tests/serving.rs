//! Multi-tenant serving anchors.
//!
//! Three end-to-end guarantees of the serving runtime:
//!
//! 1. with a single tenant, the scheduler's interleaved schedule is
//!    **bit-identical** to the solo two-iteration protocol — same
//!    profile, same machine counters, same placement, same checksum;
//! 2. with contended co-tenants, every tenant's bytes are conserved
//!    across tiers after every quantum, the machine audit stays clean,
//!    and kernel outputs match their solo runs exactly;
//! 3. on a contended scenario, one shared fast tier arbitrated globally
//!    **beats a static per-tenant partition** of the same capacity on
//!    aggregate fast-data ratio — the paper's §1 server motivation.
//!
//! Plus one regression on the round's own sizing rule: demotion is sized by
//! the bytes it frees, not by the lengths of the regions it moves.

use atmem::{AtmemConfig, ChunkConfig, MigrationConfig, Scheduler};
use atmem_apps::{run_protocol_cores, serve_protocols, App, Mode, TenantSpec};
use atmem_graph::{erdos_renyi, Csr, Dataset};
use atmem_hms::{Platform, TierId, VirtRange};

fn one_tenant<'a>(csr: &'a Csr, app: App, config: AtmemConfig, queries: usize) -> TenantSpec<'a> {
    TenantSpec {
        csr,
        app,
        config,
        arrival_seed: 0xD15EA5E,
        queries,
        mean_gap_ns: 250_000.0,
    }
}

#[test]
fn one_tenant_schedule_is_bit_identical_to_the_solo_protocol() {
    let csr = Dataset::Twitter.build_small(7);
    let config = AtmemConfig::default();
    let solo = run_protocol_cores(
        Platform::testing(),
        config.clone(),
        &csr,
        App::PageRank,
        Mode::Atmem,
        1,
    )
    .unwrap();
    let served = serve_protocols(
        Platform::testing(),
        config.migration,
        &[one_tenant(&csr, App::PageRank, config, 1)],
    )
    .unwrap();

    let t = &served.tenants[0];
    let solo_opt = solo.optimize.as_ref().unwrap();
    assert_eq!(
        t.first_iter.as_ns(),
        solo.first_iter.as_ns(),
        "profiled iteration must replay bit-identically"
    );
    assert_eq!(
        t.profile, solo_opt.profile,
        "the PEBS stream fed to the analyzer must match"
    );
    assert_eq!(
        t.first_query_stats, solo.second_iter_stats,
        "optimized-iteration machine counters must match"
    );
    assert_eq!(
        t.bytes_promoted, solo_opt.migration.bytes_moved,
        "the round must admit exactly the solo plan"
    );
    assert_eq!(t.fast_data_ratio, solo.data_ratio, "placement must match");
    assert_eq!(t.checksum, solo.checksum, "kernel output must match");
    assert!(solo.audit.is_empty(), "{:?}", solo.audit);
    assert!(served.audit.is_empty(), "{:?}", served.audit);
}

#[test]
fn contended_tenants_conserve_bytes_and_match_solo_outputs() {
    // A fast tier far smaller than the combined working set.
    let platform = Platform::testing().with_capacities(64 * 1024, 32 * 1024 * 1024);
    let migration = MigrationConfig {
        max_region_bytes: 16 * 1024,
        ..Default::default()
    };

    let skewed = Dataset::Twitter.build_small(6);
    let mild = erdos_renyi(512, 4096, 9);
    let served = serve_protocols(
        platform,
        migration,
        &[
            one_tenant(
                &skewed,
                App::PageRank,
                AtmemConfig::default().with_epsilon(0.1),
                2,
            ),
            one_tenant(&mild, App::Bfs, AtmemConfig::default(), 2),
        ],
    )
    .unwrap();

    // Audit (machine invariants + per-tenant conservation) ran after the
    // round and after every query quantum; all clean.
    assert!(served.audit.is_empty(), "{:?}", served.audit);
    let mut fast_total = 0;
    for t in &served.tenants {
        assert_eq!(
            t.fast_bytes + t.slow_bytes,
            t.total_bytes,
            "tenant bytes must be conserved across tiers"
        );
        assert_eq!(t.queries, 2);
        fast_total += t.fast_bytes;
    }
    assert!(fast_total <= 64 * 1024, "fast tier over capacity");
    assert_eq!(
        served
            .round
            .tenants
            .iter()
            .map(|t| t.bytes_promoted)
            .sum::<usize>(),
        served.round.promotion.bytes_moved,
        "per-tenant attribution must cover every moved byte"
    );

    // Contended placement must not change results: each tenant's checksum
    // equals its uncontended solo run.
    for (csr, app, served_checksum) in [
        (&skewed, App::PageRank, served.tenants[0].checksum),
        (&mild, App::Bfs, served.tenants[1].checksum),
    ] {
        let solo = run_protocol_cores(
            Platform::testing(),
            AtmemConfig::default(),
            csr,
            app,
            Mode::Baseline,
            1,
        )
        .unwrap();
        assert_eq!(solo.checksum, served_checksum, "{app} output changed");
    }
}

#[test]
fn shared_tier_beats_a_static_partition() {
    // One box with 64 KiB of fast memory. Static partitioning gives each
    // tenant half; the serving runtime arbitrates the whole tier by
    // measured gain per byte. The hot tenant's selection overflows its
    // half, the mild tenant strands most of its share — so the shared
    // aggregate fast-data ratio must win.
    let fast = 64 * 1024;
    let slow = 32 * 1024 * 1024;
    let migration = MigrationConfig {
        max_region_bytes: 16 * 1024,
        ..Default::default()
    };

    let hot_csr = Dataset::Twitter.build_small(6);
    let mild_csr = erdos_renyi(512, 2048, 9);
    let hot_cfg = AtmemConfig::default().with_epsilon(0.1);
    let mild_cfg = AtmemConfig::default()
        .with_epsilon(0.6)
        .with_sampling_period(256);

    // Baseline: N solo runs, each confined to a static half of the tier.
    let mut solo_fast = 0.0;
    let mut solo_total = 0usize;
    for (csr, app, cfg) in [
        (&hot_csr, App::PageRank, &hot_cfg),
        (&mild_csr, App::Bfs, &mild_cfg),
    ] {
        let mut config = cfg.clone();
        config.migration = migration;
        let r = run_protocol_cores(
            Platform::testing().with_capacities(fast / 2, slow),
            config,
            csr,
            app,
            Mode::Atmem,
            1,
        )
        .unwrap();
        let total = r.optimize.as_ref().unwrap().total_bytes;
        solo_fast += r.data_ratio * total as f64;
        solo_total += total;
    }

    // The shared run on the full tier, same tenant configs.
    let served = serve_protocols(
        Platform::testing().with_capacities(fast, slow),
        migration,
        &[
            one_tenant(&hot_csr, App::PageRank, hot_cfg, 1),
            one_tenant(&mild_csr, App::Bfs, mild_cfg, 1),
        ],
    )
    .unwrap();
    assert!(served.audit.is_empty(), "{:?}", served.audit);

    let shared_fast: usize = served.tenants.iter().map(|t| t.fast_bytes).sum();
    let shared_total: usize = served.tenants.iter().map(|t| t.total_bytes).sum();
    assert_eq!(shared_total, solo_total, "same data either way");
    assert!(shared_fast <= fast, "fast tier over capacity");

    let shared_ratio = shared_fast as f64 / shared_total as f64;
    let solo_ratio = solo_fast / solo_total as f64;
    assert!(
        shared_ratio > solo_ratio,
        "shared tier should beat the static partition: {shared_ratio:.4} vs {solo_ratio:.4}"
    );
}

/// A round whose only demotion candidates are *half* resident on the fast
/// tier (the serving-side twin of
/// `cascade_sizes_middle_hop_by_resident_bytes_and_staging_headroom` in
/// `tests/migration.rs`).
///
/// One tenant on a 128 KiB fast tier. `cold`, never read, is 192 KiB in
/// 16 KiB chunks with the first two pages of every chunk `mbind`'d up: 96 KiB
/// of fast residue, 32 KiB free, and every 16 KiB demotion region gives back
/// only 8 KiB. `hot`, 64 KiB on the slow tier, is read uniformly, so the
/// round wants all of it promoted. That takes a budget of 64 KiB, i.e.
/// `0.9 * free - 16 KiB >= 64 KiB`, i.e. 57 KiB freed: eight regions by
/// resident bytes. Sized by region lengths the round stops at four, ends
/// with 64 KiB free, a 41.6 KiB budget, and drops half of `hot`.
#[test]
fn round_sizes_demotion_by_resident_bytes() {
    const KIB: usize = 1024;
    let platform = Platform::testing().with_capacities(128 * KIB, 8 * 1024 * KIB);
    let migration = MigrationConfig {
        allow_demotion: true,
        max_region_bytes: 16 * KIB,
        ..MigrationConfig::default()
    };
    let config = AtmemConfig {
        chunks: ChunkConfig {
            target_chunks: 1024,
            min_chunk_bytes: 16 * KIB,
        },
        migration,
        ..AtmemConfig::default()
    };
    let mut sched = Scheduler::new(platform, migration);
    let t = sched.add_tenant(config).unwrap();
    let (cold, hot) = sched.run_quantum(t, |rt| {
        (
            rt.malloc::<u64>(192 * KIB / 8, "cold").unwrap(),
            rt.malloc::<u64>(64 * KIB / 8, "hot").unwrap(),
        )
    });
    for chunk in 0..12u64 {
        let head = VirtRange::new(cold.range().start.add(chunk * 16 * KIB as u64), 8 * KIB);
        sched
            .machine_mut()
            .migrate_mbind(head, TierId::FAST)
            .unwrap();
    }
    assert_eq!(
        sched.machine().free_bytes(TierId::FAST),
        32 * KIB,
        "fixture drifted"
    );
    sched.run_quantum(t, |rt| {
        rt.profiling_start().unwrap();
        for i in 0..200_000usize {
            let _ = hot.get(rt.machine_mut(), (i * 7919) % hot.len());
        }
        rt.profiling_stop().unwrap();
    });

    let round = sched.optimize_round().unwrap();
    let demotion = round.demotion.expect("demotion is on");
    assert_eq!(demotion.regions, 8, "{demotion:?}");
    assert_eq!(
        demotion.regions_skipped + demotion.regions_failed,
        0,
        "{demotion:?}"
    );
    assert_eq!(round.dropped_bytes, 0, "promotion lost bytes: {round:?}");
    assert_eq!(round.tenants[t].bytes_promoted, 64 * KIB);
    assert_eq!(
        sched.machine().resident_bytes(hot.range(), TierId::FAST),
        64 * KIB
    );
    assert!(sched.audit().is_empty(), "{:?}", sched.audit());
}
