//! Placement-quality integration tests: does ATMem put the *right* data on
//! the fast tier, across graph shapes and configurations?

use atmem::{AnalyzerKind, Atmem, AtmemConfig};
use atmem_apps::{run_protocol, App, HmsGraph, Kernel, MemCtx, Mode, PageRank};
use atmem_bench::quality::{budget_config, budget_platform, run_case};
use atmem_graph::{erdos_renyi, Dataset};
use atmem_hms::{Platform, TierId};

#[test]
fn fine_grained_beats_coarse_grained_on_skew_only() {
    // The paper's core premise versus whole-structure placement tools
    // (Tahoe et al., §1-§2) and its §9 generalisation: under capacity
    // pressure, adaptive-granularity placement beats whole-object placement
    // on skewed inputs, and degenerates to it on uniform inputs. Coarse
    // placement is ATMem with one chunk per object (chunk = whole data
    // structure).
    let skewed = Dataset::Twitter.build_small(6);
    let uniform = erdos_renyi(skewed.num_vertices(), skewed.num_edges(), 17);
    // Fast tier holds only ~25% of the ~230 KiB working set (see
    // `quality::budget_platform` for the capacity/LLC rationale).
    let platform = budget_platform(64 * 1024);

    // Second-iteration time under the same capacity budget, via the shared
    // quality harness.
    let placed_time = |csr: &atmem_graph::Csr, coarse: bool| {
        let mut config = budget_config();
        if coarse {
            config.chunks.target_chunks = 1;
        }
        let placed = run_case(&platform, config, csr, App::PageRank, AnalyzerKind::Paper);
        assert!(placed.bytes_moved > 0, "nothing migrated (coarse={coarse})");
        placed.second_iter_ns
    };

    let fine_skewed = placed_time(&skewed, false);
    let coarse_skewed = placed_time(&skewed, true);
    let fine_uniform = placed_time(&uniform, false);
    let coarse_uniform = placed_time(&uniform, true);

    assert!(
        fine_skewed < coarse_skewed,
        "adaptive granularity must win on skew under a fixed budget: \
         fine {fine_skewed:.3e}ns vs coarse {coarse_skewed:.3e}ns"
    );
    assert!(
        fine_uniform < coarse_uniform * 1.05,
        "on uniform input fine-grained degenerates to coarse, not worse: \
         fine {fine_uniform:.3e}ns vs coarse {coarse_uniform:.3e}ns"
    );
}

#[test]
fn hot_vertices_property_pages_end_up_fast() {
    // Drive PageRank on a star-heavy graph; the accumulator entries of the
    // hub vertices are the hottest bytes in the system and must be on the
    // fast tier after optimize().
    let csr = Dataset::Twitter.build_small(6);
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
    let graph = HmsGraph::load(&mut rt, &csr).unwrap();
    let mut pr = PageRank::new(&mut rt, graph).unwrap();
    pr.reset(&mut rt);
    rt.profiling_start().unwrap();
    pr.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    rt.profiling_stop().unwrap();
    let report = rt.optimize().unwrap();
    assert!(report.migration.bytes_moved > 0);

    // Find the hottest in-degree vertex (R-MAT: a low-id hub).
    let mut indeg = vec![0u32; csr.num_vertices()];
    for (_, v) in csr.edges() {
        indeg[v as usize] += 1;
    }
    let hub = indeg
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .map(|(i, _)| i)
        .unwrap();
    // The 'next' accumulator object is object index 3 (offsets, neighbors,
    // rank, next) — locate it by name instead.
    let next_obj = rt
        .registry()
        .iter()
        .find(|o| o.name() == "pr.next")
        .expect("pr.next registered")
        .range();
    let hub_addr = next_obj.start.add((hub * 8) as u64);
    assert_eq!(
        rt.machine_mut().tier_of(hub_addr).unwrap(),
        TierId::FAST,
        "hub accumulator (vertex {hub}, in-degree {}) should be fast",
        indeg[hub]
    );
}

#[test]
fn capacity_pressure_keeps_placement_within_budget() {
    // Shrink the fast tier so the analyzer's selection exceeds it; the
    // planner must cap at the budget and never fail.
    let csr = Dataset::Twitter.build_small(6);
    let platform = Platform::testing().with_capacities(
        1024 * 1024, // 1 MiB fast tier
        64 * 1024 * 1024,
    );
    let r = run_protocol(
        platform.clone(),
        AtmemConfig::default(),
        &csr,
        App::Bfs,
        Mode::Atmem,
    )
    .unwrap();
    let fast_used = r.second_iter_stats.bytes_used[TierId::FAST.index()] as usize;
    assert!(
        fast_used <= 1024 * 1024,
        "fast tier overcommitted: {fast_used}"
    );
}

#[test]
fn epsilon_sweep_trades_data_for_time() {
    // The Figure 9/10 mechanism: lower ε promotes more data; the measured
    // time must be monotone-ish (never dramatically worse with more data).
    let csr = Dataset::Twitter.build_small(6);
    let mut last_ratio = -1.0f64;
    let mut ratios = Vec::new();
    for eps in [0.9, 0.5, 0.25, 0.05] {
        let r = run_protocol(
            Platform::testing(),
            AtmemConfig::default().with_epsilon(eps),
            &csr,
            App::Bfs,
            Mode::Atmem,
        )
        .unwrap();
        assert!(
            r.data_ratio >= last_ratio - 0.02,
            "lower ε should not shrink the ratio: {} after {}",
            r.data_ratio,
            last_ratio
        );
        last_ratio = r.data_ratio;
        ratios.push(r.data_ratio);
    }
    assert!(
        ratios.last().unwrap() > ratios.first().unwrap(),
        "sweep had no effect: {ratios:?}"
    );
}

#[test]
fn community_structure_is_detected_without_hubs() {
    // Hot regions can come from community structure rather than degree
    // skew (no extreme hubs at all). ATMem must still find and place them.
    use atmem_graph::{community, CommunityConfig};
    let cfg = CommunityConfig::new(4096, 32768);
    let csr = community(&cfg, 13);
    let base = run_protocol(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::PageRank,
        Mode::Baseline,
    )
    .unwrap();
    let atm = run_protocol(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::PageRank,
        Mode::Atmem,
    )
    .unwrap();
    assert_eq!(base.checksum, atm.checksum);
    assert!(
        atm.second_iter.as_ns() < base.second_iter.as_ns(),
        "community heat must be placeable: atmem {} vs base {}",
        atm.second_iter,
        base.second_iter
    );
    assert!(
        atm.data_ratio < 0.7,
        "selection stays partial on community graphs: {}",
        atm.data_ratio
    );
}

#[test]
fn promotion_increases_coverage_over_sampled_only() {
    let csr = Dataset::Friendster.build_small(7);
    let with_promotion = run_protocol(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::Bfs,
        Mode::Atmem,
    )
    .unwrap();
    let mut config = AtmemConfig::default();
    config.analyzer.promotion_enabled = false;
    let without = run_protocol(Platform::testing(), config, &csr, App::Bfs, Mode::Atmem).unwrap();
    assert!(
        with_promotion.data_ratio >= without.data_ratio,
        "promotion shrank coverage: {} vs {}",
        with_promotion.data_ratio,
        without.data_ratio
    );
    let report = with_promotion.optimize.unwrap();
    assert!(
        report.analysis.promoted_chunks() > 0,
        "promotion never fired on a sampled workload"
    );
}
