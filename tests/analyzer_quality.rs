//! Learned-vs-paper analyzer quality gates.
//!
//! The learned (learning-to-rank) analyzer is held to the paper's own
//! objective: fast-data-ratio-at-budget and achieved second-iteration
//! time no worse than the Eq. 1–5 analyzer across the kernel grid, and
//! strictly better on the scenarios where static thresholds are weakest —
//! sparse/lossy sampling and working-set phase changes.

use atmem::{AnalyzerKind, Atmem, AtmemConfig, OptimizePolicy};
use atmem_apps::{App, HmsGraph, MemCtx, Mode, Protocol};
use atmem_bench::quality::{budget_config, budget_platform, compare_at_budget};
use atmem_graph::{Csr, Dataset};
use atmem_hms::{FaultPlan, FaultSite, Platform, TierId, VirtRange};

fn graph_for(app: App) -> Csr {
    let g = Dataset::Twitter.build_small(6);
    if app.needs_weights() {
        g.with_random_weights(16.0, 1)
    } else {
        g
    }
}

/// The kernel × budget grid of the acceptance gate: learned matches or
/// beats paper on the achieved time at every point (the harness already
/// checks checksum equality and audit cleanliness).
#[test]
fn learned_matches_paper_across_the_kernel_grid() {
    for app in [App::PageRank, App::Spmv, App::Bfs] {
        let csr = graph_for(app);
        for budget in [48 * 1024usize, 96 * 1024] {
            let (paper, learned) = compare_at_budget(&csr, app, budget);
            println!(
                "{app} @ {:3} KiB: paper {:.3e} ns ratio {:.3} | learned {:.3e} ns ratio {:.3}",
                budget / 1024,
                paper.second_iter_ns,
                paper.data_ratio,
                learned.second_iter_ns,
                learned.data_ratio,
            );
            assert!(learned.bytes_moved > 0, "{app}: learned moved nothing");
            assert!(
                learned.second_iter_ns <= paper.second_iter_ns * 1.02,
                "{app} @ {budget}: learned {:.3e} ns vs paper {:.3e} ns",
                learned.second_iter_ns,
                paper.second_iter_ns
            );
        }
    }
}

/// One manual protocol run with `SampleLoss` installed for the profiled
/// iteration. Sparse sampling (large period) plus heavy record loss is
/// exactly where the paper's `MIN_SAMPLES` floor starts discarding real
/// signal. Returns (data ratio, second-iteration ns, checksum).
fn run_with_sample_loss(
    csr: &Csr,
    analyzer: AnalyzerKind,
    loss: f64,
    seed: u64,
) -> (f64, f64, f64) {
    let mut config = budget_config();
    config.analyzer.kind = analyzer;
    config.sampling.period = Some(512);
    let mut rt = Atmem::new(budget_platform(64 * 1024), config).unwrap();
    let graph = HmsGraph::load(&mut rt, csr).unwrap();
    let mut kernel = App::PageRank.instantiate(&mut rt, graph).unwrap();

    kernel.reset(&mut rt);
    if loss > 0.0 {
        rt.machine_mut().set_fault_plan(Some(
            FaultPlan::seeded(seed).with_rate(FaultSite::SampleLoss, loss),
        ));
    }
    rt.profiling_start().unwrap();
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    rt.profiling_stop().unwrap();
    rt.machine_mut().set_fault_plan(None);
    rt.optimize().unwrap();

    kernel.reset(&mut rt);
    let t0 = rt.now();
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    let second = rt.now().as_ns() - t0.as_ns();
    let ratio = rt.fast_data_ratio();
    let checksum = kernel.checksum(&mut rt);
    let audit = rt.machine_mut().audit();
    assert!(audit.is_empty(), "audit: {audit:?}");
    (ratio, second, checksum)
}

/// The strict-win gate: under heavy sampling noise the learned ranker's
/// relative features (ranks, neighbourhood occupancy) keep more of the
/// true hot set than the paper's absolute `MIN_SAMPLES` floor, so it ends
/// the round with a faster measured iteration.
#[test]
fn learned_strictly_beats_paper_under_heavy_sample_loss() {
    let csr = graph_for(App::PageRank);
    let loss = 0.5;
    let mut paper_total = 0.0;
    let mut learned_total = 0.0;
    for seed in [3u64, 11, 29] {
        let (p_ratio, p_time, p_sum) = run_with_sample_loss(&csr, AnalyzerKind::Paper, loss, seed);
        let (l_ratio, l_time, l_sum) =
            run_with_sample_loss(&csr, AnalyzerKind::Learned, loss, seed);
        println!(
            "seed {seed}: paper {:.3e} ns ratio {:.3} | learned {:.3e} ns ratio {:.3}",
            p_time, p_ratio, l_time, l_ratio
        );
        assert_eq!(p_sum, l_sum, "analyzer choice changed results");
        paper_total += p_time;
        learned_total += l_time;
    }
    assert!(
        learned_total < paper_total,
        "learned must be strictly faster under 50% sample loss: \
         learned {learned_total:.3e} ns vs paper {paper_total:.3e} ns"
    );
}

/// Reads a window `[lo, hi)` (fractions of the vector) with a fixed
/// skewed stride, so the miss profile concentrates there.
fn window_reads(rt: &mut Atmem, v: &atmem_hms::TrackedVec<u64>, reads: usize, lo: f64, hi: f64) {
    let n = v.len();
    let start = (n as f64 * lo) as usize;
    let span = ((n as f64 * (hi - lo)) as usize).max(1);
    for i in 0..reads {
        let _ = v.get(rt.machine_mut(), start + (i * 7919) % span);
    }
}

/// The phase-change scenario (working set shifts between profiled
/// iterations, as in the AutoNUMA-on-graph-analytics characterization):
/// after one optimize round on the new phase, the learned analyzer must
/// have re-ranked — the new hot window dominates the fast tier and the
/// stale one has been demoted.
#[test]
fn learned_reranks_within_one_round_after_a_phase_change() {
    for analyzer in [AnalyzerKind::Learned, AnalyzerKind::Paper] {
        let mut config = AtmemConfig::default();
        config.analyzer.kind = analyzer;
        config.migration.allow_demotion = true;
        // Small regions, as in `budget_config`: on a 128 KiB fast tier the
        // staging reserve would otherwise swallow the whole promotion
        // budget and a contiguous hot run would be dropped as one
        // oversized region.
        config.migration.max_region_bytes = 16 * 1024;
        let platform = Platform::testing().with_capacities(128 * 1024, 32 << 20);
        let mut rt = Atmem::new(platform, config).unwrap();
        let v = rt.malloc::<u64>(64 * 1024, "data").unwrap(); // 512 KiB
        let range = rt.registry().iter().next().unwrap().range();

        // Phase A: the first eighth is hot. Profile → optimize.
        rt.profiling_start().unwrap();
        window_reads(&mut rt, &v, 40_000, 0.0, 0.125);
        rt.profiling_stop().unwrap();
        rt.optimize().unwrap();

        // Phase B: the last eighth is hot. ONE more profile → optimize.
        rt.profiling_start().unwrap();
        window_reads(&mut rt, &v, 40_000, 0.875, 1.0);
        rt.profiling_stop().unwrap();
        rt.optimize().unwrap();

        let eighth = range.len / 8;
        let a_hot = VirtRange::new(range.start, eighth);
        let b_hot = VirtRange::new(range.start.add((7 * eighth) as u64), eighth);
        let a_fast = rt.machine_mut().resident_bytes(a_hot, TierId::FAST);
        let b_fast = rt.machine_mut().resident_bytes(b_hot, TierId::FAST);
        println!("{analyzer:?}: phase-A hot fast bytes {a_fast}, phase-B hot fast bytes {b_fast}");
        let audit = rt.machine_mut().audit();
        assert!(audit.is_empty(), "audit: {audit:?}");
        if analyzer == AnalyzerKind::Learned {
            assert!(
                b_fast > a_fast,
                "learned must re-rank to the new phase within one round: \
                 B {b_fast} vs stale A {a_fast}"
            );
            assert!(
                b_fast >= eighth / 2,
                "most of the new hot window should be fast: {b_fast}/{eighth}"
            );
        }
    }
}

/// The multi-round protocol on a three-tier machine with a binding
/// hot-tier budget, under both optimize policies. The AutoNUMA-style
/// baseline satisfies its convergence contract — the hot-tier ratio climbs
/// monotonically (one tier hop per round) and levels off — and ATMem,
/// which promotes straight to the hottest tier with headroom, is there
/// after one round, ends with more of the data on the hot tier at the same
/// budget, and with a final iteration that is no slower.
#[test]
fn autonuma_multi_round_protocol_converges() {
    // Small enough that the one-hop-per-round ladder tops out within the
    // round budget.
    let csr = Dataset::Twitter.build_small(4);
    let platform = Platform::hbm_dram_cxl().with_tier_capacities(&[256 << 10, 4 << 20, 64 << 20]);
    let run = |policy| {
        let r = Protocol::start(
            platform.clone(),
            AtmemConfig::default().with_policy(policy),
            &csr,
            App::PageRank,
            Mode::Atmem,
            1,
            4,
        )
        .and_then(|mut p| p.finish())
        .unwrap();
        println!("{policy:?} round ratios: {:?}", r.round_ratios);
        assert!(r.audit.is_empty(), "{policy:?} audit: {:?}", r.audit);
        assert_eq!(r.round_ratios.len(), 4);
        r
    };
    let autonuma = run(OptimizePolicy::Autonuma);
    let atmem = run(OptimizePolicy::Atmem);
    for w in autonuma.round_ratios.windows(2) {
        assert!(
            w[1] >= w[0] - 0.02,
            "climbing must be monotone: {:?}",
            autonuma.round_ratios
        );
    }
    assert!(
        autonuma.round_ratios[3] > autonuma.round_ratios[0],
        "the ladder never climbed: {:?}",
        autonuma.round_ratios
    );
    assert!(
        (autonuma.round_ratios[3] - autonuma.round_ratios[2]).abs() < 0.05,
        "should have levelled off by round 4: {:?}",
        autonuma.round_ratios
    );
    assert!(
        (atmem.round_ratios[0] - atmem.round_ratios[3]).abs() < 0.05,
        "atmem should converge in one round: {:?}",
        atmem.round_ratios
    );
    assert!(
        atmem.round_ratios[3] > autonuma.round_ratios[3],
        "atmem must beat the OS-tiering baseline on hot-tier data ratio: {:?} vs {:?}",
        atmem.round_ratios,
        autonuma.round_ratios
    );
    assert!(
        atmem.second_iter.as_ns() <= autonuma.second_iter.as_ns(),
        "atmem must not be slower than the OS-tiering baseline: {} vs {}",
        atmem.second_iter,
        autonuma.second_iter
    );
}
