//! Integration tests of the profiler → analyzer pipeline, including
//! property-based tests of the analyzer invariants.

use atmem::{analyze, local_selection, promote, Atmem, AtmemConfig, MaryTree};
use atmem_hms::Platform;
use atmem_prop::prelude::*;

#[test]
fn sampled_hot_chunks_become_critical_through_the_full_stack() {
    let mut rt = Atmem::new(
        Platform::testing(),
        AtmemConfig::default().with_sampling_period(8),
    )
    .unwrap();
    let v = rt.malloc::<u64>(256 * 1024, "hot").unwrap(); // 2 MiB
    rt.profiling_start().unwrap();
    // Hammer a contiguous window covering chunks ~[16, 48).
    let geometry = rt.registry().iter().next().unwrap().geometry();
    let window_start = 16 * geometry.chunk_bytes / 8;
    let window_len = 32 * geometry.chunk_bytes / 8;
    for i in 0..300_000usize {
        let idx = window_start + (i * 2654435761) % window_len;
        let _ = v.get(rt.machine_mut(), idx % v.len());
    }
    rt.profiling_stop().unwrap();

    let analysis = analyze(rt.registry(), &rt.config().analyzer.clone());
    let oa = &analysis.objects[0];
    let hot_selected = (16..48).filter(|&c| oa.critical[c]).count();
    let cold_selected = (64..oa.critical.len()).filter(|&c| oa.critical[c]).count();
    assert!(
        hot_selected >= 24,
        "hot window mostly selected: {hot_selected}/32"
    );
    assert!(
        cold_selected <= 4,
        "cold region mostly unselected: {cold_selected}"
    );
}

proptest! {
    /// Tree invariants hold for arbitrary leaf patterns and arities.
    #[test]
    fn tree_ratios_are_densities(
        leaves in prop::collection::vec(any::<bool>(), 1..600),
        arity in 2usize..9,
    ) {
        let tree = MaryTree::build(&leaves, arity);
        let root = tree.root();
        let critical = leaves.iter().filter(|&&b| b).count();
        prop_assert_eq!(tree.value(root) as usize, critical);
        prop_assert_eq!(tree.leaves_under(root) as usize, leaves.len());
        let tr = tree.tree_ratio(root);
        prop_assert!((0.0..=1.0).contains(&tr));
        prop_assert!((tr - critical as f64 / leaves.len() as f64).abs() < 1e-12);
    }

    /// Promotion is monotone and bounded for arbitrary inputs.
    #[test]
    fn promotion_monotone_and_bounded(
        leaves in prop::collection::vec(any::<bool>(), 1..400),
        arity in 2usize..6,
        threshold in 0.0f64..1.0,
    ) {
        let tree = MaryTree::build(&leaves, arity);
        let out = promote(&tree, &leaves, threshold);
        prop_assert_eq!(out.len(), leaves.len());
        for (s, p) in leaves.iter().zip(&out) {
            prop_assert!(!s | p, "promotion demoted a sampled chunk");
        }
        // With no sampled-critical chunks nothing appears from thin air
        // (unless threshold is 0, which promotes everything by definition).
        if leaves.iter().all(|&b| !b) && threshold > 0.0 {
            prop_assert!(out.iter().all(|&b| !b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full pipeline — random allocations, random access patterns,
    /// profile, optimize — must preserve every byte, stay within the fast
    /// tier, and leave all registered ranges translatable.
    #[test]
    fn pipeline_preserves_data_under_random_workloads(
        sizes in prop::collection::vec(1usize..64, 1..4),
        hot_starts in prop::collection::vec(0usize..1024, 1..4),
        accesses in 2_000usize..20_000,
        seed in any::<u64>(),
    ) {
        use atmem_rng::SmallRng;

        let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
        let mut arrays = Vec::new();
        for (i, pages) in sizes.iter().enumerate() {
            let elems = pages * 512; // 4 KiB pages of u64
            let v = rt.malloc::<u64>(elems, &format!("o{i}")).unwrap();
            for e in 0..elems {
                v.poke(rt.machine_mut(), e, (i as u64) << 32 | e as u64);
            }
            arrays.push(v);
        }
        rt.profiling_start().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..accesses {
            let v = &arrays[k % arrays.len()];
            let hot = hot_starts[k % hot_starts.len()] % v.len();
            let span = (v.len() / 4).max(1);
            let idx = if rng.gen::<f64>() < 0.8 {
                (hot + rng.gen_range(0..span)) % v.len()
            } else {
                rng.gen_range(0..v.len())
            };
            let _ = v.get(rt.machine_mut(), idx);
        }
        rt.profiling_stop().unwrap();
        let report = rt.optimize().unwrap();

        // Budget respected.
        let fast_used = rt.machine().stats().bytes_used[atmem_hms::TierId::FAST.index()] as usize;
        prop_assert!(fast_used <= rt.machine().capacity(atmem_hms::TierId::FAST));
        prop_assert!(report.data_ratio <= 1.0);

        // Every byte intact and translatable.
        for (i, v) in arrays.iter().enumerate() {
            for e in (0..v.len()).step_by(97) {
                prop_assert_eq!(
                    v.peek(rt.machine_mut(), e),
                    (i as u64) << 32 | e as u64
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Local selection never selects unsampled chunks and always keeps the
    /// single hottest chunk when anything is selected.
    #[test]
    fn local_selection_respects_sampling(
        counts in prop::collection::vec(0u64..500, 2..128),
    ) {
        use atmem::chunk_geometry;
        use atmem::{ChunkConfig, Registry};
        use atmem_hms::{VirtAddr, VirtRange};

        let bytes = counts.len() * 4096;
        let mut registry = Registry::new();
        let geometry = chunk_geometry(
            bytes,
            &ChunkConfig { target_chunks: counts.len(), min_chunk_bytes: 4096 },
        );
        let id = registry.register(
            "t",
            VirtRange::new(VirtAddr::new(0x40000000), bytes),
            geometry,
        );
        for (i, &c) in counts.iter().enumerate() {
            let va = registry.get(id).unwrap().chunk_range(i).start;
            for _ in 0..c {
                registry.attribute(va).unwrap();
            }
        }
        let sel = local_selection(registry.get(id).unwrap());
        for (i, &critical) in sel.critical.iter().enumerate() {
            if critical {
                prop_assert!(counts[i] > 0, "chunk {i} selected without samples");
            }
        }
        if sel.critical.iter().any(|&c| c) {
            let hottest = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap();
            prop_assert!(
                sel.critical[hottest],
                "hottest chunk {hottest} not selected"
            );
        }
    }
}
