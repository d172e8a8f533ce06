//! Deterministic contiguous partitions for sharded kernel phases.
//!
//! `Machine::run_cores` requires each phase to respect the partition
//! contract: bytes written by one core must not be accessed by any other
//! core in the same phase. The kernels therefore split their vertex (or
//! destination) spaces into **contiguous** per-core ranges, which keeps
//! ownership checks trivial (a range comparison), keeps every per-core
//! stream sequential (the block fast path stays effective), and — because
//! the split depends only on the input sizes — makes the partition itself
//! deterministic, a prerequisite for the engine's run-to-run determinism.
//!
//! Two splitters cover the kernels' needs:
//!
//! * [`even_cuts`] — equal element counts; used for property-array sweeps
//!   (damping steps, accumulator ownership) where work is uniform per
//!   element.
//! * [`edge_cuts`] — equal *edge* counts derived from a CSR row-bounds
//!   prefix array; used for traversal phases where per-vertex work follows
//!   the (skewed) degree distribution.
//!
//! All functions return `cores + 1` cut points; core `c` owns
//! `cuts[c]..cuts[c + 1]`. Ranges may be empty (more cores than work) but
//! always concatenate to `0..n` in core order.

/// Splits `0..n` into `cores` contiguous ranges of near-equal length.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub(crate) fn even_cuts(n: usize, cores: usize) -> Vec<usize> {
    assert!(cores >= 1, "core count must be positive");
    (0..=cores).map(|c| n * c / cores).collect()
}

/// Splits the vertex range `0..n` of a CSR prefix array into `cores`
/// contiguous ranges of near-equal **edge** count: each cut lands on the
/// first vertex at or past the next `total_edges / cores` quantile.
/// `bound(i)` reads entry `i` (`0..=n`) of the monotone prefix array. Each
/// cut is one binary search, so a caller can read the entries on demand
/// (`HmsGraph` peeks them in simulated memory) rather than copy the array
/// out; one core reads only the two ends.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub(crate) fn edge_cuts(n: usize, mut bound: impl FnMut(usize) -> u64, cores: usize) -> Vec<usize> {
    assert!(cores >= 1, "core count must be positive");
    let first = bound(0);
    let total = bound(n) - first;
    let mut cuts = Vec::with_capacity(cores + 1);
    cuts.push(0usize);
    for c in 1..cores {
        // The quantile product can exceed u64 for edge counts near
        // u64::MAX / cores, so widen before multiplying.
        let target = first + (u128::from(total) * c as u128 / cores as u128) as u64;
        // The first entry at or past `target` (a `partition_point`).
        let (mut lo, mut hi) = (0, n + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if bound(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let prev = *cuts.last().expect("cuts is non-empty");
        cuts.push(lo.min(n).max(prev));
    }
    cuts.push(n);
    cuts
}

/// The core owning index `i` under the partition `cuts` (the unique `c`
/// with `cuts[c] <= i < cuts[c + 1]`, skipping empty ranges).
///
/// # Panics
///
/// Panics in every build profile when `i` falls outside the partitioned
/// range: a silently misrouted index would be folded by the wrong core,
/// corrupting the deterministic merge with no diagnostic, so the check
/// must survive release builds.
pub(crate) fn owner(cuts: &[usize], i: usize) -> usize {
    assert!(cuts.len() >= 2, "partition needs at least one range");
    assert!(
        i < *cuts.last().expect("cuts is non-empty"),
        "index {i} outside partition"
    );
    cuts.partition_point(|&c| c <= i).saturating_sub(1)
}

/// Slices a **sorted** frontier along the vertex partition `cuts`:
/// returns `cuts.len()` positions into `frontier` such that core `c` owns
/// the frontier slice `out[c]..out[c + 1]`.
///
/// Because the partition ranges are contiguous and the frontier is sorted
/// ascending, each core's share of the frontier is itself contiguous —
/// the sharded traversal kernels rely on this to hand every core a plain
/// subslice instead of a filtered copy.
///
/// # Panics
///
/// Panics if `frontier` is not sorted in ascending order.
pub(crate) fn frontier_cuts(cuts: &[usize], frontier: &[u32]) -> Vec<usize> {
    assert!(
        frontier.windows(2).all(|w| w[0] <= w[1]),
        "frontier must be sorted for contiguous owner slices"
    );
    cuts.iter()
        .map(|&c| frontier.partition_point(|&v| (v as usize) < c))
        .collect()
}

/// Folds each core's per-owner queues (`per_core[c][o]`: what core `c`
/// routed to owner `o`) into one queue per owner, in `(core, emission)`
/// order. The order depends only on each core's own emissions, so a
/// deterministic partition gives the same queues run to run.
///
/// # Panics
///
/// Panics if the cores disagree on the owner count.
pub(crate) fn merge_owners<T>(per_core: Vec<Vec<Vec<T>>>) -> Vec<Vec<T>> {
    let mut per_core = per_core.into_iter();
    let mut merged = per_core.next().unwrap_or_default();
    for queues in per_core {
        assert_eq!(queues.len(), merged.len(), "owner count mismatch");
        for (into, mut queue) in merged.iter_mut().zip(queues) {
            into.append(&mut queue);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_folds_in_core_then_emission_order() {
        let core0 = vec![vec!["c0a", "c0c"], vec!["c0b"]];
        let core1 = vec![vec!["c1b"], vec!["c1a"]];
        let merged = merge_owners(vec![core0, core1]);
        assert_eq!(merged[0], vec!["c0a", "c0c", "c1b"]);
        assert_eq!(merged[1], vec!["c0b", "c1a"]);
    }

    #[test]
    fn merge_of_empty_queues_yields_empty_owners() {
        let empty = || vec![Vec::<u32>::new(); 3];
        let merged = merge_owners(vec![empty(), empty()]);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "owner count")]
    fn merge_rejects_mismatched_owner_counts() {
        let _ = merge_owners(vec![vec![Vec::<u32>::new(); 2], vec![Vec::new(); 3]]);
    }

    fn cuts_of(bounds: &[u64], cores: usize) -> Vec<usize> {
        edge_cuts(bounds.len() - 1, |i| bounds[i], cores)
    }

    #[test]
    fn edge_cuts_match_a_linear_scan() {
        // Monotone prefix arrays with runs of equal entries (empty rows):
        // every cut is the first entry at or past its quantile, clamped to
        // `n` and kept monotone.
        for len in 1..40u64 {
            let bounds: Vec<u64> = (0..len).map(|v| (v * v / 7) * 3).collect();
            let n = bounds.len() - 1;
            for cores in 1..6 {
                let total = bounds[n] - bounds[0];
                let mut want = vec![0];
                for c in 1..cores {
                    let target = bounds[0] + total * c as u64 / cores as u64;
                    let cut = bounds.iter().position(|&b| b >= target).unwrap_or(n);
                    want.push(cut.min(n).max(*want.last().unwrap()));
                }
                want.push(n);
                assert_eq!(cuts_of(&bounds, cores), want, "n {n}, {cores} cores");
            }
        }
    }

    #[test]
    fn even_cuts_cover_and_balance() {
        let cuts = even_cuts(10, 4);
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&10));
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1]);
            assert!(w[1] - w[0] <= 3);
        }
    }

    #[test]
    fn even_cuts_with_more_cores_than_items() {
        let cuts = even_cuts(2, 4);
        assert_eq!(cuts, vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn edge_cuts_balance_by_degree() {
        // Vertex 0 holds 90 of 100 edges: it gets its own range and the
        // remaining vertices split the tail.
        let bounds = [0u64, 90, 92, 94, 96, 98, 100];
        let cuts = cuts_of(&bounds, 2);
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&6));
        assert_eq!(cuts[1], 1, "the hub alone exceeds the per-core quota");
    }

    #[test]
    fn edge_cuts_handle_empty_graph() {
        let bounds = [0u64, 0, 0, 0];
        let cuts = cuts_of(&bounds, 3);
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&3));
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn owner_is_consistent_with_cuts() {
        let cuts = vec![0, 3, 3, 7, 10];
        for i in 0..10 {
            let c = owner(&cuts, i);
            assert!(cuts[c] <= i && i < cuts[c + 1], "index {i} -> core {c}");
        }
    }

    #[test]
    fn edge_cuts_survive_near_max_edge_counts() {
        // total * c used to overflow u64 before the divide; with u128
        // quantile math the hub vertex still takes the first range and the
        // remaining cuts stay monotone.
        let bounds = [0u64, u64::MAX / 2, u64::MAX - 1];
        let cuts = cuts_of(&bounds, 3);
        assert_eq!(cuts, vec![0, 1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "outside partition")]
    fn owner_rejects_out_of_range_index_in_all_profiles() {
        // Must panic even in release builds: silently attributing an
        // out-of-range index to the last core corrupts the merge.
        let cuts = vec![0, 3, 7];
        let _ = owner(&cuts, 7);
    }

    #[test]
    fn frontier_cuts_give_contiguous_owner_slices() {
        let cuts = vec![0, 3, 3, 7, 10];
        let frontier = vec![0u32, 2, 4, 5, 6, 9];
        let slices = frontier_cuts(&cuts, &frontier);
        assert_eq!(slices, vec![0, 2, 2, 5, 6]);
        for (c, w) in slices.windows(2).enumerate() {
            for &v in &frontier[w[0]..w[1]] {
                assert_eq!(owner(&cuts, v as usize), c);
            }
        }
    }

    #[test]
    fn frontier_cuts_handle_empty_frontier_and_idle_cores() {
        let cuts = vec![0, 5, 10];
        assert_eq!(frontier_cuts(&cuts, &[]), vec![0, 0, 0]);
        // More cores than frontier vertices: trailing cores own nothing.
        let cuts = vec![0, 1, 2, 3, 4];
        assert_eq!(frontier_cuts(&cuts, &[0]), vec![0, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn frontier_cuts_reject_unsorted_frontiers() {
        let _ = frontier_cuts(&[0, 5], &[3, 1]);
    }

    #[test]
    fn every_index_has_exactly_one_owner() {
        let bounds: Vec<u64> = (0..=17u64).map(|v| v * v).collect();
        let cuts = cuts_of(&bounds, 4);
        let mut counts = [0usize; 17];
        for (c, w) in cuts.windows(2).enumerate() {
            for (i, count) in counts.iter_mut().enumerate().take(w[1]).skip(w[0]) {
                *count += 1;
                assert_eq!(owner(&cuts, i), c);
            }
        }
        assert!(counts.iter().all(|&k| k == 1));
    }
}
