//! Migration planning: chunks → page-aligned regions under a budget.
//!
//! The analyzer hands back per-chunk criticality. The planner turns that
//! into concrete migratable work: adjacent critical chunks of an object are
//! coalesced into contiguous regions (one launch per region, amortising
//! per-migration overhead — a benefit the paper attributes to promotion's
//! gap patching), regions are page-aligned, split at a configurable cap,
//! ranked by priority density, and selected greedily until the fast-tier
//! budget runs out.

use atmem_hms::{Machine, TierId, VirtRange, PAGE_SIZE};

use crate::analyzer::Analysis;
use crate::config::MigrationConfig;
use crate::object::ObjectId;
use crate::registry::Registry;

/// One planned contiguous migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedRegion {
    /// The object the region belongs to.
    pub object: ObjectId,
    /// Page-aligned virtual range to migrate.
    pub range: VirtRange,
    /// Mean chunk priority over the region (misses per byte).
    pub priority: f64,
    /// Per-region destination tier. `None` inherits the call-level target
    /// passed to [`execute_plan`](crate::migrate::execute_plan); `Some`
    /// overrides it — how one hop of a multi-tier demotion cascade routes
    /// its regions without a separate execution entry point.
    pub dst: Option<TierId>,
}

/// The full plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationPlan {
    /// Regions in execution order (highest priority density first).
    pub regions: Vec<PlannedRegion>,
    /// Total bytes the plan will move.
    pub total_bytes: usize,
    /// Bytes selected by the analyzer that did not fit the budget.
    pub dropped_bytes: usize,
}

impl MigrationPlan {
    /// Whether the plan moves anything.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// All candidate promotion regions of one (registry, analysis) pair:
/// coalesced runs of critical chunks, page-aligned and split at the cap.
/// Unsorted — the optimizer concatenates every tenant's candidates and
/// ranks and admits them together ([`plan_from`]).
pub(crate) fn promotion_candidates(
    registry: &Registry,
    analysis: &Analysis,
    config: &MigrationConfig,
) -> Vec<PlannedRegion> {
    let mut candidates: Vec<PlannedRegion> = Vec::new();
    for oa in &analysis.objects {
        let obj = match registry.get(oa.id) {
            Some(o) => o,
            None => continue,
        };
        // Coalesce runs of critical chunks.
        let mut run_start: Option<usize> = None;
        for i in 0..=oa.critical.len() {
            let is_critical = i < oa.critical.len() && oa.critical[i];
            match (run_start, is_critical) {
                (None, true) => run_start = Some(i),
                (Some(s), false) => {
                    candidates.extend(region_from_run(obj, &oa.selection.priorities, s, i, config));
                    run_start = None;
                }
                _ => {}
            }
        }
    }
    candidates
}

/// Hottest-first region order: priority density descending, ties broken by
/// address for determinism. Virtual addresses are globally unique, so the
/// order is total even across tenants sharing one machine.
fn hotter_first(a: &PlannedRegion, b: &PlannedRegion) -> std::cmp::Ordering {
    b.priority
        .partial_cmp(&a.priority)
        .expect("priorities are finite")
        .then(a.range.start.cmp(&b.range.start))
}

/// Coldest-first region order (the demotion rank), with the same address
/// tiebreak as [`hotter_first`].
fn colder_first(a: &PlannedRegion, b: &PlannedRegion) -> std::cmp::Ordering {
    a.priority
        .partial_cmp(&b.priority)
        .expect("priorities are finite")
        .then(a.range.start.cmp(&b.range.start))
}

/// Slow-resident bytes the selection behind `candidates` wants on `target`:
/// what an upcoming promotion will actually move, and therefore what a
/// demotion ahead of it has to make room for.
pub(crate) fn promotion_demand(
    machine: &Machine,
    candidates: &[PlannedRegion],
    target: TierId,
) -> usize {
    candidates
        .iter()
        .map(|r| r.range.len - machine.resident_bytes(r.range, target))
        .sum()
}

/// Builds the plan for `analysis` under `budget_bytes` of fast-tier space.
pub fn build_plan(
    registry: &Registry,
    analysis: &Analysis,
    config: &MigrationConfig,
    budget_bytes: usize,
) -> MigrationPlan {
    plan_from(
        promotion_candidates(registry, analysis, config),
        budget_bytes,
    )
}

/// Ranks `candidates` hottest first and admits them greedily under
/// `budget_bytes` (the body of [`build_plan`], for a caller that already
/// holds the candidates).
pub(crate) fn plan_from(mut candidates: Vec<PlannedRegion>, budget_bytes: usize) -> MigrationPlan {
    candidates.sort_by(hotter_first);

    let mut plan = MigrationPlan::default();
    for region in candidates {
        if plan.total_bytes + region.range.len <= budget_bytes {
            plan.total_bytes += region.range.len;
            plan.regions.push(region);
        } else {
            plan.dropped_bytes += region.range.len;
        }
    }
    plan
}

/// The promotion budget the optimizer derives from `free_bytes` of
/// fast-tier space: a `budget_frac` headroom, minus a reserve for one
/// staging buffer (the transient of the staged mechanism), never more
/// than half the headroom on small tiers.
///
/// **Why the reserve is sufficient** (checked by the exact-fit regression
/// test in `migrate::staged`): regions execute one at a time, so the peak
/// transient fast-tier usage while executing a plan of total size `T ≤
/// budget` is `T + rᵢ`, where `rᵢ ≤ max_region_bytes` is the staging buffer
/// of the region in flight. With `reserve = min(max_region_bytes,
/// headroom/2)` two cases close the argument: if `max_region_bytes ≤
/// headroom/2` then `T + rᵢ ≤ (headroom − reserve) + max_region_bytes =
/// headroom`; otherwise `reserve = headroom/2`, every admissible region
/// also satisfies `rᵢ ≤ T ≤ budget = headroom/2`, and again `T + rᵢ ≤
/// headroom`. Since `headroom ≤ free_bytes`, a plan that fills the budget
/// exactly still executes without staging-allocation pressure on a
/// quiescent machine.
pub(crate) fn promotion_budget(free_bytes: usize, config: &MigrationConfig) -> usize {
    let headroom = (free_bytes as f64 * config.budget_frac) as usize;
    let staging_reserve = config.max_region_bytes.min(headroom / 2);
    headroom - staging_reserve
}

/// Splits the demotion `candidates` of `src` into the coldest-first prefix
/// to evict and the rest, which stays put: candidates are taken, coldest
/// first, until `covered(freed)` holds, where `freed` is what evicting the
/// prefix so far gives back to `src`.
///
/// Demoting a region frees only the bytes of it *currently resident* on
/// `src` — a candidate run can straddle tiers after a partial or interrupted
/// earlier migration — so `freed` accumulates `resident_bytes`, not region
/// lengths. Counting full lengths under-evicts exactly when residency is
/// partial. This is the one copy of that rule: every hop of the cascade
/// sizes its eviction here.
fn evict_coldest_until(
    machine: &Machine,
    src: TierId,
    mut candidates: Vec<PlannedRegion>,
    covered: impl Fn(usize) -> bool,
) -> (Vec<PlannedRegion>, Vec<PlannedRegion>) {
    candidates.sort_by(colder_first);
    let mut freed = 0usize;
    let mut evict = 0;
    while evict < candidates.len() && !covered(freed) {
        freed += machine.resident_bytes(candidates[evict].range, src);
        evict += 1;
    }
    let keep = candidates.split_off(evict);
    (candidates, keep)
}

/// A demotion hop evicting `evict` to `dst` and leaving `keep` where it is.
fn demotion_hop(
    mut evict: Vec<PlannedRegion>,
    keep: &[PlannedRegion],
    dst: TierId,
) -> MigrationPlan {
    for region in &mut evict {
        region.dst = Some(dst);
    }
    MigrationPlan {
        total_bytes: evict.iter().map(|r| r.range.len).sum(),
        dropped_bytes: keep.iter().map(|r| r.range.len).sum(),
        regions: evict,
    }
}

/// Builds the hops of an N-tier demotion cascade over the stale residue of
/// every tenant in `tenants` (each a registry and its latest analysis),
/// returned in execution order: coldest pair first, the hottest pair last.
/// Stale residue is the runs of chunks the latest analysis no longer
/// classifies as critical; demoting it frees room for a shifted hot set —
/// the phase-adaptivity extension the paper leaves as future work (§9).
///
/// The hottest hop frees top-tier space for `demand_bytes` of incoming
/// promotion (the slow-resident bytes the upcoming promotion wants to
/// move): candidates are taken coldest-first only until the prospective
/// promotion budget, over current free space plus the bytes freed so far,
/// covers the demand. Warm residue the new hot set does not displace stays
/// put, so alternating phases do not thrash the whole fast tier on every
/// optimize. Each colder hop `k → k+1` is sized *from the hop above it*:
/// it evicts just enough non-critical tier-`k` residue (coldest first) that
/// tier `k` can absorb the bytes the hotter hop will push down. Hops are
/// computed hottest-pair-first (each feeds the demand of the next) but must
/// execute coldest-pair-first so the room exists when the bytes arrive —
/// hence the reversed order of the returned vector. Every hop's regions
/// carry their destination in [`PlannedRegion::dst`]; a region counts for
/// the bytes of it resident on the tier being freed, not for its length
/// (`evict_coldest_until`).
///
/// On a two-tier machine this degenerates to exactly one hop, fast to slow.
pub fn build_demotion_cascade(
    tenants: &[(&Registry, &Analysis)],
    machine: &Machine,
    config: &MigrationConfig,
    demand_bytes: usize,
) -> Vec<MigrationPlan> {
    let candidates = |src: TierId| -> Vec<PlannedRegion> {
        tenants
            .iter()
            .flat_map(|(registry, analysis)| {
                demotion_candidates(registry, analysis, machine, config, src)
            })
            .collect()
    };
    let num_tiers = machine.num_tiers();
    let free = machine.free_bytes(TierId::FAST);
    let (evict, keep) =
        evict_coldest_until(machine, TierId::FAST, candidates(TierId::FAST), |freed| {
            promotion_budget(free + freed, config) >= demand_bytes
        });
    let mut hops = vec![demotion_hop(
        evict,
        &keep,
        TierId::new(1.min(num_tiers - 1)),
    )];
    // Middle hops: tier k must absorb what hop k-1 demotes into it. Two
    // accounting subtleties, both flushed out by the overcommitted-middle-
    // tier scenario test in `tests/migration.rs`:
    //
    // * The hotter hop's transient footprint on tier k exceeds its
    //   `total_bytes`: the staged mechanism allocates a staging buffer on
    //   the destination for the region in flight, so the peak is
    //   `total_bytes + max(region len)` (staging is freed per region —
    //   see `promotion_budget`'s sufficiency argument).
    // * Demoting a tier-k region frees only the bytes of it *resident on
    //   tier k*; candidates only need `resident_bytes > 0`, so sizing the
    //   hop by region lengths under-evicts partially-resident residue
    //   (`evict_coldest_until` counts resident bytes).
    for k in 1..num_tiers.saturating_sub(1) {
        let src = TierId::new(k);
        let above = hops.last().expect("cascade has a hottest hop");
        let staging = above.regions.iter().map(|r| r.range.len).max().unwrap_or(0);
        let incoming = above.total_bytes + staging;
        if machine.free_bytes(src) >= incoming {
            break;
        }
        let shortfall = incoming - machine.free_bytes(src);
        let (evict, keep) =
            evict_coldest_until(machine, src, candidates(src), |freed| freed >= shortfall);
        let hop = demotion_hop(evict, &keep, TierId::new(k + 1));
        if hop.is_empty() {
            break;
        }
        hops.push(hop);
    }
    hops.reverse();
    hops
}

/// All candidate demotion regions of one (registry, analysis) pair: runs
/// of non-critical chunks with any bytes resident on `src_tier`. Unsorted,
/// like [`promotion_candidates`].
fn demotion_candidates(
    registry: &Registry,
    analysis: &Analysis,
    machine: &Machine,
    config: &MigrationConfig,
    src_tier: TierId,
) -> Vec<PlannedRegion> {
    let mut candidates: Vec<PlannedRegion> = Vec::new();
    for oa in &analysis.objects {
        let obj = match registry.get(oa.id) {
            Some(o) => o,
            None => continue,
        };
        // Runs of non-critical chunks with any bytes on the source tier.
        let demotable =
            |i: usize| !oa.critical[i] && machine.resident_bytes(obj.chunk_range(i), src_tier) > 0;
        let mut run_start: Option<usize> = None;
        for i in 0..=oa.critical.len() {
            let in_run = i < oa.critical.len() && demotable(i);
            match (run_start, in_run) {
                (None, true) => run_start = Some(i),
                (Some(s), false) => {
                    candidates.extend(region_from_run(obj, &oa.selection.priorities, s, i, config));
                    run_start = None;
                }
                _ => {}
            }
        }
    }
    candidates
}

/// Converts the chunk run `[first, last)` of `obj` into one or more
/// page-aligned regions no larger than `config.max_region_bytes`.
fn region_from_run(
    obj: &crate::object::DataObject,
    priorities: &[f64],
    first: usize,
    last: usize,
    config: &MigrationConfig,
) -> Vec<PlannedRegion> {
    let run_start_byte = obj.chunk_range(first).start;
    let run_end_byte = obj.chunk_range(last - 1).end();

    // Page-align outward, clamped to the object's page-aligned footprint
    // (the allocation itself is page-aligned, so expanding to page borders
    // never leaves the allocation).
    let aligned_start = run_start_byte.raw() & !(PAGE_SIZE as u64 - 1);
    let aligned_end = (run_end_byte.raw()).next_multiple_of(PAGE_SIZE as u64);
    let total = (aligned_end - aligned_start) as usize;

    // Split at the cap (cap rounded down to a page multiple, at least one
    // page). Each piece carries the mean priority of the chunks *it*
    // covers — a promoted run can mix a hot window with cold estimated
    // chunks, and a run-wide mean would let the budget pick the cold half.
    let cap = (config.max_region_bytes / PAGE_SIZE).max(1) * PAGE_SIZE;
    let obj_start = obj.range().start.raw();
    let geometry = obj.geometry();
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < total {
        let len = (total - offset).min(cap);
        let piece_start = aligned_start + offset as u64;
        // Chunks overlapping this piece, clamped to the run.
        let lo = ((piece_start - obj_start) as usize / geometry.chunk_bytes).max(first);
        let hi = ((piece_start + len as u64 - 1 - obj_start) as usize / geometry.chunk_bytes)
            .min(last - 1);
        let priority = if lo <= hi {
            priorities[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        } else {
            0.0
        };
        out.push(PlannedRegion {
            object: obj.id(),
            range: VirtRange::new(atmem_hms::VirtAddr::new(piece_start), len),
            priority,
            dst: None,
        });
        offset += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::LocalSelection;
    use crate::analyzer::ObjectAnalysis;
    use crate::chunk::chunk_geometry;
    use crate::config::ChunkConfig;
    use atmem_hms::VirtAddr;

    /// One object of `chunks` 4 KiB chunks with the given criticality and
    /// uniform priorities.
    fn fixture(chunks: usize, critical: Vec<bool>) -> (Registry, Analysis) {
        let mut registry = Registry::new();
        let bytes = chunks * 4096;
        let g = chunk_geometry(
            bytes,
            &ChunkConfig {
                target_chunks: chunks,
                min_chunk_bytes: 4096,
            },
        );
        let id = registry.register("o", VirtRange::new(VirtAddr::new(0x40000000), bytes), g);
        let priorities = critical
            .iter()
            .map(|&c| if c { 1.0 } else { 0.0 })
            .collect();
        let analysis = Analysis {
            objects: vec![ObjectAnalysis {
                id,
                selection: LocalSelection {
                    priorities,
                    theta: 0.5,
                    critical: critical.clone(),
                },
                weight: 1.0,
                tr_threshold: 0.5,
                critical,
                promoted_chunks: 0,
            }],
        };
        (registry, analysis)
    }

    #[test]
    fn adjacent_chunks_coalesce() {
        let (r, a) = fixture(8, vec![false, true, true, true, false, false, true, false]);
        let plan = build_plan(&r, &a, &MigrationConfig::default(), usize::MAX);
        assert_eq!(plan.regions.len(), 2);
        assert_eq!(plan.total_bytes, 4 * 4096);
        // First region is 3 chunks, the second 1.
        let lens: Vec<usize> = plan.regions.iter().map(|p| p.range.len).collect();
        assert!(lens.contains(&(3 * 4096)) && lens.contains(&4096));
    }

    #[test]
    fn budget_drops_lowest_priority() {
        let (r, mut a) = fixture(4, vec![true, false, true, false]);
        // Make chunk 0 hotter than chunk 2.
        a.objects[0].selection.priorities = vec![5.0, 0.0, 1.0, 0.0];
        let plan = build_plan(&r, &a, &MigrationConfig::default(), 4096);
        assert_eq!(plan.regions.len(), 1);
        assert_eq!(plan.regions[0].range.start, VirtAddr::new(0x40000000));
        assert_eq!(plan.dropped_bytes, 4096);
    }

    #[test]
    fn regions_split_at_cap() {
        let (r, a) = fixture(16, vec![true; 16]);
        let config = MigrationConfig {
            max_region_bytes: 4 * 4096,
            ..MigrationConfig::default()
        };
        let plan = build_plan(&r, &a, &config, usize::MAX);
        assert_eq!(plan.regions.len(), 4);
        assert!(plan.regions.iter().all(|p| p.range.len == 4 * 4096));
        assert_eq!(plan.total_bytes, 16 * 4096);
    }

    #[test]
    fn split_pieces_carry_their_own_priorities() {
        // One promoted run mixing a cold promoted half (chunks 0..8) and a
        // hot sampled half (chunks 8..16). Under a budget of half the run,
        // the HOT half must win — a run-wide mean priority would tie the
        // pieces and let address order pick the cold half.
        let (r, mut a) = fixture(16, vec![true; 16]);
        a.objects[0].selection.priorities =
            (0..16).map(|i| if i < 8 { 0.0 } else { 1.0 }).collect();
        let config = MigrationConfig {
            max_region_bytes: 4 * 4096,
            ..MigrationConfig::default()
        };
        let plan = build_plan(&r, &a, &config, 8 * 4096);
        assert_eq!(plan.total_bytes, 8 * 4096);
        for p in &plan.regions {
            let off = p.range.start.offset_from(VirtAddr::new(0x40000000));
            assert!(
                off >= 8 * 4096,
                "cold piece at offset {off} selected over the hot half"
            );
            assert!(p.priority > 0.9);
        }
        assert_eq!(plan.dropped_bytes, 8 * 4096);
    }

    /// A machine-backed fixture: one object of `chunks` 4 KiB chunks
    /// resident on `placement`, with the fast tier sized exactly to the
    /// object (free fast space is zero when `placement` is fast).
    fn machine_fixture(
        chunks: usize,
        critical: Vec<bool>,
        priorities: Vec<f64>,
        placement: atmem_hms::Placement,
    ) -> (Registry, Analysis, atmem_hms::Machine) {
        use atmem_hms::{Machine, Platform};
        let bytes = chunks * 4096;
        let mut m = Machine::new(Platform::testing().with_capacities(bytes, 64 * 1024 * 1024));
        let r = m.alloc(bytes, placement).unwrap();
        let g = chunk_geometry(
            bytes,
            &ChunkConfig {
                target_chunks: chunks,
                min_chunk_bytes: 4096,
            },
        );
        let mut registry = Registry::new();
        let id = registry.register("o", VirtRange::new(r.start, bytes), g);
        let analysis = Analysis {
            objects: vec![ObjectAnalysis {
                id,
                selection: LocalSelection {
                    priorities: priorities.clone(),
                    theta: 0.5,
                    critical: critical.clone(),
                },
                weight: 1.0,
                tr_threshold: 0.5,
                critical,
                promoted_chunks: 0,
            }],
        };
        (registry, analysis, m)
    }

    /// The cascade on the two-tier fixture machine: its one hop.
    fn demotion_plan(
        r: &Registry,
        a: &Analysis,
        m: &atmem_hms::Machine,
        config: &MigrationConfig,
        demand: usize,
    ) -> MigrationPlan {
        let mut hops = build_demotion_cascade(&[(r, a)], m, config, demand);
        assert_eq!(hops.len(), 1, "two tiers, one hop: {hops:?}");
        hops.pop().unwrap()
    }

    /// Per-chunk regions so ordering is observable.
    fn chunk_granular() -> MigrationConfig {
        MigrationConfig {
            max_region_bytes: 4096,
            ..MigrationConfig::default()
        }
    }

    #[test]
    fn demotion_takes_a_minimal_coldest_first_prefix() {
        let priorities = vec![0.8, 0.1, 0.5, 0.3, 0.7, 0.2, 0.6, 0.4];
        let (r, a, m) = machine_fixture(8, vec![false; 8], priorities, atmem_hms::Placement::Fast);
        let config = chunk_granular();
        let demand = 4096;
        let plan = demotion_plan(&r, &a, &m, &config, demand);
        assert!(!plan.is_empty(), "stale bytes must be freed for demand");
        // Coldest first.
        let prios: Vec<f64> = plan.regions.iter().map(|p| p.priority).collect();
        let mut sorted = prios.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(prios, sorted, "demotion must evict coldest first");
        assert!(prios[0] < 0.15, "the coldest chunk leads the plan");
        // The prefix is minimal: enough to cover the demand, and one region
        // fewer would not be.
        let free = m.free_bytes(atmem_hms::TierId::FAST);
        assert!(promotion_budget(free + plan.total_bytes, &config) >= demand);
        let one_less = plan.total_bytes - plan.regions.last().unwrap().range.len;
        assert!(promotion_budget(free + one_less, &config) < demand);
        // Warm residue stays put.
        assert!(plan.dropped_bytes > 0);
        assert_eq!(plan.total_bytes + plan.dropped_bytes, 8 * 4096);
    }

    #[test]
    fn demotion_is_empty_without_promotion_demand() {
        let (r, a, m) =
            machine_fixture(8, vec![false; 8], vec![0.0; 8], atmem_hms::Placement::Fast);
        let plan = demotion_plan(&r, &a, &m, &chunk_granular(), 0);
        assert!(plan.is_empty(), "no demand, nothing to evict: {plan:?}");
        assert_eq!(plan.total_bytes, 0);
    }

    #[test]
    fn demotion_never_touches_critical_or_slow_resident_chunks() {
        // Critical chunks are exempt however large the demand.
        let (r, a, m) = machine_fixture(
            4,
            vec![true, false, false, true],
            vec![0.9, 0.1, 0.2, 0.8],
            atmem_hms::Placement::Fast,
        );
        let plan = demotion_plan(&r, &a, &m, &chunk_granular(), usize::MAX / 2);
        assert_eq!(plan.regions.len(), 2);
        let obj_start = r.iter().next().unwrap().range().start;
        for p in &plan.regions {
            let chunk = p.range.start.offset_from(obj_start) / 4096;
            assert!((1..=2).contains(&chunk), "critical chunk {chunk} demoted");
        }
        // A slow-resident object offers no candidates at all.
        let (r, a, m) =
            machine_fixture(4, vec![false; 4], vec![0.5; 4], atmem_hms::Placement::Slow);
        let plan = demotion_plan(&r, &a, &m, &chunk_granular(), usize::MAX / 2);
        assert!(plan.is_empty());
    }

    #[test]
    fn empty_analysis_empty_plan() {
        let (r, a) = fixture(4, vec![false; 4]);
        let plan = build_plan(&r, &a, &MigrationConfig::default(), usize::MAX);
        assert!(plan.is_empty());
        assert_eq!(plan.total_bytes, 0);
    }

    #[test]
    fn ranges_are_page_aligned() {
        let (r, a) = fixture(6, vec![false, true, true, false, true, true]);
        let plan = build_plan(&r, &a, &MigrationConfig::default(), usize::MAX);
        for p in &plan.regions {
            assert_eq!(p.range.start.page_offset(), 0);
            assert_eq!(p.range.len % PAGE_SIZE, 0);
        }
    }
}
