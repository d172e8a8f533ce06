//! Multi-stage multi-threaded migration (paper §4.4, Figure 4).
//!
//! For each planned region the engine performs three stages:
//!
//! 1. **Staging** — multiple simulated copier threads copy the source region
//!    into a staging buffer whose frames are on the *target* tier;
//! 2. **Remapping** — the virtual pages of the region are remapped onto
//!    fresh frames on the target tier (huge mappings where alignment
//!    allows), with a single range TLB shootdown; no data moves;
//! 3. **Moving** — the same simulated threads copy the staged bytes into the
//!    final frames (a same-tier copy).
//!
//! The thread count is a parameter of the simulated copy-time model only.
//! On the host, stage 1 pins the source frames instead of copying them and
//! stage 3 hands each of their 4 KiB pages to the new mapping, copying
//! nothing (see [`Machine::copy_frames_to_region`]).
//!
//! Data crosses the tier boundary exactly once (stage 1); stage 3 runs at
//! the target tier's bandwidth. Compared to the `mbind` baseline the engine
//! exploits copy parallelism and leaves the region covered by a handful of
//! huge mappings instead of hundreds of splintered base mappings, which is
//! where the TLB wins of Table 4 come from.
//!
//! ## Fault tolerance
//!
//! Every stage can fail — from genuine tier pressure or from an injected
//! [`FaultPlan`](atmem_hms::FaultPlan) — and each failure mode has a
//! page-exact recovery that leaves the region fully readable with its data
//! bit-identical to the pre-migration image:
//!
//! * **staging allocation** (stage 0) fails → the region is *skipped*:
//!   nothing was touched, no rollback needed;
//! * **staging copy** (stage 1) fails → the staging buffer is freed; the
//!   region's mappings and data were never touched → *failed*;
//! * **remap** (stage 2) fails → [`Machine::remap_region`] restores the old
//!   mappings itself; the engine frees the staging buffer → *failed*;
//! * **move** (stage 3) fails → the region is currently mapped on the
//!   target tier with *uninitialised* frames, but the staging run still
//!   holds the complete pre-migration image (its pinned source frames). The engine suspends fault injection
//!   (a rollback must not itself be faulted), remaps the region back onto
//!   the source tier, replays the staged bytes into it, and frees the
//!   staging buffer → *failed*. If the remap-back itself hits pressure
//!   (possible only for regions that were partially resident on the target
//!   tier already), the engine instead replays the staged bytes into the
//!   target-tier mapping — the migration then simply completed — so no
//!   error ever escapes for a pressure-class condition.
//!
//! Skipped and failed regions stay where they were; their access samples
//! persist in the registry, so the next [`Atmem::optimize`] round re-plans
//! and retries them.
//!
//! [`Machine::remap_region`]: atmem_hms::Machine::remap_region
//! [`Machine::copy_frames_to_region`]: atmem_hms::Machine::copy_frames_to_region
//! [`Atmem::optimize`]: crate::Atmem::optimize

use atmem_hms::{HmsError, Machine, SimDuration, TierId, VirtRange, PAGE_SIZE};

use crate::config::{MigrationConfig, MigrationMechanism};
use crate::error::Result;
use crate::migrate::plan::{MigrationPlan, PlannedRegion};

/// Outcome of executing one migration plan.
///
/// The byte counters form a conservation law checked by the property
/// suite: `bytes_moved + bytes_skipped + bytes_failed == plan.total_bytes`
/// for every plan and every fault schedule. A region contributes all of its
/// bytes to exactly one bucket; `bytes_moved` counts only regions that
/// migrated *completely* (an `mbind` region whose prefix moved before a
/// mid-stream failure counts under `bytes_failed`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationOutcome {
    /// Bytes of fully migrated regions.
    pub bytes_moved: usize,
    /// Regions migrated completely.
    pub regions: usize,
    /// Regions skipped before any work started (the target tier could not
    /// fit the staging buffer at execution time).
    pub regions_skipped: usize,
    /// Regions that faulted mid-migration (staging copy, remap, or move)
    /// and were rolled back page-exactly onto their source tier.
    pub regions_failed: usize,
    /// Bytes of skipped regions.
    pub bytes_skipped: usize,
    /// Bytes of failed regions.
    pub bytes_failed: usize,
    /// Total simulated migration time.
    pub time: SimDuration,
}

impl MigrationOutcome {
    /// Combines the outcomes of two plan executions (the hops of a
    /// demotion cascade) into one: counters add, times add.
    #[must_use]
    pub fn merged(self, other: MigrationOutcome) -> MigrationOutcome {
        MigrationOutcome {
            bytes_moved: self.bytes_moved + other.bytes_moved,
            regions: self.regions + other.regions,
            regions_skipped: self.regions_skipped + other.regions_skipped,
            regions_failed: self.regions_failed + other.regions_failed,
            bytes_skipped: self.bytes_skipped + other.bytes_skipped,
            bytes_failed: self.bytes_failed + other.bytes_failed,
            time: SimDuration::from_ns(self.time.as_ns() + other.time.as_ns()),
        }
    }
}

/// How one region's migration ended. [`execute_regions`] returns one
/// status per input region, in order, so callers that interleave regions
/// from several owners (the multi-tenant scheduler) can attribute each
/// region's bytes to whoever planned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionStatus {
    /// Fully migrated to the target tier.
    Moved,
    /// Not attempted: staging allocation pressure before any work.
    Skipped,
    /// Faulted mid-migration and rolled back (data intact on source tier).
    Failed,
}

/// Executes `plan`, migrating each region to `dst_tier`.
///
/// The plan's byte budget (`promotion_budget`)
/// already reserves headroom for the largest staging buffer, so on a
/// quiescent machine every admitted region fits together with its staging
/// run; skips and failures arise only from pressure that developed after
/// planning or from injected faults. Either way the region is skipped or
/// rolled back page-exactly and counted — never fatal, never half-migrated
/// (see the module docs for the per-stage recovery protocol).
///
/// # Errors
///
/// Propagates unexpected memory-system failures (unmapped holes,
/// invalid ranges) — conditions that indicate a bug rather than pressure.
pub fn execute_plan(
    machine: &mut Machine,
    plan: &MigrationPlan,
    config: &MigrationConfig,
    dst_tier: TierId,
) -> Result<MigrationOutcome> {
    let (outcome, _statuses) = execute_regions(machine, &plan.regions, config, dst_tier)?;
    Ok(outcome)
}

/// Executes a bare region sequence (the body of [`execute_plan`]),
/// additionally returning each region's [`RegionStatus`] in input order.
/// The multi-tenant scheduler uses the statuses to attribute migrated
/// bytes per tenant; byte and time accounting are identical to
/// [`execute_plan`] on the same sequence.
///
/// # Errors
///
/// Same failure modes as [`execute_plan`].
pub fn execute_regions(
    machine: &mut Machine,
    regions: &[PlannedRegion],
    config: &MigrationConfig,
    dst_tier: TierId,
) -> Result<(MigrationOutcome, Vec<RegionStatus>)> {
    let threads = config
        .threads
        .unwrap_or(machine.platform().migration_threads);
    let mut outcome = MigrationOutcome::default();
    let mut statuses = Vec::with_capacity(regions.len());
    let start = machine.now();
    for region in regions {
        // Multi-hop plans carry a per-region destination (one hop of a
        // demotion cascade); plain plans inherit the call-level target.
        let dst = region.dst.unwrap_or(dst_tier);
        let status = match config.mechanism {
            MigrationMechanism::Staged => {
                migrate_region_staged(machine, region.range, dst, threads)?
            }
            MigrationMechanism::Mbind => match machine.migrate_mbind(region.range, dst) {
                // migrate_mbind already accounts bytes and time.
                Ok(_) => RegionStatus::Moved,
                // Mid-stream pressure: the real service commits the moved
                // prefix and leaves the rest on the source tier — the
                // region is consistent and readable but not fully
                // migrated, so it counts as failed, not moved.
                Err(HmsError::OutOfMemory { .. }) | Err(HmsError::Fragmented { .. }) => {
                    RegionStatus::Failed
                }
                Err(e) => return Err(e.into()),
            },
        };
        match status {
            RegionStatus::Moved => {
                outcome.bytes_moved += region.range.len;
                outcome.regions += 1;
                if !matches!(config.mechanism, MigrationMechanism::Mbind) {
                    machine.note_migrated(region.range.len);
                }
            }
            RegionStatus::Skipped => {
                outcome.regions_skipped += 1;
                outcome.bytes_skipped += region.range.len;
            }
            RegionStatus::Failed => {
                outcome.regions_failed += 1;
                outcome.bytes_failed += region.range.len;
            }
        }
        statuses.push(status);
    }
    outcome.time = SimDuration::from_ns(machine.now().as_ns() - start.as_ns());
    Ok((outcome, statuses))
}

/// The three-stage migration of one region, with per-stage recovery (see
/// the module docs).
fn migrate_region_staged(
    machine: &mut Machine,
    range: VirtRange,
    dst_tier: TierId,
    threads: usize,
) -> Result<RegionStatus> {
    // Captured before stage 2: after the remap the region answers for the
    // target tier, and on an N-tier machine the rollback destination is not
    // derivable from `dst_tier` alone.
    let src_tier = machine.tier_of(range.start)?;
    let pages = range.len / PAGE_SIZE;
    // Stage 0: reserve the staging buffer on the target tier.
    let staging = match machine.alloc_frames(dst_tier, pages) {
        Ok(run) => run,
        Err(HmsError::OutOfMemory { .. }) | Err(HmsError::Fragmented { .. }) => {
            return Ok(RegionStatus::Skipped)
        }
        Err(e) => return Err(e.into()),
    };
    // Stage 1: parallel copy source -> staging (crosses the tier link).
    // On failure nothing has moved; releasing the staging buffer is the
    // whole rollback.
    match machine.copy_region_to_frames(range, dst_tier, staging, threads) {
        Ok(_) => {}
        Err(HmsError::FaultInjected(_)) => {
            machine.free_frames(dst_tier, staging);
            return Ok(RegionStatus::Failed);
        }
        Err(e) => {
            machine.free_frames(dst_tier, staging);
            return Err(e.into());
        }
    }
    // Stage 2: remap the region onto fresh target frames. remap_region
    // restores the original mappings itself on failure.
    match machine.remap_region(range, dst_tier) {
        Ok(_mappings) => {}
        Err(HmsError::OutOfMemory { .. }) | Err(HmsError::Fragmented { .. }) => {
            machine.free_frames(dst_tier, staging);
            return Ok(RegionStatus::Failed);
        }
        Err(e) => {
            machine.free_frames(dst_tier, staging);
            return Err(e.into());
        }
    }
    // The fixed remap cost: page-table update + one range shootdown.
    machine.charge_remap();
    // Stage 3: parallel copy staging -> final frames (same-tier copy).
    let outcome = match machine.copy_frames_to_region(dst_tier, staging, range, threads) {
        Ok(_) => Ok(RegionStatus::Moved),
        Err(HmsError::FaultInjected(_)) => {
            rollback_after_move_fault(machine, range, src_tier, dst_tier, staging, threads)
        }
        Err(e) => {
            // Bug-class failure: still restore before propagating so the
            // machine stays auditable.
            let _ = rollback_after_move_fault(machine, range, src_tier, dst_tier, staging, threads);
            Err(e.into())
        }
    };
    machine.free_frames(dst_tier, staging);
    outcome
}

/// Recovers from a stage-3 (move) fault: the region is mapped on
/// `dst_tier` with uninitialised frames while `staging` holds the full
/// pre-migration image. Remaps the region back onto `src_tier` — the tier
/// it actually came from, captured before the stage-2 remap — and replays
/// the staged bytes; runs with fault injection suspended so the rollback
/// cannot itself be faulted. The staging buffer is NOT freed here (the
/// caller owns it).
fn rollback_after_move_fault(
    machine: &mut Machine,
    range: VirtRange,
    src_tier: TierId,
    dst_tier: TierId,
    staging: atmem_hms::FrameRun,
    threads: usize,
) -> Result<RegionStatus> {
    machine.suspend_faults();
    let result = (|| {
        match machine.remap_region(range, src_tier) {
            Ok(_) => {
                machine.copy_frames_to_region(dst_tier, staging, range, threads)?;
                Ok(RegionStatus::Failed)
            }
            Err(HmsError::OutOfMemory { .. }) | Err(HmsError::Fragmented { .. }) => {
                // The source tier cannot take the region back (it was
                // partially resident on the target already). The region is
                // still validly mapped on the target tier, so complete the
                // move instead: replay the staged image there.
                machine.copy_frames_to_region(dst_tier, staging, range, threads)?;
                Ok(RegionStatus::Moved)
            }
            Err(e) => Err(crate::error::AtmemError::from(e)),
        }
    })();
    machine.resume_faults();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::plan::{promotion_budget, PlannedRegion};
    use crate::object::ObjectId;
    use atmem_hms::{FaultPlan, FaultSite, MemPort, Placement, Platform, VirtRange};

    fn plan_for(range: VirtRange) -> MigrationPlan {
        MigrationPlan {
            regions: vec![PlannedRegion {
                object: ObjectId(0),
                range,
                priority: 1.0,
                dst: None,
            }],
            total_bytes: range.len,
            dropped_bytes: 0,
        }
    }

    fn setup(bytes: usize) -> (Machine, VirtRange) {
        let mut m = Machine::new(Platform::testing());
        let r = m.alloc(bytes, Placement::Slow).unwrap();
        for i in 0..(bytes / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i.wrapping_mul(0x9E37_79B9))
                .unwrap();
        }
        (m, VirtRange::new(r.start, bytes))
    }

    fn assert_source_intact(m: &mut Machine, range: VirtRange) {
        assert_eq!(m.resident_bytes(range, TierId::SLOW), range.len);
        for i in 0..(range.len / 8) as u64 {
            assert_eq!(
                m.peek::<u64>(range.start.add(i * 8)).unwrap(),
                i.wrapping_mul(0x9E37_79B9)
            );
        }
        assert!(m.outstanding_staging().is_empty(), "staging leak");
        let violations = m.audit();
        assert!(violations.is_empty(), "audit violations: {violations:#?}");
    }

    #[test]
    fn staged_migration_preserves_data_and_moves_tier() {
        let (mut m, range) = setup(2 * 1024 * 1024);
        let out = execute_plan(
            &mut m,
            &plan_for(range),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        assert_eq!(out.regions, 1);
        assert_eq!(out.bytes_moved, range.len);
        assert!(out.time.as_ns() > 0.0);
        assert_eq!(m.resident_bytes(range, TierId::FAST), range.len);
        for i in 0..(range.len / 8) as u64 {
            assert_eq!(
                m.peek::<u64>(range.start.add(i * 8)).unwrap(),
                i.wrapping_mul(0x9E37_79B9)
            );
        }
    }

    #[test]
    fn staged_is_much_faster_than_mbind() {
        let (mut m1, range1) = setup(4 * 1024 * 1024);
        let staged = execute_plan(
            &mut m1,
            &plan_for(range1),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        let (mut m2, range2) = setup(4 * 1024 * 1024);
        let mbind = m2.migrate_mbind(range2, TierId::FAST).unwrap();
        assert!(
            mbind.time.as_ns() > 1.3 * staged.time.as_ns(),
            "mbind {} vs staged {}",
            mbind.time,
            staged.time
        );
    }

    #[test]
    fn staged_keeps_huge_mappings_where_mbind_splinters() {
        let (mut m, range) = setup(2 * 1024 * 1024);
        execute_plan(
            &mut m,
            &plan_for(range),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        let maps = m.mappings_in(range);
        assert!(
            maps.len() <= 2,
            "staged migration should keep few mappings, got {}",
            maps.len()
        );
    }

    #[test]
    fn oversized_region_fails_at_remap_and_rolls_back() {
        let mut m = Machine::new(Platform::testing());
        let fast_cap = m.capacity(TierId::FAST);
        let r = m.alloc(fast_cap, Placement::Slow).unwrap();
        for i in 0..(fast_cap / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i.wrapping_mul(0x9E37_79B9))
                .unwrap();
        }
        // The staging buffer (fast_cap) fits exactly, but the remap then
        // has no frames left: a mid-migration failure, rolled back.
        let range = VirtRange::new(r.start, fast_cap);
        let out = execute_plan(
            &mut m,
            &plan_for(range),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        assert_eq!(out.regions, 0);
        assert_eq!(out.regions_failed, 1);
        assert_eq!(out.bytes_failed, fast_cap);
        assert_eq!(out.regions_skipped, 0);
        assert_source_intact(&mut m, range);
    }

    #[test]
    fn staging_pressure_skips_before_any_work() {
        let mut m = Machine::new(Platform::testing());
        let fast_cap = m.capacity(TierId::FAST);
        // Fill the fast tier completely so stage 0 cannot reserve staging.
        let _pin = m.alloc(fast_cap, Placement::Fast).unwrap();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        for i in 0..(1024 * 1024 / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i.wrapping_mul(0x9E37_79B9))
                .unwrap();
        }
        let out = execute_plan(
            &mut m,
            &plan_for(r),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        assert_eq!(out.regions_skipped, 1);
        assert_eq!(out.bytes_skipped, r.len);
        assert_eq!(out.regions_failed, 0);
        assert_source_intact(&mut m, r);
    }

    #[test]
    fn fault_at_each_stage_rolls_back_page_exactly() {
        // Staging-copy, remap and move faults each leave the region fully
        // readable on the source tier, staging freed, audit clean.
        let cases = [
            (FaultSite::Move, 0, "stage-1 staging copy"),
            (FaultSite::Remap, 0, "stage-2 remap"),
            (FaultSite::Move, 1, "stage-3 move"),
        ];
        for (site, nth, what) in cases {
            let (mut m, range) = setup(1024 * 1024);
            m.set_fault_plan(Some(FaultPlan::new().fail_at(site, nth)));
            let out = execute_plan(
                &mut m,
                &plan_for(range),
                &MigrationConfig::default(),
                TierId::FAST,
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(out.regions_failed, 1, "{what}");
            assert_eq!(out.bytes_failed, range.len, "{what}");
            assert_eq!(out.bytes_moved, 0, "{what}");
            assert_eq!(
                m.fault_plan().unwrap().injected().len(),
                1,
                "{what}: fault must actually fire"
            );
            assert_source_intact(&mut m, range);
        }
    }

    #[test]
    fn staging_alloc_fault_skips_cleanly() {
        let (mut m, range) = setup(1024 * 1024);
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::StagingAlloc, 0)));
        let out = execute_plan(
            &mut m,
            &plan_for(range),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        assert_eq!(out.regions_skipped, 1);
        assert_eq!(out.bytes_skipped, range.len);
        assert_source_intact(&mut m, range);
    }

    #[test]
    fn exact_fit_budget_plan_executes_without_skips() {
        // Regression for the staging-headroom accounting: a plan that
        // consumes the whole promotion budget must execute with zero
        // skips and zero failures, because promotion_budget reserves the
        // staging buffer for the largest admissible region up front.
        let mut m = Machine::new(Platform::testing());
        let config = MigrationConfig::default();
        let budget = promotion_budget(m.free_bytes(TierId::FAST), &config);
        assert!(budget > 0);
        // Two regions that together fill the budget exactly (each within
        // max_region_bytes and page-aligned).
        let a_len = (budget / 2).min(config.max_region_bytes) / PAGE_SIZE * PAGE_SIZE;
        let b_len = (budget - a_len).min(config.max_region_bytes) / PAGE_SIZE * PAGE_SIZE;
        let a = m.alloc(a_len, Placement::Slow).unwrap();
        let b = m.alloc(b_len, Placement::Slow).unwrap();
        let plan = MigrationPlan {
            regions: vec![
                PlannedRegion {
                    object: ObjectId(0),
                    range: a,
                    priority: 2.0,
                    dst: None,
                },
                PlannedRegion {
                    object: ObjectId(1),
                    range: b,
                    priority: 1.0,
                    dst: None,
                },
            ],
            total_bytes: a_len + b_len,
            dropped_bytes: 0,
        };
        assert!(plan.total_bytes <= budget, "plan must fill the budget");
        assert!(budget - plan.total_bytes < 2 * PAGE_SIZE, "exact fit");
        let out = execute_plan(&mut m, &plan, &config, TierId::FAST).unwrap();
        assert_eq!(out.regions, 2, "{out:?}");
        assert_eq!(out.regions_skipped + out.regions_failed, 0, "{out:?}");
        assert_eq!(out.bytes_moved, plan.total_bytes);
        assert!(m.outstanding_staging().is_empty());
        let violations = m.audit();
        assert!(violations.is_empty(), "audit violations: {violations:#?}");
    }

    #[test]
    fn outcome_accounting_is_conservative_across_faults() {
        // One moved, one failed (remap fault), one skipped (staging fault):
        // every planned byte lands in exactly one bucket.
        let mut m = Machine::new(Platform::testing());
        let sizes = [512 * 1024, 256 * 1024, 128 * 1024];
        let ranges: Vec<VirtRange> = sizes
            .iter()
            .map(|&s| m.alloc(s, Placement::Slow).unwrap())
            .collect();
        let plan = MigrationPlan {
            regions: ranges
                .iter()
                .enumerate()
                .map(|(i, &range)| PlannedRegion {
                    object: ObjectId(i as u32),
                    range,
                    priority: 1.0,
                    dst: None,
                })
                .collect(),
            total_bytes: sizes.iter().sum(),
            dropped_bytes: 0,
        };
        m.set_fault_plan(Some(
            FaultPlan::new()
                .fail_at(FaultSite::Remap, 1)
                .fail_at(FaultSite::StagingAlloc, 2),
        ));
        let out = execute_plan(&mut m, &plan, &MigrationConfig::default(), TierId::FAST).unwrap();
        assert_eq!(out.regions, 1);
        assert_eq!(out.regions_failed, 1);
        assert_eq!(out.regions_skipped, 1);
        assert_eq!(
            out.bytes_moved + out.bytes_skipped + out.bytes_failed,
            plan.total_bytes
        );
        assert!(m.outstanding_staging().is_empty());
        let violations = m.audit();
        assert!(violations.is_empty(), "audit violations: {violations:#?}");
    }

    #[test]
    fn single_thread_migration_is_slower() {
        let (mut m1, r1) = setup(4 * 1024 * 1024);
        let multi = execute_plan(
            &mut m1,
            &plan_for(r1),
            &MigrationConfig::default(),
            TierId::FAST,
        )
        .unwrap();
        let (mut m2, r2) = setup(4 * 1024 * 1024);
        let single = execute_plan(
            &mut m2,
            &plan_for(r2),
            &MigrationConfig {
                threads: Some(1),
                ..MigrationConfig::default()
            },
            TierId::FAST,
        )
        .unwrap();
        assert!(
            single.time.as_ns() > multi.time.as_ns() * 1.5,
            "single {} multi {}",
            single.time,
            multi.time
        );
    }
}
