//! An AutoNUMA-style OS-tiering baseline policy.
//!
//! Linux tiering (NUMA balancing plus reclaim-based demotion) has no
//! application-level notion of data objects or chunks: it watches page
//! touches through periodic access-bit scans, promotes a page one tier
//! hotter when it is touched in consecutive scan windows, and demotes cold
//! pages to the next-colder tier when a tier crosses its high watermark.
//! This module reproduces that shape inside the simulator so the same
//! workload can run under the paper's protocol and the OS baseline on any
//! platform preset ([`OptimizePolicy`](crate::config::OptimizePolicy)
//! selects between them):
//!
//! * the raw PEBS sample stream stands in for access-bit scans, split into
//!   equal **epochs** by stream position (the simulator's clock does not
//!   timestamp samples);
//! * a page touched in [`PROMOTE_TOUCHES`] consecutive epochs is
//!   **promoted one hop hotter** (never straight to
//!   the top — the kernel ladders pages up tier by tier);
//! * after promotion, every tier above its [`HIGH_WATERMARK`] **demotes**
//!   its coldest (untouched) pages to the next-colder tier until it drains
//!   to the [`LOW_WATERMARK`];
//! * all movement goes through the **`mbind` service** — page-granular
//!   splintered remapping, the same mechanism the OS would use — so the
//!   baseline also pays `mbind`'s TLB and mapping costs (Table 4).
//!
//! Everything iterates in virtual-address order over plain collections, so
//! the policy is as deterministic as the rest of the simulator. Its knobs
//! are the constants below, which mirror the kernel's shape: short scan
//! epochs, promotion on the second touch, demotion when a tier crosses its
//! high watermark.

use std::collections::{BTreeMap, BTreeSet};

use atmem_hms::PAGE_SIZE;
use atmem_hms::{HmsError, Machine, SampleRecord, SimDuration, TierId, VirtAddr, VirtRange};

use crate::error::Result;
use crate::migrate::{MigrationOutcome, MigrationPlan, PlannedRegion};
use crate::object::ObjectId;
use crate::registry::Registry;

/// Number of scan epochs the raw sample stream is split into (the analogue
/// of NUMA-balancing scan periods). The stream has no timestamps, so
/// epochs are equal slices by stream position.
const EPOCHS: usize = 4;

/// Consecutive epochs a page must be touched in before it is promoted one
/// tier hotter (2 = the kernel's promote-on-second-touch).
const PROMOTE_TOUCHES: u32 = 2;

/// Occupancy fraction above which a tier demotes cold pages to the
/// next-colder tier (the kernel's high watermark).
const HIGH_WATERMARK: f64 = 0.95;

/// Occupancy fraction demotion drains a tier down to (the low watermark;
/// hysteresis keeps consecutive optimize calls from thrashing around the
/// high mark).
const LOW_WATERMARK: f64 = 0.85;

/// Upper bound on bytes promoted per optimize call (the kernel's promotion
/// rate limit).
const PROMOTE_CAP_BYTES: usize = 64 * 1024 * 1024;

/// What one AutoNUMA optimize pass did, in the solo optimizer's terms.
pub(crate) struct AutonumaOutcome {
    /// The promoted page runs, as a plan (for the report; execution has
    /// already happened).
    pub plan: MigrationPlan,
    /// Promotion traffic.
    pub promotion: MigrationOutcome,
    /// Watermark demotion traffic, if any tier was over its high mark.
    pub demotion: Option<MigrationOutcome>,
}

/// Runs one AutoNUMA pass over `machine`: promote-on-second-touch from
/// `records`, then watermark demotion, both through `mbind`.
pub(crate) fn run(
    machine: &mut Machine,
    registry: &Registry,
    records: &[SampleRecord],
) -> Result<AutonumaOutcome> {
    let objects: Vec<(VirtRange, ObjectId)> = {
        let mut v: Vec<(VirtRange, ObjectId)> =
            registry.iter().map(|o| (o.range(), o.id())).collect();
        v.sort_by_key(|(r, _)| r.start);
        v
    };
    let hot = hot_pages(records, &objects);

    let promo_start = machine.now();
    let (plan, promotion) = promote(machine, &objects, &hot)?;
    let mut promotion = promotion;
    promotion.time = SimDuration::from_ns(machine.now().as_ns() - promo_start.as_ns());

    let demo_start = machine.now();
    let demotion = demote_over_watermarks(machine, &objects, &hot)?;
    let demotion = demotion.map(|mut d| {
        d.time = SimDuration::from_ns(machine.now().as_ns() - demo_start.as_ns());
        d
    });

    Ok(AutonumaOutcome {
        plan,
        promotion,
        demotion,
    })
}

/// Pages (by base address) touched in [`PROMOTE_TOUCHES`] consecutive
/// epochs, restricted to registered objects. The BTreeSet gives the
/// address-ordered iteration every later stage relies on.
fn hot_pages(records: &[SampleRecord], objects: &[(VirtRange, ObjectId)]) -> BTreeSet<u64> {
    let epoch_len = records.len().div_ceil(EPOCHS).max(1);
    // page -> (last epoch touched, consecutive-epoch streak)
    let mut touch: BTreeMap<u64, (usize, u32)> = BTreeMap::new();
    let mut hot = BTreeSet::new();
    for (i, rec) in records.iter().enumerate() {
        let page = rec.vaddr.raw() & !(PAGE_SIZE as u64 - 1);
        if owner_of(objects, page).is_none() {
            continue;
        }
        let epoch = i / epoch_len;
        let streak = match touch.get_mut(&page) {
            None => {
                touch.insert(page, (epoch, 1));
                1
            }
            Some((last, streak)) => {
                if epoch == *last + 1 {
                    *streak += 1;
                } else if epoch > *last + 1 {
                    *streak = 1;
                }
                *last = epoch;
                *streak
            }
        };
        if streak >= PROMOTE_TOUCHES {
            hot.insert(page);
        }
    }
    hot
}

/// The object a page belongs to, if any (object ranges are disjoint and
/// sorted by start).
fn owner_of(objects: &[(VirtRange, ObjectId)], page: u64) -> Option<ObjectId> {
    let idx = objects.partition_point(|(r, _)| r.start.raw() <= page);
    let (range, id) = objects.get(idx.checked_sub(1)?)?;
    (page < range.start.raw() + range.len as u64).then_some(*id)
}

/// Promotes hot pages one hop hotter, coalescing address-adjacent pages
/// with the same source tier into single `mbind` calls, up to
/// [`PROMOTE_CAP_BYTES`].
fn promote(
    machine: &mut Machine,
    objects: &[(VirtRange, ObjectId)],
    hot: &BTreeSet<u64>,
) -> Result<(MigrationPlan, MigrationOutcome)> {
    // Coalesce runs first: (start page, pages, src tier).
    let mut runs: Vec<(u64, usize, TierId)> = Vec::new();
    let mut budget = PROMOTE_CAP_BYTES / PAGE_SIZE;
    for &page in hot {
        if budget == 0 {
            break;
        }
        let tier = machine.tier_of(VirtAddr::new(page))?;
        if tier.hotter().is_none() {
            continue; // already on the hottest tier
        }
        budget -= 1;
        match runs.last_mut() {
            Some((start, pages, t))
                if *t == tier && *start + (*pages * PAGE_SIZE) as u64 == page =>
            {
                *pages += 1;
            }
            _ => runs.push((page, 1, tier)),
        }
    }

    let mut plan = MigrationPlan::default();
    let mut outcome = MigrationOutcome::default();
    for (start, pages, src) in runs {
        let dst = src.hotter().expect("top-tier pages were filtered out");
        let range = VirtRange::new(VirtAddr::new(start), pages * PAGE_SIZE);
        plan.regions.push(PlannedRegion {
            object: owner_of(objects, start).expect("hot pages belong to registered objects"),
            range,
            priority: PROMOTE_TOUCHES as f64,
            dst: Some(dst),
        });
        plan.total_bytes += range.len;
        match machine.migrate_mbind(range, dst) {
            Ok(_) => {
                outcome.bytes_moved += range.len;
                outcome.regions += 1;
            }
            // Hotter tier full: the kernel would have left the page where
            // it is; watermark demotion may make room for the next pass.
            Err(HmsError::OutOfMemory { .. }) | Err(HmsError::Fragmented { .. }) => {
                outcome.regions_failed += 1;
                outcome.bytes_failed += range.len;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok((plan, outcome))
}

/// Walks the tiers hottest-first; every tier above its high watermark
/// demotes cold (non-hot) registered pages, in address order, to the
/// next-colder tier until it reaches the low watermark. Processing
/// hotter tiers first means a tier receiving demoted bytes is re-checked
/// *after* they arrive.
fn demote_over_watermarks(
    machine: &mut Machine,
    objects: &[(VirtRange, ObjectId)],
    hot: &BTreeSet<u64>,
) -> Result<Option<MigrationOutcome>> {
    let mut outcome: Option<MigrationOutcome> = None;
    for t in 0..machine.num_tiers().saturating_sub(1) {
        let tier = TierId::new(t);
        let capacity = machine.capacity(tier) as f64;
        let used = capacity - machine.free_bytes(tier) as f64;
        if used <= capacity * HIGH_WATERMARK {
            continue;
        }
        let mut need = (used - capacity * LOW_WATERMARK) as usize;
        let out = outcome.get_or_insert_with(MigrationOutcome::default);
        // Cold candidate runs on this tier, in address order.
        let mut runs: Vec<(u64, usize)> = Vec::new();
        'scan: for (range, _) in objects {
            let mut page = range.start.raw();
            let end = range.start.raw() + range.len as u64;
            while page < end {
                if need < runs.iter().map(|(_, p)| p * PAGE_SIZE).sum::<usize>() {
                    break 'scan;
                }
                if !hot.contains(&page) && machine.tier_of(VirtAddr::new(page))? == tier {
                    match runs.last_mut() {
                        Some((start, pages)) if *start + (*pages * PAGE_SIZE) as u64 == page => {
                            *pages += 1
                        }
                        _ => runs.push((page, 1)),
                    }
                }
                page += PAGE_SIZE as u64;
            }
        }
        let dst = TierId::new(t + 1);
        for (start, pages) in runs {
            if need == 0 {
                break;
            }
            let len = (pages * PAGE_SIZE).min(need.next_multiple_of(PAGE_SIZE));
            let range = VirtRange::new(VirtAddr::new(start), len);
            match machine.migrate_mbind(range, dst) {
                Ok(_) => {
                    out.bytes_moved += len;
                    out.regions += 1;
                    need = need.saturating_sub(len);
                }
                // Next-colder tier full: nowhere to drain to (the coldest
                // tier never demotes); stop working this tier.
                Err(HmsError::OutOfMemory { .. }) | Err(HmsError::Fragmented { .. }) => {
                    out.regions_failed += 1;
                    out.bytes_failed += len;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_lookup_respects_range_bounds() {
        let objects = vec![
            (
                VirtRange::new(VirtAddr::new(0x1000), 2 * PAGE_SIZE),
                ObjectId(0),
            ),
            (
                VirtRange::new(VirtAddr::new(0x10000), PAGE_SIZE),
                ObjectId(1),
            ),
        ];
        assert_eq!(owner_of(&objects, 0x1000), Some(ObjectId(0)));
        assert_eq!(owner_of(&objects, 0x2000), Some(ObjectId(0)));
        assert_eq!(owner_of(&objects, 0x3000), None);
        assert_eq!(owner_of(&objects, 0x10000), Some(ObjectId(1)));
        assert_eq!(owner_of(&objects, 0x0), None);
    }

    #[test]
    fn second_touch_across_consecutive_epochs_is_hot() {
        let objects = vec![(
            VirtRange::new(VirtAddr::new(0x1000), 8 * PAGE_SIZE),
            ObjectId(0),
        )];
        // 8 records -> epoch length 2 with 4 epochs. Page A is touched in
        // epochs 0 and 1 (hot); page B only in epoch 0; page C in epochs 0
        // and 2 (streak resets, not hot).
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x2000);
        let c = VirtAddr::new(0x3000);
        let records: Vec<SampleRecord> =
            [a, b, a, c, /* epoch 1 */ a, a, /* epoch 2 */ c, b]
                .iter()
                .map(|&vaddr| SampleRecord { vaddr })
                .collect();
        let hot = hot_pages(&records[..6], &objects);
        assert!(hot.contains(&0x1000));
        assert!(!hot.contains(&0x2000));
        let hot = hot_pages(&records, &objects);
        assert!(!hot.contains(&0x3000), "a gap epoch resets the streak");
    }

    #[test]
    fn samples_outside_objects_never_become_hot() {
        let objects = vec![(
            VirtRange::new(VirtAddr::new(0x1000), PAGE_SIZE),
            ObjectId(0),
        )];
        let stray = VirtAddr::new(0x8000);
        let records: Vec<SampleRecord> = (0..8).map(|_| SampleRecord { vaddr: stray }).collect();
        let hot = hot_pages(&records, &objects);
        assert!(hot.is_empty());
    }
}
