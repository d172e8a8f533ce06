//! Deterministic fault injection for the migration primitives.
//!
//! A [`FaultPlan`] is installed on a [`Machine`](crate::Machine) and consulted
//! every time execution crosses one of the [`FaultSite`]s inside the
//! migration path (frame allocation, staging-buffer allocation, region
//! remap, data move, the per-page `mbind` status check) or the profiling
//! path (sample-record loss at drain). Each consultation is numbered per site, so a plan can
//! fail exactly the *n*-th crossing of a site — step-indexed, reproducible
//! fault schedules — or draw failures from a seeded RNG at a per-site rate.
//!
//! The plan records every fault it actually injected, which lets tests
//! distinguish "no fault fired" from "the fault fired and was survived".
//! Recovery code (the staged-migration rollback in `atmem-core`) suspends
//! the plan while it undoes a faulted migration so the rollback itself
//! cannot be re-faulted into an unrecoverable state — mirroring real fault
//! handlers running with faults masked.

use atmem_rng::SmallRng;

/// A point inside [`Machine`](crate::Machine)'s migration path where a
/// [`FaultPlan`] may inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Frame allocation while building mappings: [`Machine::alloc`]
    /// (per placement segment), [`Machine::remap_region`] (destination
    /// mapping build) and the per-page `mbind` frame grab.
    ///
    /// [`Machine::alloc`]: crate::Machine::alloc
    /// [`Machine::remap_region`]: crate::Machine::remap_region
    FrameAlloc,
    /// Staging-buffer allocation in [`Machine::alloc_frames`].
    ///
    /// [`Machine::alloc_frames`]: crate::Machine::alloc_frames
    StagingAlloc,
    /// Region remap in [`Machine::remap_region`], consulted after argument
    /// validation but before any mapping-table mutation.
    ///
    /// [`Machine::remap_region`]: crate::Machine::remap_region
    Remap,
    /// Data movement in [`Machine::copy_region_to_frames`] and
    /// [`Machine::copy_frames_to_region`] (a copier-thread failure, not a
    /// capacity condition).
    ///
    /// [`Machine::copy_region_to_frames`]: crate::Machine::copy_region_to_frames
    /// [`Machine::copy_frames_to_region`]: crate::Machine::copy_frames_to_region
    Move,
    /// The per-page migratability status check inside
    /// [`Machine::migrate_mbind`] (the simulated analogue of
    /// `move_pages(2)` reporting a per-page error). A firing leaves that
    /// page on its source tier as a splintered base mapping; only the
    /// status-check overhead is charged.
    ///
    /// [`Machine::migrate_mbind`]: crate::Machine::migrate_mbind
    PageStatus,
    /// A sampled record crossing [`Machine::pebs_drain`] (the simulated
    /// analogue of a PEBS buffer overwrite or a lost perf event). A firing
    /// silently drops that record, starving the analyzer of one sample.
    ///
    /// [`Machine::pebs_drain`]: crate::Machine::pebs_drain
    SampleLoss,
}

/// All fault sites, in a fixed order (used for per-site tables).
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::FrameAlloc,
    FaultSite::StagingAlloc,
    FaultSite::Remap,
    FaultSite::Move,
    FaultSite::PageStatus,
    FaultSite::SampleLoss,
];

/// Number of distinct fault sites (per-site table width).
const NUM_SITES: usize = FAULT_SITES.len();

impl FaultSite {
    const fn index(self) -> usize {
        match self {
            FaultSite::FrameAlloc => 0,
            FaultSite::StagingAlloc => 1,
            FaultSite::Remap => 2,
            FaultSite::Move => 3,
            FaultSite::PageStatus => 4,
            FaultSite::SampleLoss => 5,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultSite::FrameAlloc => "frame-alloc",
            FaultSite::StagingAlloc => "staging-alloc",
            FaultSite::Remap => "remap",
            FaultSite::Move => "move",
            FaultSite::PageStatus => "page-status",
            FaultSite::SampleLoss => "sample-loss",
        };
        f.write_str(name)
    }
}

/// A deterministic, step-indexed fault schedule.
///
/// Two mechanisms compose (either may fire a given consultation):
///
/// * **scripted faults** — [`FaultPlan::fail_at`] arms the exact *n*-th
///   consultation (0-based) of a site;
/// * **random faults** — [`FaultPlan::seeded`] + [`FaultPlan::with_rate`]
///   draw per-consultation failures from a seeded [`SmallRng`], so a whole
///   fuzzing schedule is reproducible from one `u64`.
///
/// Consultation counters keep counting while the plan is suspended (as the
/// machine suspends it around a rollback) — suspension masks *injection*,
/// not *numbering* — so a scripted step index refers to the same crossing
/// whether or not a rollback ran in between.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    scripted: Vec<(FaultSite, u64)>,
    rates: [f64; NUM_SITES],
    rng: Option<SmallRng>,
    consults: [u64; NUM_SITES],
    injected: Vec<(FaultSite, u64)>,
    suspended: bool,
}

impl FaultPlan {
    /// An empty plan: never fails anything until armed.
    pub fn new() -> Self {
        FaultPlan {
            scripted: Vec::new(),
            rates: [0.0; NUM_SITES],
            rng: None,
            consults: [0; NUM_SITES],
            injected: Vec::new(),
            suspended: false,
        }
    }

    /// A plan whose random mode draws from `seed` (rates default to 0; arm
    /// sites with [`FaultPlan::with_rate`]).
    pub fn seeded(seed: u64) -> Self {
        let mut plan = FaultPlan::new();
        plan.rng = Some(SmallRng::seed_from_u64(seed));
        plan
    }

    /// Arms a scripted fault: the `nth` (0-based) consultation of `site`
    /// fails.
    pub fn fail_at(mut self, site: FaultSite, nth: u64) -> Self {
        self.scripted.push((site, nth));
        self
    }

    /// Sets the random failure probability for `site` (requires
    /// [`FaultPlan::seeded`]; ignored otherwise).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Every fault actually injected, as `(site, consultation index)` in
    /// injection order.
    pub fn injected(&self) -> &[(FaultSite, u64)] {
        &self.injected
    }

    /// Masks injection (consultations still count). Recovery code runs
    /// under suspension so a rollback cannot itself be faulted.
    pub(crate) fn suspend(&mut self) {
        self.suspended = true;
    }

    /// Re-enables injection after [`FaultPlan::suspend`].
    pub(crate) fn resume(&mut self) {
        self.suspended = false;
    }

    /// Consults the plan at `site`: advances the site's counter and reports
    /// whether this crossing must fail. Called by `Machine` internals.
    pub(crate) fn should_fail(&mut self, site: FaultSite) -> bool {
        let idx = self.consults[site.index()];
        self.consults[site.index()] += 1;
        // The RNG must advance on every consultation — suspended or not —
        // so a schedule's random draws stay aligned with the step indices
        // regardless of whether a rollback ran in between.
        let rate = self.rates[site.index()];
        let random_hit = match &mut self.rng {
            Some(rng) if rate > 0.0 => rng.gen_bool(rate),
            _ => false,
        };
        if self.suspended {
            return false;
        }
        let scripted_hit = self.scripted.iter().any(|&(s, n)| s == site && n == idx);
        if scripted_hit || random_hit {
            self.injected.push((site, idx));
            true
        } else {
            false
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_fault_fires_exactly_once() {
        let mut plan = FaultPlan::new().fail_at(FaultSite::Remap, 1);
        assert!(!plan.should_fail(FaultSite::Remap)); // consult 0
        assert!(plan.should_fail(FaultSite::Remap)); // consult 1
        assert!(!plan.should_fail(FaultSite::Remap)); // consult 2
        assert_eq!(plan.injected(), &[(FaultSite::Remap, 1)]);
    }

    #[test]
    fn sites_count_independently() {
        let mut plan = FaultPlan::new().fail_at(FaultSite::Move, 0);
        assert!(!plan.should_fail(FaultSite::StagingAlloc));
        assert!(plan.should_fail(FaultSite::Move));
        assert_eq!(plan.consults[FaultSite::StagingAlloc.index()], 1);
        assert_eq!(plan.consults[FaultSite::Move.index()], 1);
        assert_eq!(plan.consults[FaultSite::FrameAlloc.index()], 0);
    }

    #[test]
    fn suspension_masks_injection_but_keeps_counting() {
        let mut plan = FaultPlan::new()
            .fail_at(FaultSite::Remap, 0)
            .fail_at(FaultSite::Remap, 2);
        plan.suspend();
        assert!(!plan.should_fail(FaultSite::Remap)); // 0: armed but masked
        plan.resume();
        assert!(!plan.should_fail(FaultSite::Remap)); // 1: not armed
        assert!(plan.should_fail(FaultSite::Remap)); // 2: armed
        assert_eq!(plan.injected(), &[(FaultSite::Remap, 2)]);
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let draws = |seed: u64| {
            let mut plan = FaultPlan::seeded(seed).with_rate(FaultSite::StagingAlloc, 0.5);
            (0..64)
                .map(|_| plan.should_fail(FaultSite::StagingAlloc))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8), "distinct seeds should diverge");
        assert!(
            draws(7).iter().any(|&b| b),
            "rate 0.5 must fire in 64 draws"
        );
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut plan = FaultPlan::seeded(3);
        assert!((0..256).all(|_| !plan.should_fail(FaultSite::FrameAlloc)));
        assert!(plan.injected().is_empty());
    }
}
