//! The simulated heterogeneous-memory machine.
//!
//! [`Machine`] is the single entry point applications use: allocate regions
//! with a [`Placement`] policy, read and write scalars through the full
//! virtual-memory + TLB + LLC + cost-model path ([`MemPort`]), and migrate
//! regions between tiers. Mutable access state (clock, counters, PEBS
//! buffer) lives in the machine's resident core; the access engine itself
//! lives on [`CoreHandle`] and can also run one instance per simulated core
//! ([`Machine::run_cores`]).

use std::collections::BTreeMap;

use crate::addr::{Frame, VirtAddr, VirtRange, HUGE_PAGE_FRAMES, PAGE_SHIFT, PAGE_SIZE};
use crate::cost::SimDuration;
use crate::error::{HmsError, Result};
use crate::fault::{FaultPlan, FaultSite};
use crate::frame::FrameRun;
use crate::mapping::{huge_eligible, Mapping, MappingTable, PageKind};
use crate::pebs::SampleRecord;
use crate::platform::Platform;
use crate::shard::{
    resolve_block, BlockSegment, CoreCtx, CoreHandle, MemPort, TiersView, MAX_TIERS,
};
use crate::stats::MachineStats;
use crate::tier::{KeepAlive, Tier, TierId, TierStorage};

/// Where an allocation's physical frames should come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All frames on the hottest tier (`tiers[0]`); fails if it does not
    /// fit.
    Fast,
    /// All frames on the coldest tier (the last one); fails if it does not
    /// fit.
    Slow,
    /// All frames on the given tier; fails if it does not fit. The N-tier
    /// generalization of [`Placement::Fast`]/[`Placement::Slow`].
    Tier(TierId),
    /// Fill the given tier first, spill the remainder to the other tiers
    /// in tier order (hottest first), the coldest tier absorbing whatever
    /// is left. This models `numactl --preferred` (the paper's `MCDRAM-p`
    /// reference).
    Preferred(TierId),
}

/// Bookkeeping for one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationInfo {
    /// The allocated virtual range (byte-exact, as requested).
    pub range: VirtRange,
    /// Pages reserved for the allocation (rounded up).
    pub pages: usize,
    /// Owner tag stamped at allocation time (the ambient
    /// [`Machine::set_alloc_tag`] value; a multi-tenant scheduler sets one
    /// tag per tenant so residency accounting never rescans the world).
    pub(crate) tag: u32,
    /// Cached bytes of `range` resident per tier (indexed by
    /// [`TierId::index`]; entries past the machine's tier count stay zero),
    /// maintained incrementally on every map, remap and free, and checked
    /// against a full mapping rescan by [`Machine::audit`] (invariant 8).
    /// Always byte-exact: equal to [`Machine::resident_bytes`] over
    /// `range`.
    pub(crate) resident: [usize; MAX_TIERS],
    /// Whether the allocation adopted a caller's buffer
    /// ([`TrackedVec::adopt`](crate::TrackedVec::adopt)): its bytes are
    /// read-only.
    read_only: bool,
}

/// What a fresh allocation adopts: the caller's bytes, what keeps them
/// alive, and the allocation's first virtual page.
#[derive(Debug, Clone, Copy)]
struct Adoption<'a> {
    bytes: &'a [u8],
    keep: &'a KeepAlive,
    vpage: u64,
}

/// What the frames of a new mapping hold: zeros (a fresh allocation), a
/// caller's adopted bytes, or unspecified bytes (a remap, whose caller
/// copies data in).
#[derive(Debug, Clone, Copy)]
enum Backing<'a> {
    Zero,
    Adopt(Adoption<'a>),
    Remap,
}

/// Result of a migration operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationReport {
    /// Bytes moved between tiers.
    pub bytes: usize,
    /// 4 KiB pages moved.
    pub pages: usize,
    /// Simulated time the migration took.
    pub time: SimDuration,
    /// Mappings present for the moved range afterwards (1 per huge unit for
    /// a remap, 1 per page for an `mbind` splinter).
    pub(crate) mappings_after: usize,
}

/// The simulated machine. See the [crate docs](crate) for an overview.
///
/// Simulated state is split in two: **shared read-mostly state** (platform,
/// tiers, mapping table, allocation registry) lives directly on the
/// machine, while everything the access path mutates lives in one resident
/// core. The machine is a [`MemPort`] by lending a [`CoreHandle`] over that
/// core, making the scalar engine the n=1 special case of the sharded
/// engine ([`Machine::run_cores`]).
#[derive(Debug)]
pub struct Machine {
    platform: Platform,
    tiers: Vec<Tier>,
    /// Host backing of the tiers' mapped frames.
    storage: TierStorage,
    mappings: MappingTable,
    allocations: BTreeMap<u64, AllocationInfo>,
    next_vaddr: u64,
    core: CoreCtx,
    /// Installed fault schedule, consulted at every [`FaultSite`] crossing.
    fault: Option<FaultPlan>,
    /// Staging frame runs handed out by [`Machine::alloc_frames`] and not
    /// yet released — the auditor's account of legitimate unmapped usage.
    staged_runs: Vec<(TierId, FrameRun)>,
    /// What each staging run has staged, index for index with
    /// `staged_runs`: the region's physically contiguous storage segments
    /// in region order, their frames pinned until a replay consumes them or
    /// the run is freed; empty while nothing is staged. The run's own
    /// frames hold no bytes.
    staged_sources: Vec<Vec<BlockSegment>>,
    /// Counter snapshot from the previous [`Machine::audit`], for the
    /// monotonicity check.
    last_audit_stats: Option<MachineStats>,
    /// Tag stamped onto new allocations (see [`Machine::set_alloc_tag`]).
    alloc_tag: u32,
    /// Per-tag aggregate of the per-allocation residency caches, indexed
    /// `[tag][TierId::index]` — the O(1) answer to "how many bytes does
    /// tenant `tag` have on each tier right now".
    tag_resident: BTreeMap<u32, [usize; MAX_TIERS]>,
}

impl Machine {
    /// Builds a machine from a platform description.
    ///
    /// # Panics
    ///
    /// Panics, naming the value, if the platform fails its check: no tiers
    /// or more than eight, a link-bandwidth matrix whose dimensions
    /// do not match the tier count, or any capacity, latency, bandwidth or
    /// count out of range (the list is on `Platform`'s check).
    pub fn new(platform: Platform) -> Self {
        platform.check();
        let tiers: Vec<Tier> = platform
            .tiers
            .iter()
            .map(|spec| Tier::new(spec.clone(), &platform.cost))
            .collect();
        let storage = TierStorage::new(&platform.tiers);
        let core = CoreCtx::resident(&platform, 0xA7_3E3);
        Machine {
            core,
            mappings: MappingTable::new(),
            allocations: BTreeMap::new(),
            // Arbitrary non-zero base, 2 MiB aligned.
            next_vaddr: 0x4000_0000,
            tiers,
            storage,
            platform,
            fault: None,
            staged_runs: Vec::new(),
            staged_sources: Vec::new(),
            last_audit_stats: None,
            alloc_tag: 0,
            tag_resident: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Allocation tags and the incremental residency cache
    // ------------------------------------------------------------------

    /// Sets the owner tag stamped onto subsequent allocations. Ambient
    /// state: a multi-tenant scheduler sets the tenant's tag before each
    /// quantum so every allocation the tenant makes is attributed to it.
    /// Defaults to 0 (single-tenant machines never need to touch it).
    pub fn set_alloc_tag(&mut self, tag: u32) {
        self.alloc_tag = tag;
    }

    /// Bytes resident on `tier` across all live allocations stamped with
    /// `tag`, answered from the incremental residency cache — O(log n),
    /// no mapping rescan.
    pub fn resident_bytes_by_tag(&self, tag: u32, tier: TierId) -> usize {
        self.tag_resident.get(&tag).map_or(0, |r| r[tier.index()])
    }

    /// Cached bytes of the allocation starting at `start` resident on
    /// `tier`. Byte-exact: equal to [`Machine::resident_bytes`] over the
    /// allocation's range, without the per-call mapping rescan. `None` if
    /// no allocation starts there.
    pub fn allocation_resident(&self, start: VirtAddr, tier: TierId) -> Option<usize> {
        self.allocations
            .get(&start.raw())
            .map(|info| info.resident[tier.index()])
    }

    /// Credits the residency cache for a mapping covering `vrange` on
    /// `tier` (clipped to the owning allocation's byte-exact range).
    fn note_mapped(&mut self, vrange: VirtRange, tier: TierId) {
        self.residency_delta(vrange, tier, true);
    }

    /// Debits the residency cache for a mapping covering `vrange` on
    /// `tier`.
    fn note_unmapped(&mut self, vrange: VirtRange, tier: TierId) {
        self.residency_delta(vrange, tier, false);
    }

    fn residency_delta(&mut self, vrange: VirtRange, tier: TierId, add: bool) {
        let Some((&start, info)) = self.allocations.range(..=vrange.start.raw()).next_back() else {
            return;
        };
        let Some(clip) = vrange.intersect(info.range) else {
            return;
        };
        let (tag, len, ti) = (info.tag, clip.len, tier.index());
        let entry = self.allocations.get_mut(&start).expect("entry just found");
        let agg = self.tag_resident.entry(tag).or_insert([0; MAX_TIERS]);
        if add {
            entry.resident[ti] += len;
            agg[ti] += len;
        } else {
            entry.resident[ti] -= len;
            agg[ti] -= len;
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault plan (replacing any present one), or clears it with
    /// `None`. See [`FaultPlan`] for the schedule semantics.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, for inspecting consult counters and the
    /// injected-fault log.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Masks fault injection (no-op without a plan). Recovery code runs
    /// under suspension so a rollback cannot itself be faulted; pair with
    /// [`Machine::resume_faults`].
    pub fn suspend_faults(&mut self) {
        if let Some(plan) = &mut self.fault {
            plan.suspend();
        }
    }

    /// Re-enables fault injection after [`Machine::suspend_faults`].
    pub fn resume_faults(&mut self) {
        if let Some(plan) = &mut self.fault {
            plan.resume();
        }
    }

    /// Consults the installed plan (if any) at `site`.
    pub(crate) fn fault_fires(&mut self, site: FaultSite) -> bool {
        self.fault.as_mut().is_some_and(|p| p.should_fail(site))
    }

    /// The platform this machine was built from.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current simulated time.
    pub fn now(&self) -> SimDuration {
        self.core.clock.now()
    }

    /// Advances the simulated clock by `d` (used by migration engines and
    /// tests that model off-path work).
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.core.clock.advance(d);
    }

    /// Charges the platform's fixed cost of remapping one migrated region
    /// (the cost model's `remap_ns`) to the clock: what a staged migration
    /// pays for each region it remaps.
    pub fn charge_remap(&mut self) {
        let remap = SimDuration::from_ns(self.platform.cost.remap_ns);
        self.core.clock.advance(remap);
    }

    // ------------------------------------------------------------------
    // Sharded execution
    // ------------------------------------------------------------------

    /// Forks `n` per-core contexts off the resident core: cold TLB and LLC,
    /// clock at zero, independent deterministic PEBS jitter streams. Paired
    /// with [`Machine::join_cores`] by [`Machine::run_cores`].
    fn fork_cores(&mut self, n: usize) -> Vec<CoreCtx> {
        assert!(n > 0, "core count must be positive");
        (0..n)
            .map(|id| self.core.fork(&self.platform, id))
            .collect()
    }

    /// Merges forked cores back into the resident core under the
    /// deterministic reduction contract (see [`Machine::run_cores`]).
    fn join_cores(&mut self, cores: Vec<CoreCtx>) {
        let n = cores.len();
        assert!(n > 0, "joining zero cores");
        let mut max_elapsed = SimDuration::ZERO;
        for c in cores {
            self.core.counters.accesses += c.counters.accesses;
            self.core.counters.reads += c.counters.reads;
            self.core.counters.writes += c.counters.writes;
            debug_assert_eq!(c.counters.bytes_migrated, 0, "cores cannot migrate");
            self.core.tlb.absorb_counters(&c.tlb);
            self.core.llc.absorb_counters(&c.llc);
            self.core.pebs.absorb(c.pebs);
            if c.clock.now() > max_elapsed {
                max_elapsed = c.clock.now();
            }
        }
        self.core.clock.advance(max_elapsed);
        self.core.clock.advance(self.platform.cost.barrier_cost(n));
    }

    /// Runs one simulation phase on `cores` simulated cores — the only way
    /// to get more than the resident one.
    ///
    /// `f(core_id, handle)` is invoked once per core — on the caller's
    /// thread for `cores == 1`, on one OS thread per core under
    /// [`std::thread::scope`] otherwise — and may drive any partition of
    /// the workload through the handle ([`MemPort`]). Results are returned
    /// in core order. Forked cores start with cold TLB and LLC, and their
    /// state is merged under the **deterministic reduction contract**, in
    /// core order regardless of OS scheduling: access counters and TLB/LLC
    /// totals are summed, PEBS streams are concatenated, and the machine
    /// clock advances by the maximum per-core elapsed time plus one modeled
    /// phase barrier over `cores` cores.
    ///
    /// With `cores == 1` the closure runs against the machine's resident
    /// core and no fork, merge or barrier happens at all: stats, clock and
    /// PEBS stream end bit-identical to driving the machine itself as the
    /// port.
    ///
    /// Callers must respect the **partition contract**: cores may read any
    /// mapped byte concurrently, but bytes written by one core during the
    /// phase must not be read or written by any other core in that phase
    /// (kernels partition their output ranges, merging cross-core
    /// contributions at phase barriers).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or any core's closure panics.
    pub fn run_cores<R, F>(&mut self, cores: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut CoreHandle<'_>) -> R + Sync,
    {
        assert!(cores > 0, "core count must be positive");
        if cores == 1 {
            return vec![self.with_core(|h| f(0, h))];
        }
        let mut ctxs = self.fork_cores(cores);
        let results: Vec<R> = {
            let mappings = &self.mappings;
            let platform = &self.platform;
            let tiers = TiersView::new(&self.tiers, &mut self.storage);
            std::thread::scope(|scope| {
                let handles: Vec<_> = ctxs
                    .iter_mut()
                    .enumerate()
                    .map(|(id, core)| {
                        let f = &f;
                        scope.spawn(move || {
                            let mut h = CoreHandle::new(core, mappings, platform, tiers);
                            f(id, &mut h)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("simulated core panicked"))
                    .collect()
            })
        };
        self.join_cores(ctxs);
        results
    }

    /// Free bytes remaining on `tier`.
    pub fn free_bytes(&self, tier: TierId) -> usize {
        self.tiers[tier.index()].frames.free_frames() * PAGE_SIZE
    }

    /// Capacity in bytes of `tier`.
    pub fn capacity(&self, tier: TierId) -> usize {
        self.tiers[tier.index()].spec.capacity
    }

    /// Number of memory tiers on this machine.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The id of the coldest (last) tier.
    pub fn coldest_tier(&self) -> TierId {
        TierId::new(self.tiers.len() - 1)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `bytes` with the given placement policy and returns the
    /// virtual range. The range start is 2 MiB aligned.
    ///
    /// # Errors
    ///
    /// [`HmsError::ZeroSizedAllocation`] for `bytes == 0`;
    /// [`HmsError::OutOfMemory`] when the policy cannot be satisfied.
    pub fn alloc(&mut self, bytes: usize, placement: Placement) -> Result<VirtRange> {
        self.alloc_from(bytes, placement, None)
    }

    /// [`alloc`](Machine::alloc), or with `adopt = Some((src, keep))` an
    /// allocation holding `src` (at most `bytes` long; the rest reads zero)
    /// that copies it only where it must: the page of tier storage under a
    /// frame whose bytes lie wholly inside `src` *is* that stretch of `src`,
    /// read-only, held alive by `keep` ([`TierStorage::adopt_frames`]).
    /// Frames and mappings are those `alloc` would make.
    pub(crate) fn alloc_from(
        &mut self,
        bytes: usize,
        placement: Placement,
        adopt: Option<(&[u8], &KeepAlive)>,
    ) -> Result<VirtRange> {
        if bytes == 0 {
            return Err(HmsError::ZeroSizedAllocation);
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        let vstart = self.next_vaddr;
        debug_assert_eq!(vstart % (HUGE_PAGE_FRAMES << PAGE_SHIFT) as u64, 0);
        let adoption = adopt.map(|(bytes, keep)| Adoption {
            bytes,
            keep,
            vpage: vstart >> PAGE_SHIFT,
        });
        let backing = adoption.map_or(Backing::Zero, Backing::Adopt);

        let plan: Vec<(TierId, usize)> = match placement {
            Placement::Fast => vec![(TierId::FAST, pages)],
            Placement::Slow => vec![(self.coldest_tier(), pages)],
            Placement::Tier(t) => {
                if t.index() >= self.tiers.len() {
                    return Err(HmsError::UnknownTier(t));
                }
                vec![(t, pages)]
            }
            Placement::Preferred(t) => {
                if t.index() >= self.tiers.len() {
                    return Err(HmsError::UnknownTier(t));
                }
                let mut plan = Vec::new();
                let mut remaining = pages;
                let fit = self.tiers[t.index()].frames.free_frames().min(remaining);
                plan.push((t, fit));
                remaining -= fit;
                // Spill across the other tiers in tier order; the last one
                // takes whatever is left so a genuine overflow surfaces as
                // its allocation error.
                let spill: Vec<TierId> = (0..self.tiers.len())
                    .map(TierId::new)
                    .filter(|&s| s != t)
                    .collect();
                for (k, &s) in spill.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let take = if k + 1 == spill.len() {
                        remaining
                    } else {
                        self.tiers[s.index()].frames.free_frames().min(remaining)
                    };
                    if take > 0 {
                        plan.push((s, take));
                        remaining -= take;
                    }
                }
                plan
            }
        };

        let mut created: Vec<Mapping> = Vec::new();
        let mut vpage = vstart >> PAGE_SHIFT;
        for (tier, tier_pages) in plan {
            if tier_pages == 0 {
                continue;
            }
            match self.map_pages(tier, vpage, tier_pages, &mut created, backing) {
                Ok(()) => vpage += tier_pages as u64,
                Err(e) => {
                    // Roll back everything created so far.
                    for m in created {
                        self.unmap_one(&m);
                    }
                    return Err(e);
                }
            }
        }

        let range = VirtRange::new(VirtAddr::new(vstart), bytes);
        // The allocation entry goes in first so the residency cache can
        // attribute each created mapping to it.
        self.allocations.insert(
            vstart,
            AllocationInfo {
                range,
                pages,
                tag: self.alloc_tag,
                resident: [0; MAX_TIERS],
                read_only: adoption.is_some(),
            },
        );
        for m in created {
            self.note_mapped(m.vrange(), m.tier);
            self.mappings.insert(m);
        }
        // Leave a 2 MiB guard gap between allocations.
        self.next_vaddr = vstart
            + ((pages as u64).next_multiple_of(HUGE_PAGE_FRAMES as u64) << PAGE_SHIFT)
            + (HUGE_PAGE_FRAMES << PAGE_SHIFT) as u64;
        Ok(range)
    }

    /// Maps `pages` pages starting at `vpage` onto frames of `tier`,
    /// pushing created mappings into `out` (not yet inserted), their frames
    /// backed as `backing` says.
    fn map_pages(
        &mut self,
        tier: TierId,
        mut vpage: u64,
        mut pages: usize,
        out: &mut Vec<Mapping>,
        backing: Backing<'_>,
    ) -> Result<()> {
        if self.fault_fires(FaultSite::FrameAlloc) {
            return Err(self.oom_error(tier, pages * PAGE_SIZE));
        }
        let huge_ok = self.platform.huge_pages;
        while pages > 0 {
            // Walk up to the next 2 MiB boundary with base pages so the
            // remainder becomes huge-eligible (remapped regions start at
            // arbitrary page offsets; real THP re-forms huge pages on the
            // aligned middle the same way).
            if huge_ok && pages >= HUGE_PAGE_FRAMES {
                let misalign = (vpage % HUGE_PAGE_FRAMES as u64) as usize;
                if misalign != 0 {
                    let head = HUGE_PAGE_FRAMES - misalign;
                    if pages - head >= HUGE_PAGE_FRAMES {
                        let run = self
                            .try_alloc_base_run(tier, head)
                            .ok_or_else(|| self.oom_error(tier, head * PAGE_SIZE))?;
                        out.push(self.back_mapping(vpage, tier, run, PageKind::Base4K, backing));
                        vpage += run.count as u64;
                        pages -= run.count as usize;
                        continue;
                    }
                }
            }
            if huge_ok && huge_eligible(vpage, pages) {
                let units = pages / HUGE_PAGE_FRAMES;
                // Grab as many contiguous aligned huge units as possible in
                // one mapping; fall back unit-by-unit, then to base pages.
                if let Some(run) = self.try_alloc_huge_run(tier, units) {
                    let mapped_pages = run.count as usize;
                    out.push(self.back_mapping(vpage, tier, run, PageKind::Huge2M, backing));
                    vpage += mapped_pages as u64;
                    pages -= mapped_pages;
                    continue;
                }
            }
            // Base mapping: largest contiguous run we can get, else single
            // pages.
            let want = pages.min(HUGE_PAGE_FRAMES);
            let run = self
                .try_alloc_base_run(tier, want)
                .ok_or_else(|| self.oom_error(tier, pages * PAGE_SIZE))?;
            out.push(self.back_mapping(vpage, tier, run, PageKind::Base4K, backing));
            vpage += run.count as u64;
            pages -= run.count as usize;
        }
        Ok(())
    }

    /// The mapping of `run.count` pages from `vpage` onto `run`, its frames
    /// backed by host memory (undone by [`Machine::unmap_one`]) holding what
    /// `backing` says. A fresh allocation's frames must not be pinned
    /// ([`TierStorage::map_frames`] panics).
    fn back_mapping(
        &mut self,
        vpage: u64,
        tier: TierId,
        run: FrameRun,
        kind: PageKind,
        backing: Backing<'_>,
    ) -> Mapping {
        match backing {
            Backing::Adopt(a) => {
                let from = ((vpage - a.vpage) as usize * PAGE_SIZE).min(a.bytes.len());
                self.storage
                    .adopt_frames(tier, run, &a.bytes[from..], a.keep);
            }
            Backing::Zero => self.storage.map_frames(tier, run, true),
            Backing::Remap => self.storage.map_frames(tier, run, false),
        }
        Mapping {
            vpage_start: vpage,
            pages: run.count,
            tier,
            frame_start: run.start,
            kind,
        }
    }

    /// Tries to allocate `units` aligned huge units as one run, halving on
    /// failure; returns the largest run obtained (a multiple of 512 frames).
    fn try_alloc_huge_run(&mut self, tier: TierId, units: usize) -> Option<FrameRun> {
        let frames = &mut self.tiers[tier.index()].frames;
        let mut n = units;
        while n > 0 {
            if let Some(run) = frames.alloc_run_aligned(n * HUGE_PAGE_FRAMES, HUGE_PAGE_FRAMES) {
                return Some(run);
            }
            n /= 2;
        }
        None
    }

    /// Tries to allocate up to `want` contiguous base frames, halving on
    /// failure down to a single frame.
    fn try_alloc_base_run(&mut self, tier: TierId, want: usize) -> Option<FrameRun> {
        let frames = &mut self.tiers[tier.index()].frames;
        let mut n = want;
        while n > 0 {
            if let Some(run) = frames.alloc_run(n) {
                return Some(run);
            }
            n /= 2;
        }
        None
    }

    fn oom_error(&self, tier: TierId, requested: usize) -> HmsError {
        let tier_name = self.platform.tier_name(tier);
        if self.tiers[tier.index()].frames.free_frames() * PAGE_SIZE >= requested {
            HmsError::Fragmented {
                tier,
                tier_name,
                frames: requested / PAGE_SIZE,
            }
        } else {
            HmsError::OutOfMemory {
                tier,
                tier_name,
                requested,
            }
        }
    }

    fn unmap_one(&mut self, m: &Mapping) {
        let run = FrameRun::new(m.frame_start, m.pages);
        self.tiers[m.tier.index()].frames.free_run(run);
        self.storage.unmap_frames(m.tier, run);
        self.invalidate_llc_frames(&[(m.tier, run)]);
    }

    /// Back-invalidates every LLC line caching bytes of the freed frame
    /// runs, so no resident line ever references a frame that may be handed
    /// out again. Counters are unaffected; the vacated ways become preferred
    /// eviction victims.
    ///
    /// One pass for all runs (vacating commutes): fewer lines than sets are
    /// probed line by line, more take one scan against the sorted spans.
    pub(crate) fn invalidate_llc_frames(&mut self, freed: &[(TierId, FrameRun)]) {
        let llc = &mut self.core.llc;
        let mut spans: Vec<(u64, u64)> = freed
            .iter()
            .map(|&(tier, run)| {
                let lo = Frame::new(tier, run.start).phys_addr(0).raw();
                let hi = lo + run.bytes() as u64;
                (llc.line_id_of(lo), llc.line_id_of(hi - 1))
            })
            .collect();
        spans.sort_unstable();
        let lines: u64 = spans.iter().map(|&(first, last)| last - first + 1).sum();
        if lines < llc.config().sets() as u64 {
            for &(first, last) in &spans {
                llc.invalidate_lines(first, last);
            }
        } else {
            llc.invalidate_where(|line| {
                let at = spans.partition_point(|&(_, last)| last < line);
                spans.get(at).is_some_and(|&(first, _)| first <= line)
            });
        }
    }

    /// Frees the allocation starting at `range.start`.
    ///
    /// # Errors
    ///
    /// [`HmsError::UnknownAllocation`] if no allocation starts there.
    pub fn free(&mut self, range: VirtRange) -> Result<()> {
        let info = self
            .allocations
            .remove(&range.start.raw())
            .ok_or(HmsError::UnknownAllocation(range.start))?;
        let full = VirtRange::new(info.range.start, info.pages * PAGE_SIZE);
        let taken = self.mappings.take_overlapping(full);
        for m in &taken {
            // The allocation entry is already gone; debit the per-tag
            // aggregate directly (the per-allocation cache died with it).
            if let Some(clip) = m.vrange().intersect(info.range) {
                let agg = self.tag_resident.entry(info.tag).or_insert([0; MAX_TIERS]);
                agg[m.tier.index()] -= clip.len;
            }
            self.unmap_one(m);
        }
        self.invalidate_tlb_range(full);
        Ok(())
    }

    /// All live allocations in address order.
    pub fn allocations(&self) -> impl Iterator<Item = &AllocationInfo> {
        self.allocations.values()
    }

    // ------------------------------------------------------------------
    // Introspection for analyzers / migration engines
    // ------------------------------------------------------------------

    /// The mappings overlapping `range`, in address order.
    pub fn mappings_in(&self, range: VirtRange) -> Vec<Mapping> {
        self.mappings.overlapping(range)
    }

    /// The mapping table, for unaccounted whole-array reads
    /// ([`TrackedVec::values`](crate::TrackedVec::values)).
    pub(crate) fn mappings(&self) -> &MappingTable {
        &self.mappings
    }

    /// Borrows `len` bytes of `tier`'s backing storage at byte `offset`,
    /// inside one backed page (a segment of
    /// [`resolve_block`](crate::shard::resolve_block)), for
    /// [`TrackedVec::values`](crate::TrackedVec::values).
    pub(crate) fn storage_slice(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        self.storage.slice(tier, offset, len)
    }

    /// Copies `len` bytes of `tier`'s backing storage at byte `offset` out,
    /// as they are: no translation, no accounting. For verification (what
    /// do the frames under a staging run hold?). Only mapped frames, and
    /// the pinned source of a staged region, have bytes of their own: every
    /// other frame reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the tier's capacity.
    pub fn storage_to_vec(&self, tier: TierId, offset: usize, len: usize) -> Vec<u8> {
        assert!(
            offset + len <= self.capacity(tier),
            "tier storage range out of bounds"
        );
        self.storage.to_vec(tier, offset, len)
    }

    /// Pages of host memory backing tier storage (a diagnostic): one per
    /// mapped frame and per pinned source of a staging run, adopted pages
    /// (the caller's buffer) included.
    pub fn storage_backed_pages(&self) -> usize {
        self.storage.backed()
    }

    /// Bytes tier storage has copied from one host page into another (a
    /// diagnostic): a staged replay or an `mbind` move hands pages over and
    /// adds nothing.
    pub fn storage_copied_bytes(&self) -> u64 {
        self.storage.copied
    }

    /// The tier currently backing `va`.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    pub fn tier_of(&mut self, va: VirtAddr) -> Result<TierId> {
        Ok(self.mappings.lookup(va)?.tier)
    }

    /// Bytes of `range` currently resident on `tier`.
    pub fn resident_bytes(&self, range: VirtRange, tier: TierId) -> usize {
        self.mappings
            .overlapping(range)
            .iter()
            .filter(|m| m.tier == tier)
            .filter_map(|m| m.vrange().intersect(range))
            .map(|r| r.len)
            .sum()
    }

    /// Invalidates every TLB entry covering `range`.
    pub(crate) fn invalidate_tlb_range(&mut self, range: VirtRange) {
        if range.len == 0 {
            return;
        }
        let first = range.start.page_index();
        let last = (range.end().raw() - 1) >> PAGE_SHIFT;
        let coalesce = self.platform.tlb_coalesce.max(1) as u64;
        self.core.tlb.invalidate_where(|key| {
            let value = key >> 2;
            let (key_first, key_last) = match key & 3 {
                2 => {
                    let start = value * HUGE_PAGE_FRAMES as u64;
                    (start, start + HUGE_PAGE_FRAMES as u64 - 1)
                }
                1 => {
                    let start = value * coalesce;
                    (start, start + coalesce - 1)
                }
                _ => (value, value),
            };
            key_first <= last && first <= key_last
        });
    }

    // ------------------------------------------------------------------
    // Migration primitives (used by mbind and by the ATMem optimizer)
    // ------------------------------------------------------------------

    /// Allocates a physically contiguous staging run of `pages` frames on
    /// `tier` (not mapped into any virtual range). The run is tracked as
    /// outstanding staging until released with [`Machine::free_frames`];
    /// [`Machine::audit`] accounts it as legitimate unmapped usage.
    ///
    /// The frames are held in the tier's allocator like any others, which
    /// is what makes staging compete for capacity and decides the frames a
    /// later remap gets. Their bytes are never backed, let alone written:
    /// a staging copy records and pins the region's own frames instead
    /// ([`Machine::copy_region_to_frames`]).
    ///
    /// # Errors
    ///
    /// [`HmsError::OutOfMemory`] / [`HmsError::Fragmented`] on failure.
    pub fn alloc_frames(&mut self, tier: TierId, pages: usize) -> Result<FrameRun> {
        if self.fault_fires(FaultSite::StagingAlloc) {
            return Err(self.oom_error(tier, pages * PAGE_SIZE));
        }
        let run = self.tiers[tier.index()]
            .frames
            .alloc_run(pages)
            .ok_or_else(|| self.oom_error(tier, pages * PAGE_SIZE))?;
        self.staged_runs.push((tier, run));
        self.staged_sources.push(Vec::new());
        Ok(run)
    }

    /// Releases a staging run previously returned by
    /// [`Machine::alloc_frames`], unpinning whatever it still has staged.
    ///
    /// # Panics
    ///
    /// Panics if `(tier, run)` is not an outstanding staging run — a run
    /// that was never handed out by [`Machine::alloc_frames`], or one
    /// already freed. Frames backing a mapping are released by
    /// [`Machine::free`] or a remap, never through here.
    pub fn free_frames(&mut self, tier: TierId, run: FrameRun) {
        let slot = self.staging_slot(tier, run).unwrap_or_else(|| {
            panic!(
                "free_frames: frames {}..{} of {tier} are not an outstanding staging run",
                run.start,
                run.start + run.count
            )
        });
        self.staged_runs.swap_remove(slot);
        for piece in self.staged_sources.swap_remove(slot) {
            self.storage.unpin(piece);
        }
        self.tiers[tier.index()].frames.free_run(run);
        self.invalidate_llc_frames(&[(tier, run)]);
    }

    /// Staging frame runs currently outstanding (allocated via
    /// [`Machine::alloc_frames`], not yet freed). Empty whenever no
    /// migration is mid-flight; the migration engine's tests assert this to
    /// prove staging buffers are never leaked on fault paths.
    pub fn outstanding_staging(&self) -> &[(TierId, FrameRun)] {
        &self.staged_runs
    }

    /// Index of `(tier, run)` in the outstanding staging list.
    fn staging_slot(&self, tier: TierId, run: FrameRun) -> Option<usize> {
        self.staged_runs
            .iter()
            .position(|&(t, r)| t == tier && r == run)
    }

    /// The staging runs (by slot) that have pinned a byte of `bytes`.
    fn pinning_runs(&self, bytes: BlockSegment) -> impl Iterator<Item = usize> + '_ {
        let end = bytes.offset + bytes.len;
        let overlaps = move |p: &BlockSegment| {
            p.tier == bytes.tier && p.offset < end && bytes.offset < p.offset + p.len
        };
        let runs = self.staged_sources.iter().enumerate();
        runs.filter_map(move |(slot, pieces)| pieces.iter().any(overlaps).then_some(slot))
    }

    /// The `mbind` per-page path: moves the page of a mapped frame of
    /// `src_tier` to a new frame of another tier (the fault site is
    /// [`FaultSite::FrameAlloc`]; an error moves nothing), frees the source
    /// frame, and returns the new one. The caller accounts the time, maps
    /// the frame, and back-invalidates the freed frames' LLC lines in one
    /// [`invalidate_llc_frames`](Machine::invalidate_llc_frames) pass. On
    /// the host the page is handed over ([`TierStorage::move_page`], which
    /// panics if the new frame is pinned).
    pub(crate) fn move_page_frame(
        &mut self,
        src_tier: TierId,
        src_frame: u32,
        dst_tier: TierId,
    ) -> Result<u32> {
        assert_ne!(src_tier, dst_tier, "page move within one tier");
        let faulted = self.fault_fires(FaultSite::FrameAlloc);
        let run = (!faulted).then(|| self.tiers[dst_tier.index()].frames.alloc_run(1));
        let dst = run
            .flatten()
            .ok_or_else(|| self.oom_error(dst_tier, PAGE_SIZE))?
            .start;
        self.storage
            .move_page((src_tier, src_frame), (dst_tier, dst));
        let source = FrameRun::new(src_frame, 1);
        self.tiers[src_tier.index()].frames.free_run(source);
        Ok(dst)
    }

    /// Stage 1 of a staged migration: stages the page-aligned virtual
    /// `range` for the staging run `dst` on `dst_tier`, charged as a copy
    /// by `threads` simulated copier threads. Returns the simulated copy
    /// time. The copy streams past the LLC (non-temporal), so cache and TLB
    /// state are unaffected.
    ///
    /// On the host nothing is copied: the run records the frames under
    /// `range` and pins them, so their bytes stay in place, backed, through
    /// a remap that frees them, until
    /// [`copy_frames_to_region`](Machine::copy_frames_to_region) moves them
    /// or [`free_frames`](Machine::free_frames) drops them. Staging again
    /// into the same run replaces what it held. A pinned frame is written
    /// by nothing but that replay: a fresh allocation or an `mbind` page
    /// copy that would land on one panics.
    ///
    /// # Errors
    ///
    /// [`HmsError::InvalidRange`] if `range` is not page-aligned, `dst` is
    /// too small, `(dst_tier, dst)` is not an outstanding staging run, or
    /// another staging run has a frame of `range` staged;
    /// [`HmsError::Unmapped`] for holes in `range`;
    /// [`HmsError::FaultInjected`] under an armed [`FaultPlan`] (nothing is
    /// staged and no state changes in that case).
    pub fn copy_region_to_frames(
        &mut self,
        range: VirtRange,
        dst_tier: TierId,
        dst: FrameRun,
        threads: usize,
    ) -> Result<SimDuration> {
        let segments = self.region_segments(range)?;
        let slot = self
            .staging_slot(dst_tier, dst)
            .filter(|_| range.len <= dst.bytes())
            .filter(|&slot| {
                let mut pins = segments.iter().flat_map(|&s| self.pinning_runs(s));
                pins.all(|owner| owner == slot)
            })
            .ok_or(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            })?;
        if self.fault_fires(FaultSite::Move) {
            return Err(HmsError::FaultInjected(FaultSite::Move));
        }
        let mut ns = 0.0;
        for segment in &segments {
            ns += copy_ns(&self.platform, segment.tier, dst_tier, segment.len, threads);
        }
        // Unpin what the run held before pinning anew: a frame both share
        // is mapped, so it keeps its page in between.
        for piece in std::mem::take(&mut self.staged_sources[slot]) {
            self.storage.unpin(piece);
        }
        for &piece in &segments {
            self.storage.pin(piece);
        }
        self.staged_sources[slot] = segments;
        let time = SimDuration::from_ns(ns);
        self.core.clock.advance(time);
        Ok(time)
    }

    /// Stage 3 of a staged migration: replays the bytes staged for the run
    /// `src` on `src_tier` into the (re-mapped) virtual `range`.
    /// Counterpart of [`Machine::copy_region_to_frames`].
    ///
    /// The bytes replayed are those the staged frames hold *now*, at the
    /// replay, not at staging time: the simulated copy happens at stage 1,
    /// but ATMem migrates with the application stopped, so nothing writes
    /// the region in between. A replay consumes what was staged (the pins
    /// go), so replaying the run again is refused. On the host every staged
    /// page is handed to its destination frame, not copied
    /// ([`storage_copied_bytes`](Machine::storage_copied_bytes) stays put).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::copy_region_to_frames`], and
    /// [`HmsError::InvalidRange`] if `range` is longer than what the last
    /// successful staging copy into `src` recorded (nothing, for a fresh
    /// or already replayed run).
    ///
    /// # Panics
    ///
    /// Panics if `range` lands on frames another staging run has pinned.
    pub fn copy_frames_to_region(
        &mut self,
        src_tier: TierId,
        src: FrameRun,
        range: VirtRange,
        threads: usize,
    ) -> Result<SimDuration> {
        let segments = self.region_segments(range)?;
        let slot = self
            .staging_slot(src_tier, src)
            .filter(|&slot| range.len <= self.staged_sources[slot].iter().map(|p| p.len).sum())
            .ok_or(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            })?;
        if self.fault_fires(FaultSite::Move) {
            return Err(HmsError::FaultInjected(FaultSite::Move));
        }
        let mut ns = 0.0;
        for segment in &segments {
            ns += copy_ns(&self.platform, src_tier, segment.tier, segment.len, threads);
            for owner in self.pinning_runs(*segment) {
                assert_eq!(
                    owner, slot,
                    "a replay would overwrite pinned frames of another staging run"
                );
            }
        }
        let sources = std::mem::take(&mut self.staged_sources[slot]);
        self.storage.replay(&sources, &segments);
        let time = SimDuration::from_ns(ns);
        self.core.clock.advance(time);
        Ok(time)
    }

    /// Decomposes a page-aligned virtual range into physically contiguous
    /// storage segments.
    fn region_segments(&self, range: VirtRange) -> Result<Vec<BlockSegment>> {
        if range.len == 0 || range.start.page_offset() != 0 || !range.len.is_multiple_of(PAGE_SIZE)
        {
            return Err(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            });
        }
        resolve_block(&self.mappings, range)
    }

    /// Splits any mapping that straddles a boundary of `range`, so that
    /// every mapping overlapping `range` afterwards is fully contained in
    /// it. Splitting a huge mapping at an unaligned point demotes the
    /// broken 2 MiB unit to base pages (and invalidates its TLB entries),
    /// as a real kernel would.
    pub(crate) fn split_mappings_at(&mut self, range: VirtRange) {
        debug_assert_eq!(range.start.page_offset(), 0);
        debug_assert_eq!(range.len % PAGE_SIZE, 0);
        for boundary in [range.start.page_index(), range.end().page_index()] {
            let m = match self.mappings.lookup_page(boundary) {
                Some(m) if m.vpage_start < boundary => *m,
                _ => continue,
            };
            self.mappings.remove(m.vpage_start);
            let (left, right) = crate::mapping::split_mapping(&m, boundary);
            for piece in left.into_iter().chain(right) {
                self.mappings.insert(piece);
            }
            if m.kind == PageKind::Huge2M {
                // Stale huge-unit TLB entries must not survive the demotion.
                self.invalidate_tlb_range(m.vrange());
            }
        }
    }

    /// Remaps the page-aligned `range` onto fresh frames on `dst_tier`,
    /// using huge mappings where alignment and platform policy permit.
    /// Old frames are freed; TLB entries covering the range are invalidated
    /// once (a single range shootdown, not one per page). The backing bytes
    /// of the new frames are *uninitialised* — callers must copy data in
    /// (stage 3 of the staged migration) before any access.
    ///
    /// Returns the number of mappings now covering the range.
    ///
    /// # Errors
    ///
    /// [`HmsError::InvalidRange`] for unaligned ranges;
    /// [`HmsError::OutOfMemory`] if `dst_tier` cannot hold the range (the
    /// original mappings are restored).
    pub fn remap_region(&mut self, range: VirtRange, dst_tier: TierId) -> Result<usize> {
        if range.len == 0 || range.start.page_offset() != 0 || !range.len.is_multiple_of(PAGE_SIZE)
        {
            return Err(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            });
        }
        // Fault gate sits before any mapping-table mutation, so a faulted
        // remap leaves the region's mappings, frames and TLB untouched.
        if self.fault_fires(FaultSite::Remap) {
            return Err(self.oom_error(dst_tier, range.len));
        }
        self.split_mappings_at(range);
        let old = self.mappings.take_overlapping(range);
        let covered: usize = old.iter().map(|m| (m.pages as usize) * PAGE_SIZE).sum();
        if covered != range.len {
            // Holes: restore and fail.
            for m in old {
                self.mappings.insert(m);
            }
            return Err(HmsError::Unmapped(range.start));
        }

        let vpage = range.start.page_index();
        let pages = range.len / PAGE_SIZE;
        let mut created = Vec::new();
        match self.map_pages(dst_tier, vpage, pages, &mut created, Backing::Remap) {
            Ok(()) => {
                for m in &old {
                    self.note_unmapped(m.vrange(), m.tier);
                    self.unmap_one(m);
                }
                let n = created.len();
                for m in created {
                    self.note_mapped(m.vrange(), m.tier);
                    self.mappings.insert(m);
                }
                self.invalidate_tlb_range(range);
                Ok(n)
            }
            Err(e) => {
                for m in created {
                    self.unmap_one(&m);
                }
                for m in old {
                    self.mappings.insert(m);
                }
                Err(e)
            }
        }
    }

    /// Records `bytes` as migrated (called by migration engines).
    pub fn note_migrated(&mut self, bytes: usize) {
        self.core.counters.bytes_migrated += bytes as u64;
    }

    /// Replaces one mapping with another covering the same virtual pages.
    /// Low-level hook for the `mbind` engine; does not touch frames.
    pub(crate) fn replace_mapping(&mut self, old_vpage_start: u64, new: Vec<Mapping>) {
        if let Some(old) = self.mappings.remove(old_vpage_start) {
            self.note_unmapped(old.vrange(), old.tier);
        }
        for m in new {
            self.note_mapped(m.vrange(), m.tier);
            self.mappings.insert(m);
        }
    }

    pub(crate) fn tier_ref(&self, tier: TierId) -> &Tier {
        &self.tiers[tier.index()]
    }

    // ------------------------------------------------------------------
    // PEBS
    // ------------------------------------------------------------------

    /// Enables LLC read-miss sampling (see [`Pebs::enable`](crate::Pebs::enable)).
    pub fn pebs_enable(&mut self, period: u64, jitter: u64) {
        self.core.pebs.enable(period, jitter);
    }

    /// Disables sampling, keeping buffered records.
    pub fn pebs_disable(&mut self) {
        self.core.pebs.disable();
    }

    /// Reseeds the sampling jitter RNG. The paper repeats every experiment
    /// ten times; varying the sampling seed is the simulator's source of
    /// run-to-run variation.
    pub fn pebs_reseed(&mut self, seed: u64) {
        self.core.pebs.reseed(seed);
    }

    /// Drains buffered sample records.
    ///
    /// Each drained record crosses the [`FaultSite::SampleLoss`] gate: an
    /// installed fault plan can drop individual records (a simulated PEBS
    /// buffer overwrite), starving the analyzer the way real sampling loss
    /// does. Without a plan the drain is lossless and free.
    pub fn pebs_drain(&mut self) -> Vec<SampleRecord> {
        let records = self.core.pebs.drain();
        self.apply_sample_loss(records)
    }

    /// Filters drained PEBS records through the [`FaultSite::SampleLoss`]
    /// gate (one consultation per record).
    fn apply_sample_loss(&mut self, records: Vec<SampleRecord>) -> Vec<SampleRecord> {
        if self.fault.is_none() {
            return records;
        }
        records
            .into_iter()
            .filter(|_| !self.fault_fires(FaultSite::SampleLoss))
            .collect()
    }

    /// The sampling unit, for inspection.
    #[cfg(test)]
    pub(crate) fn pebs(&self) -> &crate::pebs::Pebs {
        &self.core.pebs
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Snapshot of all counters.
    pub fn stats(&self) -> MachineStats {
        let mut bytes_used = [0u64; MAX_TIERS];
        for (used, tier) in bytes_used.iter_mut().zip(&self.tiers) {
            *used = (tier.frames.used_frames() * PAGE_SIZE) as u64;
        }
        MachineStats {
            time_ns: self.core.clock.now().as_ns(),
            accesses: self.core.counters.accesses,
            reads: self.core.counters.reads,
            writes: self.core.counters.writes,
            llc_read_hits: self.core.llc.read_hits(),
            llc_read_misses: self.core.llc.read_misses(),
            llc_write_hits: self.core.llc.write_hits(),
            llc_write_misses: self.core.llc.write_misses(),
            tlb_hits: self.core.tlb.hits(),
            tlb_misses: self.core.tlb.misses(),
            bytes_used,
            bytes_migrated: self.core.counters.bytes_migrated,
        }
    }

    /// Flushes the LLC and TLB (cold restart between experiment phases).
    pub fn flush_caches(&mut self) {
        self.core.llc.flush();
        self.core.tlb.flush();
    }

    // ------------------------------------------------------------------
    // Invariant audit
    // ------------------------------------------------------------------

    /// Checks every structural invariant of the machine and returns the
    /// violations found (empty = clean). Intended to run at quiescent
    /// points — between iterations, after a migration or a rollback — and
    /// cheap enough to call at the end of every test:
    ///
    /// 1. mappings are virtually disjoint, frame-in-bounds, and every
    ///    backing frame is live in its tier's allocator;
    /// 2. huge mappings are 2 MiB-aligned virtually and physically;
    /// 3. frame conservation per tier: the frames owned by mappings plus
    ///    outstanding staging runs are pairwise disjoint (no double
    ///    mapping) and account for *exactly* the allocator's used count
    ///    (no leaks), and the allocator's incremental free counter matches
    ///    a bitmap popcount (no double free slipped through);
    /// 4. every allocation is fully mapped, and every mapping belongs to a
    ///    live allocation;
    /// 5. every TLB entry decodes to a live mapping of matching
    ///    granularity (no stale entries after remaps or splinters), the
    ///    TLB's recency list and hash index describe the same entries, the
    ///    mapping table's page index agrees with its mappings, and every
    ///    LLC set's recency word orders exactly its ways (empty ways first);
    /// 6. every resident LLC line references an allocated frame;
    /// 7. monotone counters (time, accesses, hit/miss totals, migrated
    ///    bytes) never run backwards between audits;
    /// 8. the incremental residency cache (per-allocation and per-tag
    ///    resident-byte counters) matches a full mapping rescan;
    /// 9. host backing follows the mappings and the staged sources: the
    ///    frames tier storage flags mapped are the frames the mapping table
    ///    maps, those it flags pinned the frames the outstanding staging
    ///    runs' recorded sources hold, and a frame has a host page exactly
    ///    while it is flagged one or the other — so no mapped or pinned
    ///    frame is unbacked (and no staging run backed on its own account);
    ///    a read-only page (an adopted buffer) maps frames of read-only
    ///    allocations only, and each adopted buffer is held alive for
    ///    exactly the pages that alias it.
    ///
    /// Needs `&mut self` only to store the counter snapshot for the next
    /// monotonicity check.
    pub fn audit(&mut self) -> Vec<String> {
        let mut violations: Vec<String> = Vec::new();
        let coalesce = self.platform.tlb_coalesce.max(1) as u64;

        // Invariants 1 + 2, and collection of per-tier frame ownership.
        // `(frame_start, pages, owning vpage)`, `None` for a staging run;
        // rendered only inside a violation.
        let mut owners: Vec<Vec<(u32, u32, Option<u64>)>> = vec![Vec::new(); self.tiers.len()];
        // In-bounds mapped runs, and whether their allocation is read-only.
        let mut mapped = Vec::new();
        let mut prev_end: Option<u64> = None;
        for m in self.mappings.iter() {
            if let Some(end) = prev_end {
                if m.vpage_start < end {
                    violations.push(format!(
                        "mapping at vpage {:#x} overlaps the previous mapping",
                        m.vpage_start
                    ));
                }
            }
            prev_end = Some(m.vpage_start + m.pages as u64);
            let frames = &self.tiers[m.tier.index()].frames;
            if m.frame_start as usize + m.pages as usize > frames.total() {
                violations.push(format!(
                    "mapping at vpage {:#x} references out-of-bounds frames {}..{} on tier {}",
                    m.vpage_start,
                    m.frame_start,
                    m.frame_start + m.pages,
                    self.platform.tier_name(m.tier)
                ));
                continue;
            }
            if let Some(f) =
                (m.frame_start..m.frame_start + m.pages).find(|&f| !frames.is_allocated(f))
            {
                violations.push(format!(
                    "mapping at vpage {:#x} references freed frame {f} on tier {}",
                    m.vpage_start,
                    self.platform.tier_name(m.tier)
                ));
            }
            if m.kind == PageKind::Huge2M
                && (!m.vpage_start.is_multiple_of(HUGE_PAGE_FRAMES as u64)
                    || !(m.frame_start as usize).is_multiple_of(HUGE_PAGE_FRAMES)
                    || !(m.pages as usize).is_multiple_of(HUGE_PAGE_FRAMES))
            {
                violations.push(format!(
                    "huge mapping at vpage {:#x} is not 2 MiB-aligned (frame {}, {} pages)",
                    m.vpage_start, m.frame_start, m.pages
                ));
            }
            owners[m.tier.index()].push((m.frame_start, m.pages, Some(m.vpage_start)));
            let read_only = (self.allocations.range(..=m.vpage_start << PAGE_SHIFT))
                .next_back()
                .is_some_and(|(_, a)| a.read_only);
            mapped.push((m.tier, FrameRun::new(m.frame_start, m.pages), read_only));
        }
        for &(tier, run) in &self.staged_runs {
            let frames = &self.tiers[tier.index()].frames;
            if run.start as usize + run.count as usize > frames.total() {
                violations.push(format!(
                    "staging run {}..{} is out of bounds on tier {}",
                    run.start,
                    run.start + run.count,
                    self.platform.tier_name(tier)
                ));
                continue;
            }
            if let Some(f) = (run.start..run.start + run.count).find(|&f| !frames.is_allocated(f)) {
                violations.push(format!(
                    "staging run on tier {} holds freed frame {f}",
                    self.platform.tier_name(tier)
                ));
            }
            owners[tier.index()].push((run.start, run.count, None));
        }
        // Invariant 9: pages back mapped and pinned frames and nothing
        // else; read-only pages map read-only allocations only.
        violations.extend(self.storage.check(
            mapped.into_iter(),
            self.staged_sources.iter().flatten().copied(),
        ));

        // Invariant 3: per-tier frame conservation.
        for (ti, tier) in self.tiers.iter().enumerate() {
            let owned = &mut owners[ti];
            owned.sort_by_key(|&(start, _, _)| start);
            for pair in owned.windows(2) {
                let (a_start, a_count, a_owner) = pair[0];
                let (b_start, _, b_owner) = pair[1];
                if a_start + a_count > b_start {
                    let what = |owner: Option<u64>| match owner {
                        Some(vpage) => format!("mapping at vpage {vpage:#x}"),
                        None => "staging run".to_string(),
                    };
                    violations.push(format!(
                        "{} and {} double-map frames on {}",
                        what(a_owner),
                        what(b_owner),
                        tier.spec.name
                    ));
                }
            }
            let owned_frames: usize = owned.iter().map(|&(_, count, _)| count as usize).sum();
            let used = tier.frames.used_frames();
            if owned_frames != used {
                violations.push(format!(
                    "frame leak on {}: allocator reports {used} used frames, \
                     mappings + staging own {owned_frames}",
                    tier.spec.name
                ));
            }
            if tier.frames.bitmap_used_frames() != used {
                violations.push(format!(
                    "allocator counter drift on {}: bitmap holds {} set bits, \
                     counter says {used}",
                    tier.spec.name,
                    tier.frames.bitmap_used_frames()
                ));
            }
        }

        // Invariant 4: allocations fully mapped; no orphan mappings.
        for info in self.allocations.values() {
            let full = VirtRange::new(info.range.start, info.pages * PAGE_SIZE);
            let covered: usize = self
                .mappings
                .overlapping(full)
                .iter()
                .filter_map(|m| m.vrange().intersect(full))
                .map(|r| r.len)
                .sum();
            if covered != full.len {
                violations.push(format!(
                    "allocation at {} has {} of {} bytes mapped",
                    info.range.start, covered, full.len
                ));
            }
        }
        for m in self.mappings.iter() {
            let start = m.vpage_start << PAGE_SHIFT;
            let end = (m.vpage_start + m.pages as u64) << PAGE_SHIFT;
            let owned = self
                .allocations
                .range(..=start)
                .next_back()
                .is_some_and(|(_, info)| {
                    end <= info.range.start.raw() + (info.pages * PAGE_SIZE) as u64
                });
            if !owned {
                violations.push(format!(
                    "orphan mapping at vpage {:#x} belongs to no allocation",
                    m.vpage_start
                ));
            }
        }

        // Invariant 5: the translation structures and the LLC are
        // self-consistent and TLB entries decode to live mappings.
        violations.extend(self.mappings.check());
        violations.extend(self.core.tlb.check());
        violations.extend(self.core.llc.check());
        for key in self.core.tlb.keys() {
            let value = key >> 2;
            let stale = match key & 3 {
                2 => {
                    let vpage = value * HUGE_PAGE_FRAMES as u64;
                    !matches!(
                        self.mappings.lookup_page(vpage),
                        Some(m) if m.kind == PageKind::Huge2M
                    )
                }
                1 => {
                    let group_start = value * coalesce;
                    !matches!(
                        self.mappings.lookup_page(group_start),
                        Some(m) if m.kind == PageKind::Base4K
                            && m.vpage_start <= group_start
                            && group_start + coalesce <= m.vpage_start + m.pages as u64
                    )
                }
                _ => !matches!(
                    self.mappings.lookup_page(value),
                    Some(m) if m.kind == PageKind::Base4K
                ),
            };
            if stale {
                violations.push(format!("stale TLB entry {key:#x}"));
            }
        }

        // Invariant 6: LLC lines reference allocated frames.
        for line in self.core.llc.live_lines() {
            let pa = self.core.llc.line_base_addr(line);
            let tier = (pa >> 40) as usize;
            let frame = ((pa & ((1u64 << 40) - 1)) >> PAGE_SHIFT) as u32;
            if tier >= self.tiers.len() || !self.tiers[tier].frames.is_allocated(frame) {
                violations.push(format!(
                    "LLC line {line:#x} caches freed or out-of-bounds frame {frame} of tier {tier}"
                ));
            }
        }

        // Invariant 8: the incremental residency cache matches a rescan.
        let mut tag_expected: BTreeMap<u32, [usize; MAX_TIERS]> = BTreeMap::new();
        for info in self.allocations.values() {
            let mut expect = [0usize; MAX_TIERS];
            for (ti, slot) in expect.iter_mut().enumerate().take(self.tiers.len()) {
                *slot = self.resident_bytes(info.range, TierId::new(ti));
            }
            if info.resident != expect {
                violations.push(format!(
                    "residency cache drift for allocation at {}: cached {:?}, rescan {:?}",
                    info.range.start, info.resident, expect
                ));
            }
            let agg = tag_expected.entry(info.tag).or_insert([0; MAX_TIERS]);
            for (slot, add) in agg.iter_mut().zip(expect) {
                *slot += add;
            }
        }
        for (&tag, cached) in &self.tag_resident {
            let expect = tag_expected.remove(&tag).unwrap_or([0; MAX_TIERS]);
            if *cached != expect {
                violations.push(format!(
                    "per-tag residency drift for tag {tag}: cached {cached:?}, rescan {expect:?}"
                ));
            }
        }
        for (tag, expect) in tag_expected {
            violations.push(format!(
                "tag {tag} has {expect:?} resident bytes but no cache entry"
            ));
        }

        // Invariant 7: counters never run backwards.
        let stats = self.stats();
        if let Some(prev) = &self.last_audit_stats {
            let pairs = [
                ("accesses", prev.accesses, stats.accesses),
                ("reads", prev.reads, stats.reads),
                ("writes", prev.writes, stats.writes),
                ("llc_read_hits", prev.llc_read_hits, stats.llc_read_hits),
                (
                    "llc_read_misses",
                    prev.llc_read_misses,
                    stats.llc_read_misses,
                ),
                ("llc_write_hits", prev.llc_write_hits, stats.llc_write_hits),
                (
                    "llc_write_misses",
                    prev.llc_write_misses,
                    stats.llc_write_misses,
                ),
                ("tlb_hits", prev.tlb_hits, stats.tlb_hits),
                ("tlb_misses", prev.tlb_misses, stats.tlb_misses),
                ("bytes_migrated", prev.bytes_migrated, stats.bytes_migrated),
            ];
            for (name, before, now) in pairs {
                if now < before {
                    violations.push(format!("counter {name} ran backwards: {before} -> {now}"));
                }
            }
            if stats.time_ns < prev.time_ns {
                violations.push(format!(
                    "simulated clock ran backwards: {} -> {} ns",
                    prev.time_ns, stats.time_ns
                ));
            }
        }
        self.last_audit_stats = Some(stats);

        violations
    }
}

/// The machine is a port by lending a handle over its resident core: every
/// [`MemPort`] operation on a `Machine` is that operation on the core.
impl MemPort for Machine {
    #[inline]
    fn with_core<R>(&mut self, f: impl FnOnce(&mut CoreHandle<'_>) -> R) -> R {
        f(&mut CoreHandle::new(
            &mut self.core,
            &self.mappings,
            &self.platform,
            TiersView::new(&self.tiers, &mut self.storage),
        ))
    }
}

/// Analytic copy-time model for `len` bytes moved from `src` to `dst` by
/// `threads` simulated copier threads, in nanoseconds: throughput is the
/// minimum of the source copy-read and destination copy-write bandwidth at
/// that thread count, further capped by the platform's per-pair link
/// bandwidth (infinite on every two-tier preset, so the `min` is exact
/// identity there); a same-tier copy halves the budget (read and write
/// share the channel). The thread count feeds this model only: on the host
/// a staged region's pages change hands, one charge per segment (not per
/// page: the callers' `f64` sum is not associative).
fn copy_ns(platform: &Platform, src: TierId, dst: TierId, len: usize, threads: usize) -> f64 {
    let mut bw = platform.tiers[src.index()]
        .copy_read_bw(threads)
        .min(platform.tiers[dst.index()].copy_write_bw(threads))
        .min(platform.link_cap(src, dst));
    if src == dst {
        bw /= 2.0;
    }
    len as f64 / bw
}

/// Plain little-endian scalar types storable in simulated memory.
///
/// This trait is sealed: the simulator supports exactly the primitive
/// numeric types below.
pub trait Scalar: Copy + Send + Sync + 'static + private::Sealed {
    /// Size of the encoded scalar in bytes.
    const SIZE: usize;
    /// Decodes from little-endian bytes (`bytes.len() == SIZE`).
    fn from_le_slice(bytes: &[u8]) -> Self;
    /// Encodes into little-endian bytes (`bytes.len() == SIZE`).
    fn write_le_slice(self, bytes: &mut [u8]);
}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn from_le_slice(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("scalar size mismatch"))
            }
            #[inline]
            fn write_le_slice(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_scalar!(u8, u32, u64, i32, i64, f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(Platform::testing())
    }

    #[test]
    fn alloc_read_write_round_trip() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.write::<u64>(r.start, 0xdead_beef).unwrap();
        assert_eq!(m.read::<u64>(r.start).unwrap(), 0xdead_beef);
        assert_eq!(m.peek::<u64>(r.start).unwrap(), 0xdead_beef);
    }

    #[test]
    fn zero_alloc_is_an_error() {
        let mut m = machine();
        assert_eq!(
            m.alloc(0, Placement::Slow).unwrap_err(),
            HmsError::ZeroSizedAllocation
        );
    }

    #[test]
    fn placement_fast_uses_fast_tier() {
        let mut m = machine();
        let r = m.alloc(8192, Placement::Fast).unwrap();
        assert_eq!(m.tier_of(r.start).unwrap(), TierId::FAST);
        assert_eq!(m.resident_bytes(r, TierId::FAST), 8192);
    }

    #[test]
    fn preferred_spills_when_full() {
        let mut m = machine();
        let fast_cap = m.capacity(TierId::FAST);
        let r = m
            .alloc(fast_cap + 4 * PAGE_SIZE, Placement::Preferred(TierId::FAST))
            .unwrap();
        assert_eq!(m.resident_bytes(r, TierId::FAST), fast_cap);
        assert!(m.resident_bytes(r, TierId::SLOW) >= 4 * PAGE_SIZE);
    }

    #[test]
    fn fast_placement_fails_when_too_big() {
        let mut m = machine();
        let err = m
            .alloc(m.capacity(TierId::FAST) + PAGE_SIZE, Placement::Fast)
            .unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { .. }));
        // Rollback: nothing leaked.
        assert_eq!(m.stats().bytes_used[TierId::FAST.index()], 0);
    }

    #[test]
    fn huge_mappings_created_for_large_allocations() {
        let mut m = machine();
        let r = m.alloc(4 * 1024 * 1024, Placement::Slow).unwrap();
        let maps = m.mappings_in(r);
        assert!(maps.iter().any(|mp| mp.kind == PageKind::Huge2M));
    }

    #[test]
    fn free_releases_frames() {
        let mut m = machine();
        let before = m.free_bytes(TierId::SLOW);
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        assert!(m.free_bytes(TierId::SLOW) < before);
        m.free(r).unwrap();
        assert_eq!(m.free_bytes(TierId::SLOW), before);
        assert!(m.read::<u32>(r.start).is_err());
    }

    #[test]
    fn double_free_is_an_error() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.free(r).unwrap();
        assert!(matches!(m.free(r), Err(HmsError::UnknownAllocation(_))));
    }

    #[test]
    fn slow_accesses_cost_more_than_fast() {
        let mut m = machine();
        let slow = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        let fast = m.alloc(1024 * 1024, Placement::Fast).unwrap();
        // Touch a large stride so every access misses.
        let t0 = m.now();
        for i in 0..1000u64 {
            let _ = m
                .read::<u64>(slow.start.add(i * 1024 % (1024 * 1024)))
                .unwrap();
        }
        let slow_time = m.now().as_ns() - t0.as_ns();
        let t1 = m.now();
        for i in 0..1000u64 {
            let _ = m
                .read::<u64>(fast.start.add(i * 1024 % (1024 * 1024)))
                .unwrap();
        }
        let fast_time = m.now().as_ns() - t1.as_ns();
        assert!(
            slow_time > 1.5 * fast_time,
            "slow {slow_time} vs fast {fast_time}"
        );
    }

    #[test]
    fn pebs_samples_read_misses() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        m.pebs_enable(4, 0);
        for i in 0..256u64 {
            let _ = m
                .read::<u64>(r.start.add(i * 4096 % (1024 * 1024)))
                .unwrap();
        }
        m.pebs_disable();
        let samples = m.pebs_drain();
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| r.contains(s.vaddr)));
    }

    #[test]
    fn remap_moves_residency_and_preserves_nothing_until_copied() {
        let mut m = machine();
        let r = m.alloc(2 * 1024 * 1024, Placement::Slow).unwrap();
        assert_eq!(m.resident_bytes(r, TierId::SLOW), 2 * 1024 * 1024);
        let full = VirtRange::new(r.start, 2 * 1024 * 1024);
        m.remap_region(full, TierId::FAST).unwrap();
        assert_eq!(m.resident_bytes(full, TierId::FAST), 2 * 1024 * 1024);
        assert_eq!(m.resident_bytes(full, TierId::SLOW), 0);
    }

    #[test]
    fn staged_copy_round_trip_preserves_bytes() {
        let mut m = machine();
        let r = m.alloc(64 * PAGE_SIZE, Placement::Slow).unwrap();
        for i in 0..(64 * PAGE_SIZE as u64 / 8) {
            m.poke::<u64>(r.start.add(i * 8), i * 31 + 7).unwrap();
        }
        let full = VirtRange::new(r.start, 64 * PAGE_SIZE);
        // Stage 1: copy out to staging on FAST.
        let staging = m.alloc_frames(TierId::FAST, 64).unwrap();
        m.copy_region_to_frames(full, TierId::FAST, staging, 4)
            .unwrap();
        // Stage 2: remap to FAST.
        m.remap_region(full, TierId::FAST).unwrap();
        // Stage 3: copy back.
        m.copy_frames_to_region(TierId::FAST, staging, full, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        for i in 0..(64 * PAGE_SIZE as u64 / 8) {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i * 31 + 7);
        }
    }

    #[test]
    fn stats_track_accesses() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.write::<u32>(r.start, 1).unwrap();
        let _ = m.read::<u32>(r.start).unwrap();
        let s = m.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert!(s.time_ns > 0.0);
    }

    #[test]
    fn line_locality_hits_after_first_touch() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        let _ = m.read::<u64>(r.start).unwrap(); // miss
        let _ = m.read::<u64>(r.start.add(8)).unwrap(); // same line: hit
        let s = m.stats();
        assert_eq!(s.llc_read_misses, 1);
        assert_eq!(s.llc_read_hits, 1);
    }

    #[test]
    fn coalesced_tlb_entries_are_invalidated_by_range() {
        let mut platform = Platform::testing();
        platform.tlb_coalesce = 8;
        platform.huge_pages = false;
        let mut m = Machine::new(platform);
        let r = m.alloc(64 * PAGE_SIZE, Placement::Slow).unwrap();
        // Touch pages 0..16: coalesced entries (2 groups of 8).
        for p in 0..16u64 {
            let _ = m.read::<u64>(r.start.add(p * PAGE_SIZE as u64)).unwrap();
        }
        let misses_before = m.stats().tlb_misses;
        // Re-touch: all hits.
        for p in 0..16u64 {
            let _ = m.read::<u64>(r.start.add(p * PAGE_SIZE as u64)).unwrap();
        }
        assert_eq!(m.stats().tlb_misses, misses_before, "warm TLB");
        // Invalidate pages 0..8 (one group); the other group must survive.
        m.invalidate_tlb_range(VirtRange::new(r.start, 8 * PAGE_SIZE));
        for p in 0..16u64 {
            let _ = m.read::<u64>(r.start.add(p * PAGE_SIZE as u64)).unwrap();
        }
        let new_misses = m.stats().tlb_misses - misses_before;
        assert_eq!(new_misses, 1, "exactly the invalidated group refills");
    }

    /// At period 1 the PEBS stream is every read miss in order; the drawn
    /// period checks that unsampled misses are not charged the sample cost.
    #[test]
    fn run_cores_n1_is_bit_identical_to_scalar() {
        for (period, jitter) in [(16, 8), (1, 0)] {
            let drive_scalar = |m: &mut Machine, r: VirtRange| {
                for i in 0..4096u64 {
                    let _ = m
                        .read::<u64>(r.start.add((i * 192) % (512 * 1024)))
                        .unwrap();
                    m.write::<u64>(r.start.add((i * 64) % (512 * 1024)), i)
                        .unwrap();
                }
            };
            let setup = || {
                let mut m = machine();
                let r = m.alloc(512 * 1024, Placement::Slow).unwrap();
                m.pebs_enable(period, jitter);
                (m, r)
            };

            let (mut a, ra) = setup();
            drive_scalar(&mut a, ra);
            let (mut b, rb) = setup();
            b.run_cores(1, |id, h| {
                assert_eq!(id, 0);
                for i in 0..4096u64 {
                    let _ = h
                        .read::<u64>(rb.start.add((i * 192) % (512 * 1024)))
                        .unwrap();
                    h.write::<u64>(rb.start.add((i * 64) % (512 * 1024)), i)
                        .unwrap();
                }
            });

            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.now().as_ns().to_bits(), b.now().as_ns().to_bits());
            assert_eq!(a.pebs_drain(), b.pebs_drain());
            let _ = ra;
        }
    }

    #[test]
    fn sharded_merge_is_deterministic_across_runs() {
        let run = || {
            let mut m = machine();
            let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
            m.pebs_enable(8, 4);
            let ranges = [(0u64, 512 * 1024u64), (512 * 1024, 1024 * 1024)];
            m.run_cores(2, |id, h| {
                let (lo, hi) = ranges[id];
                for i in (lo..hi).step_by(192) {
                    let _ = h.read::<u64>(r.start.add(i)).unwrap();
                }
            });
            (m.stats(), m.now().as_ns().to_bits(), m.pebs_drain())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_clock_is_max_core_time_plus_barrier() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        let before = m.now().as_ns();
        // Core 1 does 4x the work of core 0, so max() must pick it.
        let elapsed = m.run_cores(2, |id, h| {
            let n = if id == 0 { 256u64 } else { 1024 };
            for i in 0..n {
                let _ = h
                    .read::<u64>(r.start.add((id as u64 * 512 + i) * 512))
                    .unwrap();
            }
            h.elapsed()
        });
        assert!(elapsed[1] > elapsed[0]);
        let expected = (before + elapsed[1].as_ns()) + m.platform().cost.barrier_cost(2).as_ns();
        assert_eq!(m.now().as_ns().to_bits(), expected.to_bits());
    }

    #[test]
    fn sharded_pebs_streams_concatenate_in_core_order() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        m.pebs_enable(4, 0);
        let half = 512 * 1024u64;
        m.run_cores(2, |id, h| {
            let base = id as u64 * half;
            for i in (0..half).step_by(4096) {
                let _ = h.read::<u64>(r.start.add(base + i)).unwrap();
            }
        });
        let samples = m.pebs_drain();
        assert!(!samples.is_empty());
        // Core 0's addresses (below the split) come before core 1's.
        let boundary = samples
            .iter()
            .position(|s| s.vaddr >= r.start.add(half))
            .expect("core 1 produced no samples");
        assert!(samples[..boundary]
            .iter()
            .all(|s| s.vaddr < r.start.add(half)));
        assert!(samples[boundary..]
            .iter()
            .all(|s| s.vaddr >= r.start.add(half)));
    }

    #[test]
    fn sharded_counters_sum_over_cores() {
        let mut m = machine();
        let r = m.alloc(256 * 1024, Placement::Slow).unwrap();
        let before = m.stats();
        m.run_cores(4, |id, h| {
            let base = id as u64 * 64 * 1024;
            for i in 0..100u64 {
                let _ = h.read::<u64>(r.start.add(base + i * 8)).unwrap();
                h.write::<u64>(r.start.add(base + i * 8), i).unwrap();
            }
        });
        let after = m.stats();
        assert_eq!(after.reads - before.reads, 400);
        assert_eq!(after.writes - before.writes, 400);
        assert_eq!(after.accesses - before.accesses, 800);
        assert_eq!(
            after.llc_read_hits + after.llc_read_misses
                - before.llc_read_hits
                - before.llc_read_misses,
            400
        );
    }

    #[test]
    fn scalar_encoding_round_trips() {
        fn check<T: Scalar + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = vec![0u8; T::SIZE];
            v.write_le_slice(&mut buf);
            assert_eq!(T::from_le_slice(&buf), v);
        }
        check(0xabu8);
        check(0xdead_beefu32);
        check(u64::MAX - 3);
        check(-5i32);
        check(-5_000_000_000i64);
        check(1.5f32);
        check(-2.25f64);
    }

    #[test]
    fn line_size_constant_consistent() {
        assert_eq!(crate::addr::LINE_SIZE, 64);
    }

    fn assert_clean(m: &mut Machine) {
        let violations = m.audit();
        assert!(violations.is_empty(), "audit violations: {violations:#?}");
    }

    /// An adopted array from slow frame 0: 2 MiB (huge mappings) plus a
    /// page and a half (a base run). Its 513 whole pages alias the buffer,
    /// through a staged migration and an `mbind` (whole pages change
    /// hands, flag and all, and nothing is copied); its last is a copy.
    /// Freeing it lets the buffer go, untouched.
    #[test]
    fn adoption_aliases_whole_chunks_through_migrations_and_free() {
        use crate::shard::CHUNK_SIZE;
        use crate::tier::READ_ONLY;
        use crate::tracked::TrackedVec;
        use std::sync::Arc;
        let mut m = machine();
        let words = ((2 << 20) + CHUNK_SIZE + CHUNK_SIZE / 2) / 8;
        let pattern = || (0..words as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let buffer: Arc<Vec<u64>> = Arc::new(pattern().collect());
        let v = TrackedVec::adopt(&mut m, Arc::clone(&buffer), Placement::Slow).unwrap();
        let aliased = |m: &Machine| {
            let flags = m.storage.dir.iter().flatten().flat_map(|leaf| leaf.flags);
            flags.filter(|&f| f & READ_ONLY != 0).count()
        };
        let copied = m.storage_copied_bytes();
        assert_eq!(copied, CHUNK_SIZE as u64 / 2, "the half page");
        let reads_back = |m: &mut Machine| {
            let mut tail = vec![0; 1000];
            v.read_slice(m, words - 1000, &mut tail);
            v.values(m).eq(pattern()) && tail[..] == buffer[words - 1000..]
        };
        assert_eq!(aliased(&m), 513);
        assert!(reads_back(&mut m));
        assert_clean(&mut m);

        let region = VirtRange::new(v.range().start, 2 << 20);
        let run = m.alloc_frames(TierId::FAST, 512).unwrap();
        m.copy_region_to_frames(region, TierId::FAST, run, 4)
            .unwrap();
        m.remap_region(region, TierId::FAST).unwrap();
        m.copy_frames_to_region(TierId::FAST, run, region, 4)
            .unwrap();
        m.free_frames(TierId::FAST, run);
        assert_eq!(m.resident_bytes(region, TierId::FAST), 2 << 20);
        assert_eq!(aliased(&m), 513, "the staged pages were handed over");
        assert!(reads_back(&mut m));
        assert_clean(&mut m);

        let whole = VirtRange::new(region.end(), CHUNK_SIZE);
        m.migrate_mbind(whole, TierId::FAST).unwrap();
        assert_eq!(aliased(&m), 513, "the mbind page was handed over");
        assert_eq!(
            m.storage_copied_bytes(),
            copied,
            "no migration copied a byte"
        );
        assert!(reads_back(&mut m));
        assert_clean(&mut m);

        v.free(&mut m).unwrap();
        assert_eq!(aliased(&m), 0);
        assert_eq!(Arc::strong_count(&buffer), 1);
        assert!(buffer.iter().copied().eq(pattern()));
        assert_clean(&mut m);
    }

    #[test]
    fn audit_clean_through_alloc_access_migrate_free() {
        let mut m = machine();
        assert_clean(&mut m);
        let r = m.alloc(2 * 1024 * 1024 + 4096, Placement::Slow).unwrap();
        for i in 0..64u64 {
            m.write::<u64>(r.start.add(i * 4096), i).unwrap();
        }
        assert_clean(&mut m);
        let aligned = VirtRange::new(r.start, 1024 * 1024);
        m.migrate_mbind(aligned, TierId::FAST).unwrap();
        assert_clean(&mut m);
        m.remap_region(aligned, TierId::SLOW).unwrap();
        assert_clean(&mut m);
        m.free(r).unwrap();
        assert_clean(&mut m);
    }

    #[test]
    fn residency_cache_tracks_tags_and_tiers() {
        let tagged = |m: &Machine, tag| -> usize {
            (0..m.num_tiers())
                .map(|t| m.resident_bytes_by_tag(tag, TierId::new(t)))
                .sum()
        };
        let mut m = machine();
        m.set_alloc_tag(7);
        let a = m.alloc(96 * 1024, Placement::Slow).unwrap();
        m.set_alloc_tag(9);
        let b = m.alloc(32 * 1024, Placement::Fast).unwrap();
        assert_eq!(m.resident_bytes_by_tag(7, TierId::SLOW), 96 * 1024);
        assert_eq!(m.resident_bytes_by_tag(7, TierId::FAST), 0);
        assert_eq!(m.resident_bytes_by_tag(9, TierId::FAST), 32 * 1024);
        assert_eq!(tagged(&m, 7), 96 * 1024);
        assert_clean(&mut m);
        m.remap_region(a, TierId::FAST).unwrap();
        assert_eq!(m.resident_bytes_by_tag(7, TierId::FAST), 96 * 1024);
        assert_eq!(m.resident_bytes_by_tag(7, TierId::SLOW), 0);
        assert_eq!(
            m.allocation_resident(a.start, TierId::FAST),
            Some(96 * 1024)
        );
        assert_clean(&mut m);
        m.free(b).unwrap();
        assert_eq!(tagged(&m, 9), 0);
        assert_eq!(m.resident_bytes_by_tag(9, TierId::FAST), 0);
        assert_clean(&mut m);
    }

    #[test]
    fn residency_cache_survives_mbind_splinters() {
        let mut m = machine();
        m.set_alloc_tag(3);
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        m.migrate_mbind(r, TierId::FAST).unwrap();
        assert_eq!(m.resident_bytes_by_tag(3, TierId::FAST), 64 * 1024);
        assert_eq!(m.resident_bytes_by_tag(3, TierId::SLOW), 0);
        assert_clean(&mut m);
    }

    #[test]
    fn sample_loss_fault_drops_drained_records() {
        let sampled = || {
            let mut m = machine();
            let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
            m.pebs_enable(4, 0);
            for i in 0..2048u64 {
                let _ = m.read::<u64>(r.start.add((i * 8) % (1024 * 1024))).unwrap();
            }
            m.pebs_disable();
            m
        };
        let buffered = sampled().pebs_drain().len();
        assert!(buffered > 8, "need samples to lose, got {buffered}");
        let mut m = sampled();
        m.set_fault_plan(Some(
            FaultPlan::new()
                .fail_at(FaultSite::SampleLoss, 0)
                .fail_at(FaultSite::SampleLoss, 2)
                .fail_at(FaultSite::SampleLoss, buffered as u64),
        ));
        let drained = m.pebs_drain().len();
        assert_eq!(drained, buffered - 2, "exactly two records dropped");
        let mut plan = m.fault_plan().unwrap().clone();
        assert_eq!(plan.injected().len(), 2);
        // One consult per buffered record: the next is number `buffered`.
        assert!(plan.should_fail(FaultSite::SampleLoss));
        assert_clean(&mut m);
    }

    #[test]
    fn audit_flags_a_planted_frame_leak() {
        let mut m = machine();
        let _r = m.alloc(64 * 1024, Placement::Fast).unwrap();
        assert_clean(&mut m);
        // Grab frames behind the registry's back: a genuine leak.
        m.tiers[TierId::FAST.index()].frames.alloc_run(4).unwrap();
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("frame leak")),
            "leak not flagged: {violations:#?}"
        );
    }

    #[test]
    fn audit_flags_planted_chunk_faults() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Fast).unwrap();
        assert_clean(&mut m);
        // A chunk backed behind the mapping table's back...
        let stray = FrameRun::new(1024, 4);
        m.storage.map_frames(TierId::SLOW, stray, false);
        let violations = m.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("[20, 0] frames are flagged mapped and pinned, the mappings and staged sources place [16, 0]")),
            "stray backing not flagged: {violations:#?}"
        );
        m.storage.unmap_frames(TierId::SLOW, stray);
        assert_clean(&mut m);
        // ...and mapped frames whose pages were released.
        let mapped = m.mappings_in(r)[0];
        let run = FrameRun::new(mapped.frame_start, mapped.pages);
        m.storage.unmap_frames(mapped.tier, run);
        let violations = m.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("is given but not flagged 0b1")),
            "unbacked mapping not flagged: {violations:#?}"
        );
        m.storage.map_frames(mapped.tier, run, false);
        assert_clean(&mut m);
    }

    #[test]
    fn audit_flags_stale_tlb_entries() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        let _ = m.read::<u64>(r.start).unwrap();
        assert_clean(&mut m);
        // Tear the mapping down without a shootdown (simulating the bug
        // class the auditor exists to catch).
        let info = m.allocations.remove(&r.start.raw()).unwrap();
        let full = VirtRange::new(info.range.start, info.pages * PAGE_SIZE);
        for mp in m.mappings.take_overlapping(full) {
            m.unmap_one(&mp);
        }
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("stale TLB")),
            "stale TLB entry not flagged: {violations:#?}"
        );
    }

    #[test]
    fn audit_flags_a_corrupt_tlb_index() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        for page in 0..4u64 {
            m.read::<u64>(r.start.add(page * PAGE_SIZE as u64)).unwrap();
        }
        assert_clean(&mut m);
        m.core.tlb.corrupt_for_test();
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("not hashed")),
            "corrupt TLB index not reported: {violations:#?}"
        );
    }

    #[test]
    fn audit_flags_a_corrupt_llc_order() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        let _ = m.read::<u64>(r.start).unwrap();
        assert_clean(&mut m);
        m.core.llc.corrupt_for_test();
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("not a permutation")),
            "corrupt LLC recency word not reported: {violations:#?}"
        );
    }

    #[test]
    fn audit_flags_a_corrupt_page_index() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        assert_clean(&mut m);
        m.mappings.corrupt_for_test(r.start.page_index() + 3);
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("not indexed")),
            "corrupt page index not reported: {violations:#?}"
        );
    }

    #[test]
    fn staging_alloc_fault_fails_cleanly() {
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::StagingAlloc, 0)));
        let err = m.alloc_frames(TierId::FAST, 4).unwrap_err();
        assert!(matches!(
            err,
            HmsError::OutOfMemory { .. } | HmsError::Fragmented { .. }
        ));
        assert!(m.outstanding_staging().is_empty());
        assert_clean(&mut m);
        // The next attempt (fault consumed) succeeds and is tracked.
        let run = m.alloc_frames(TierId::FAST, 4).unwrap();
        assert_eq!(m.outstanding_staging(), &[(TierId::FAST, run)]);
        m.free_frames(TierId::FAST, run);
        assert!(m.outstanding_staging().is_empty());
        assert_clean(&mut m);
    }

    #[test]
    fn remap_fault_leaves_region_intact() {
        let mut m = machine();
        let r = m.alloc(256 * 1024, Placement::Slow).unwrap();
        for i in 0..(256 * 1024 / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i ^ 0xa5a5).unwrap();
        }
        let before = m.mappings_in(r);
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Remap, 0)));
        let err = m.remap_region(r, TierId::FAST).unwrap_err();
        assert!(matches!(
            err,
            HmsError::OutOfMemory { .. } | HmsError::Fragmented { .. }
        ));
        assert_eq!(m.mappings_in(r), before, "mappings must be untouched");
        assert_eq!(m.resident_bytes(r, TierId::SLOW), 256 * 1024);
        for i in 0..(256 * 1024 / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i ^ 0xa5a5);
        }
        assert_clean(&mut m);
    }

    #[test]
    fn move_fault_copies_nothing() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        for i in 0..(64 * 1024 / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i).unwrap();
        }
        let staging = m.alloc_frames(TierId::FAST, 16).unwrap();
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Move, 0)));
        let err = m
            .copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap_err();
        assert_eq!(err, HmsError::FaultInjected(FaultSite::Move));
        m.free_frames(TierId::FAST, staging);
        for i in 0..(64 * 1024 / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i);
        }
        assert_clean(&mut m);
        assert_eq!(m.fault_plan().unwrap().injected(), &[(FaultSite::Move, 0)]);
    }

    /// A slow-tier region of `pages` pages holding `salt`-seeded words.
    fn filled(m: &mut Machine, pages: usize, salt: u64) -> VirtRange {
        let r = m.alloc(pages * PAGE_SIZE, Placement::Slow).unwrap();
        for i in 0..(r.len / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i ^ salt).unwrap();
        }
        r
    }

    fn assert_filled(m: &mut Machine, r: VirtRange, salt: u64) {
        for i in 0..(r.len / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i ^ salt);
        }
    }

    #[test]
    fn foreign_run_is_rejected() {
        let mut m = machine();
        let r = filled(&mut m, 16, 0x11);
        let staging = m.alloc_frames(TierId::FAST, 16).unwrap();
        // Never allocated, a sub-run of the staging run, the right frames
        // on the wrong tier, and the frames backing a mapping: none of
        // them is an outstanding staging run.
        let mapped = m.mappings_in(r)[0];
        let foreign = [
            (TierId::FAST, FrameRun::new(staging.start + 16, 16)),
            (TierId::FAST, FrameRun::new(staging.start, 8)),
            (TierId::SLOW, staging),
            (mapped.tier, FrameRun::new(mapped.frame_start, 16)),
        ];
        // A fault armed at the very next consult must stay unconsumed: a
        // rejected call reaches no gate and moves no clock.
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Move, 0)));
        let before = m.now();
        for (tier, run) in foreign {
            assert!(matches!(
                m.copy_region_to_frames(r, tier, run, 4),
                Err(HmsError::InvalidRange { .. })
            ));
            assert!(matches!(
                m.copy_frames_to_region(tier, run, r, 4),
                Err(HmsError::InvalidRange { .. })
            ));
        }
        assert_eq!(m.now(), before);
        assert!(m
            .fault_plan()
            .cloned()
            .unwrap()
            .should_fail(FaultSite::Move));
        m.set_fault_plan(None);
        m.free_frames(TierId::FAST, staging);
        assert_filled(&mut m, r, 0x11);
        assert_clean(&mut m);
    }

    #[test]
    fn replay_past_staged_bytes_is_rejected() {
        let mut m = machine();
        let big = filled(&mut m, 32, 0x22);
        let small = filled(&mut m, 8, 0x33);
        // A fresh run has nothing staged.
        let staging = m.alloc_frames(TierId::FAST, 32).unwrap();
        assert!(matches!(
            m.copy_frames_to_region(TierId::FAST, staging, big, 4),
            Err(HmsError::InvalidRange { .. })
        ));
        m.copy_region_to_frames(big, TierId::FAST, staging, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        // So has the next one, although its buffer is the one just
        // released and still holds all 32 pages of `big`.
        let staging = m.alloc_frames(TierId::FAST, 32).unwrap();
        assert!(matches!(
            m.copy_frames_to_region(TierId::FAST, staging, small, 4),
            Err(HmsError::InvalidRange { .. })
        ));
        // After staging 8 pages, 8 pages replay and 32 do not.
        m.copy_region_to_frames(small, TierId::FAST, staging, 4)
            .unwrap();
        assert!(matches!(
            m.copy_frames_to_region(TierId::FAST, staging, big, 4),
            Err(HmsError::InvalidRange { .. })
        ));
        m.copy_frames_to_region(TierId::FAST, staging, small, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        assert_filled(&mut m, big, 0x22);
        assert_filled(&mut m, small, 0x33);
        assert_clean(&mut m);
    }

    #[test]
    #[should_panic(expected = "not an outstanding staging run")]
    fn double_free_of_staging_panics() {
        let mut m = machine();
        let staging = m.alloc_frames(TierId::FAST, 4).unwrap();
        m.free_frames(TierId::FAST, staging);
        m.free_frames(TierId::FAST, staging);
    }

    #[test]
    #[should_panic(expected = "not an outstanding staging run")]
    fn free_frames_of_a_mapped_frame_panics() {
        let mut m = machine();
        let r = m.alloc(PAGE_SIZE, Placement::Slow).unwrap();
        let mapped = m.mappings_in(r)[0];
        m.free_frames(mapped.tier, FrameRun::new(mapped.frame_start, 1));
    }

    #[test]
    fn audit_flags_a_pinned_count_mismatch() {
        let mut m = machine();
        let r = filled(&mut m, 16, 0x44);
        let other = filled(&mut m, 4, 0x45);
        let staging = m.alloc_frames(TierId::FAST, 16).unwrap();
        m.copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap();
        assert_clean(&mut m);
        // A pin dropped behind the run's back (the frames are still mapped,
        // so they stay backed)...
        let source = m.staged_sources[0][0];
        m.storage.unpin(source);
        let violations = m.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("[20, 0] frames are flagged mapped and pinned, the mappings and staged sources place [20, 16]")),
            "dropped pin not flagged: {violations:#?}"
        );
        m.storage.pin(source);
        assert_clean(&mut m);
        // ...and a pin no run recorded.
        let stray = resolve_block(&m.mappings, other).unwrap()[0];
        m.storage.pin(stray);
        let violations = m.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("[20, 20] frames are flagged mapped and pinned, the mappings and staged sources place [20, 16]")),
            "stray pin not flagged: {violations:#?}"
        );
        m.storage.unpin(stray);
        m.remap_region(r, TierId::FAST).unwrap();
        assert_clean(&mut m);
        m.copy_frames_to_region(TierId::FAST, staging, r, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        assert_filled(&mut m, r, 0x44);
        assert_filled(&mut m, other, 0x45);
        assert_clean(&mut m);
    }

    /// A frame is staged by one run at a time: its page goes to that run's
    /// replay, so a second run could only replay what the first left
    /// behind. The refusal, like the ownership checks, comes before the
    /// fault gate and in optimized builds too. (Also run under `--release`
    /// by ci.sh.)
    #[test]
    fn staging_frames_another_run_has_staged_is_rejected() {
        let mut m = machine();
        let r = filled(&mut m, 16, 0x66);
        let first = m.alloc_frames(TierId::FAST, 16).unwrap();
        let second = m.alloc_frames(TierId::FAST, 16).unwrap();
        m.copy_region_to_frames(r, TierId::FAST, first, 4).unwrap();
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Move, 0)));
        let tail = VirtRange::new(r.start.add(8 * PAGE_SIZE as u64), 8 * PAGE_SIZE);
        assert!(matches!(
            m.copy_region_to_frames(tail, TierId::FAST, second, 4),
            Err(HmsError::InvalidRange { .. })
        ));
        assert!(m
            .fault_plan()
            .cloned()
            .unwrap()
            .should_fail(FaultSite::Move));
        m.set_fault_plan(None);
        // Staging into the run that holds the frames replaces what it held.
        m.copy_region_to_frames(tail, TierId::FAST, first, 4)
            .unwrap();
        m.copy_region_to_frames(r, TierId::FAST, first, 4).unwrap();
        assert_clean(&mut m);
        m.remap_region(r, TierId::FAST).unwrap();
        m.copy_frames_to_region(TierId::FAST, first, r, 4).unwrap();
        m.free_frames(TierId::FAST, first);
        m.free_frames(TierId::FAST, second);
        assert_filled(&mut m, r, 0x66);
        assert_clean(&mut m);
    }

    #[test]
    fn a_replay_consumes_the_staged_bytes() {
        let mut m = machine();
        let r = filled(&mut m, 16, 0x55);
        let staging = m.alloc_frames(TierId::FAST, 16).unwrap();
        m.copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap();
        m.remap_region(r, TierId::FAST).unwrap();
        m.copy_frames_to_region(TierId::FAST, staging, r, 4)
            .unwrap();
        let before = m.now();
        assert!(matches!(
            m.copy_frames_to_region(TierId::FAST, staging, r, 4),
            Err(HmsError::InvalidRange { .. })
        ));
        assert_eq!(m.now(), before);
        m.free_frames(TierId::FAST, staging);
        assert_filled(&mut m, r, 0x55);
        assert_clean(&mut m);
    }

    #[test]
    fn a_replay_carries_the_bytes_the_source_holds_at_replay_time() {
        let mut m = machine();
        let r = filled(&mut m, 16, 0x56);
        let staging = m.alloc_frames(TierId::FAST, 16).unwrap();
        m.copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap();
        // A write after staging (which ATMem, migrating with the
        // application stopped, never makes) reaches the destination.
        m.poke::<u64>(r.start.add(8), 0xFEED).unwrap();
        m.remap_region(r, TierId::FAST).unwrap();
        m.copy_frames_to_region(TierId::FAST, staging, r, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        assert_eq!(m.peek::<u64>(r.start.add(8)).unwrap(), 0xFEED);
        m.poke::<u64>(r.start.add(8), 1 ^ 0x56).unwrap();
        assert_filled(&mut m, r, 0x56);
        assert_clean(&mut m);
    }

    /// A machine with a one-chunk (64-frame) slow tier.
    fn small_slow_tier() -> Machine {
        Machine::new(Platform::testing().with_tier_capacities(&[4 << 20, 64 * PAGE_SIZE]))
    }

    #[test]
    fn rollback_onto_the_pinned_source_at_an_offset_keeps_the_data() {
        let mut m = small_slow_tier();
        let pad = m.alloc(PAGE_SIZE, Placement::Slow).unwrap();
        let r = filled(&mut m, 8, 0x77);
        let _rest = m.alloc(55 * PAGE_SIZE, Placement::Slow).unwrap();
        m.free(pad).unwrap();
        assert_eq!(m.mappings_in(r)[0].frame_start, 1);
        let staging = m.alloc_frames(TierId::FAST, 8).unwrap();
        m.copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap();
        m.remap_region(r, TierId::FAST).unwrap();
        // Stage 3 faults, and the rollback's remap lands one frame below
        // the pinned source: frames 0..8 for a source at 1..9.
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Move, 0)));
        assert_eq!(
            m.copy_frames_to_region(TierId::FAST, staging, r, 4),
            Err(HmsError::FaultInjected(FaultSite::Move))
        );
        m.set_fault_plan(None);
        m.remap_region(r, TierId::SLOW).unwrap();
        let back = m.mappings_in(r);
        assert_eq!((back.len(), back[0].frame_start), (1, 0));
        assert_clean(&mut m);
        m.copy_frames_to_region(TierId::FAST, staging, r, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        assert_filled(&mut m, r, 0x77);
        assert_clean(&mut m);
    }

    /// A machine whose slow tier is full but for the frames of a region
    /// staged to the fast tier and remapped there: free, and pinned.
    fn pinned_slow_frames() -> Machine {
        let mut m = small_slow_tier();
        let r = filled(&mut m, 8, 0x88);
        let _rest = m.alloc(56 * PAGE_SIZE, Placement::Slow).unwrap();
        let staging = m.alloc_frames(TierId::FAST, 8).unwrap();
        m.copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap();
        m.remap_region(r, TierId::FAST).unwrap();
        m
    }

    #[test]
    #[should_panic(expected = "a fresh allocation would overwrite pinned frames")]
    fn fresh_alloc_over_a_pinned_frame_panics() {
        let mut m = pinned_slow_frames();
        let _ = m.alloc(PAGE_SIZE, Placement::Slow);
    }

    #[test]
    #[should_panic(expected = "an mbind page copy would overwrite pinned frames")]
    fn mbind_copy_onto_a_pinned_frame_panics() {
        let mut m = pinned_slow_frames();
        let q = m.alloc(PAGE_SIZE, Placement::Fast).unwrap();
        let _ = m.migrate_mbind(q, TierId::SLOW);
    }

    #[test]
    fn stats_count_every_tier_and_staging_where_it_is_held() {
        let mut m = Machine::new(Platform::testing_three());
        let warm = TierId::new(1);
        let r = m.alloc(8 * PAGE_SIZE, Placement::Tier(warm)).unwrap();
        let cold = m.alloc(3 * PAGE_SIZE, Placement::Slow).unwrap();
        let page = PAGE_SIZE as u64;
        assert_eq!(m.stats().bytes_used[..4], [0, 8 * page, 3 * page, 0]);
        let staging = m.alloc_frames(warm, 5).unwrap();
        assert_eq!(m.stats().bytes_used[..4], [0, 13 * page, 3 * page, 0]);
        m.free_frames(warm, staging);
        m.remap_region(r, TierId::FAST).unwrap();
        assert_eq!(m.stats().bytes_used[..4], [8 * page, 0, 3 * page, 0]);
        m.free(cold).unwrap();
        assert_eq!(m.stats().bytes_used, [8 * page, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn mbind_oom_error_path_leaves_no_stale_tlb() {
        let mut m = machine();
        let fast_cap = m.capacity(TierId::FAST);
        let r = m.alloc(fast_cap + 8 * PAGE_SIZE, Placement::Slow).unwrap();
        let full = VirtRange::new(r.start, fast_cap + 8 * PAGE_SIZE);
        // Warm the TLB with huge-mapping entries over the whole range.
        for off in (0..full.len as u64).step_by(PAGE_SIZE) {
            let _ = m.read::<u8>(r.start.add(off)).unwrap();
        }
        let err = m.migrate_mbind(full, TierId::FAST).unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { .. }));
        // The splinter must not leave huge/coalesced TLB entries behind.
        assert_clean(&mut m);
        // Every page is still readable (prefix moved, remainder on slow).
        let last = full.start.add(full.len as u64 - 8);
        let _ = m.peek::<u64>(last).unwrap();
    }
}
