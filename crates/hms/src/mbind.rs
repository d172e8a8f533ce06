//! Baseline system-service migration (`mbind` / `move_pages` style).
//!
//! The paper's baseline migrates with the Linux NUMA system service, which
//! is single-threaded, blocking, and page-granular (§2.3). Two properties
//! matter for the comparison in Table 4:
//!
//! 1. **Low copy bandwidth** — one kernel thread moves pages one at a time,
//!    paying fixed bookkeeping per page, and cannot saturate the link.
//! 2. **TLB splintering** — pages are moved individually onto whatever
//!    frames are free, so a 2 MiB huge mapping is broken into 512 scattered
//!    base mappings, each needing its own TLB entry (and its own shootdown
//!    during the move). The application's post-migration TLB miss rate
//!    explodes.

use crate::addr::{VirtRange, PAGE_SIZE};
use crate::cost::SimDuration;
use crate::error::{HmsError, Result};
use crate::frame::FrameRun;
use crate::machine::{Machine, MigrationReport};
use crate::mapping::{Mapping, PageKind};
use crate::tier::TierId;

/// Fixed cost of one system-service invocation (syscall entry, VMA lookup,
/// policy checks), nanoseconds.
const MBIND_CALL_OVERHEAD_NS: f64 = 5_000.0;

impl Machine {
    /// Migrates the page-aligned `range` to `dst_tier` with the simulated
    /// system service.
    ///
    /// Pages already on `dst_tier` are left in place (but their mappings are
    /// still splintered, as `mbind` revalidates the whole range). Returns a
    /// report with the simulated migration time.
    ///
    /// # Errors
    ///
    /// [`HmsError::InvalidRange`] for unaligned or empty ranges,
    /// [`HmsError::Unmapped`] for holes, and
    /// [`HmsError::OutOfMemory`] when `dst_tier` cannot hold the range
    /// (pages moved so far stay moved, as with the real service).
    pub fn migrate_mbind(&mut self, range: VirtRange, dst_tier: TierId) -> Result<MigrationReport> {
        if range.len == 0 || range.start.page_offset() != 0 || !range.len.is_multiple_of(PAGE_SIZE)
        {
            return Err(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            });
        }
        self.split_mappings_at(range);
        let maps = self.mappings_in(range);
        let covered: usize = maps.iter().map(|m| m.pages as usize * PAGE_SIZE).sum();
        if covered != range.len {
            return Err(HmsError::Unmapped(range.start));
        }

        let mbind_bw = self.platform().mbind_copy_bw;
        let page_overhead = self.platform().mbind_page_overhead_ns;

        // Fixed syscall entry + VMA walk per invocation.
        let mut total_ns = MBIND_CALL_OVERHEAD_NS;
        let mut moved_pages = 0usize;
        let mut moved_bytes = 0usize;
        let mut mappings_after = 0usize;
        // Source frames freed so far, back-invalidated in the LLC in one
        // pass before the call returns: nothing touches the LLC in between,
        // and vacating lines commutes, so the cache ends as if each page
        // had been invalidated as it went.
        let mut freed: Vec<(TierId, FrameRun)> = Vec::new();

        for mapping in maps {
            let src_tier = mapping.tier;
            let mut new_maps: Vec<Mapping> = Vec::with_capacity(mapping.pages as usize);
            for p in 0..mapping.pages {
                let vpage = mapping.vpage_start + p as u64;
                let src_frame = mapping.frame_start + p;
                // Every page crosses the per-page migratability status
                // check (`move_pages` can report a per-page error). A
                // faulted check leaves the page where it is — splintered
                // like every other page — at status-check cost only.
                let status_failed = self.fault_fires(crate::fault::FaultSite::PageStatus);
                if src_tier == dst_tier || status_failed {
                    // Page already resident (or unmovable): revalidated
                    // but not copied.
                    new_maps.push(Mapping {
                        vpage_start: vpage,
                        pages: 1,
                        tier: src_tier,
                        frame_start: src_frame,
                        kind: PageKind::Base4K,
                    });
                    total_ns += page_overhead * 0.25; // status check only
                    continue;
                }
                let dst_frame = match self.move_page_frame(src_tier, src_frame, dst_tier) {
                    Ok(frame) => frame,
                    Err(e) => {
                        // Out of destination memory mid-stream: commit what
                        // moved, restore the rest as base mappings on src.
                        for q in p..mapping.pages {
                            new_maps.push(Mapping {
                                vpage_start: mapping.vpage_start + q as u64,
                                pages: 1,
                                tier: src_tier,
                                frame_start: mapping.frame_start + q,
                                kind: PageKind::Base4K,
                            });
                        }
                        self.finish_mbind_mapping(&mapping, new_maps, &mut mappings_after);
                        self.invalidate_llc_frames(&freed);
                        // Earlier mappings were already splintered, so the
                        // error path needs the same range shootdown as the
                        // happy path — stale huge/coalesced TLB entries must
                        // not survive the splinter.
                        self.invalidate_tlb_range(range);
                        self.advance_clock(SimDuration::from_ns(total_ns));
                        self.note_migrated(moved_bytes);
                        return Err(e);
                    }
                };
                freed.push((src_tier, FrameRun::new(src_frame, 1)));
                new_maps.push(Mapping {
                    vpage_start: vpage,
                    pages: 1,
                    tier: dst_tier,
                    frame_start: dst_frame,
                    kind: PageKind::Base4K,
                });
                // Copy time: single kernel thread, bounded by the slowest
                // of service bandwidth, source read, destination write, and
                // the per-pair interconnect cap (infinite on two-tier
                // presets).
                let link = self.platform().link_cap(src_tier, dst_tier);
                let src_spec = &self.tier_ref(src_tier).spec;
                let dst_spec = &self.tier_ref(dst_tier).spec;
                let bw = mbind_bw
                    .min(src_spec.read_bw)
                    .min(dst_spec.write_bw)
                    .min(link);
                total_ns += PAGE_SIZE as f64 / bw + page_overhead;
                moved_pages += 1;
                moved_bytes += PAGE_SIZE;
            }
            self.finish_mbind_mapping(&mapping, new_maps, &mut mappings_after);
        }

        self.invalidate_llc_frames(&freed);
        // One shootdown per page unit (included in page_overhead) plus the
        // final range invalidation.
        self.invalidate_tlb_range(range);
        self.advance_clock(SimDuration::from_ns(total_ns));
        self.note_migrated(moved_bytes);
        Ok(MigrationReport {
            bytes: moved_bytes,
            pages: moved_pages,
            time: SimDuration::from_ns(total_ns),
            mappings_after,
        })
    }

    fn finish_mbind_mapping(
        &mut self,
        old: &Mapping,
        new_maps: Vec<Mapping>,
        mappings_after: &mut usize,
    ) {
        *mappings_after += new_maps.len();
        self.replace_mapping(old.vpage_start, new_maps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Placement;
    use crate::platform::Platform;
    use crate::shard::MemPort;

    fn setup(bytes: usize) -> (Machine, VirtRange) {
        let mut m = Machine::new(Platform::testing());
        let r = m.alloc(bytes, Placement::Slow).unwrap();
        for i in 0..(bytes / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i ^ 0x5555).unwrap();
        }
        (m, r)
    }

    #[test]
    fn mbind_moves_data_correctly() {
        let (mut m, r) = setup(2 * 1024 * 1024);
        let full = VirtRange::new(r.start, 2 * 1024 * 1024);
        let report = m.migrate_mbind(full, TierId::FAST).unwrap();
        assert_eq!(report.pages, 512);
        assert_eq!(m.resident_bytes(full, TierId::FAST), 2 * 1024 * 1024);
        for i in 0..(2 * 1024 * 1024 / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i ^ 0x5555);
        }
    }

    #[test]
    fn mbind_splinters_huge_mappings() {
        let (mut m, r) = setup(2 * 1024 * 1024);
        let full = VirtRange::new(r.start, 2 * 1024 * 1024);
        assert!(m
            .mappings_in(full)
            .iter()
            .any(|mp| mp.kind == PageKind::Huge2M));
        let report = m.migrate_mbind(full, TierId::FAST).unwrap();
        assert_eq!(report.mappings_after, 512);
        assert!(m
            .mappings_in(full)
            .iter()
            .all(|mp| mp.kind == PageKind::Base4K && mp.pages == 1));
    }

    #[test]
    fn mbind_takes_time_and_counts_bytes() {
        let (mut m, r) = setup(1024 * 1024);
        let before = m.now();
        let full = VirtRange::new(r.start, 1024 * 1024);
        let report = m.migrate_mbind(full, TierId::FAST).unwrap();
        assert!(report.time.as_ns() > 0.0);
        assert!(m.now() > before);
        assert_eq!(m.stats().bytes_migrated, 1024 * 1024);
    }

    #[test]
    fn mbind_unaligned_range_rejected() {
        let (mut m, r) = setup(8192);
        let bad = VirtRange::new(r.start.add(1), 4096);
        assert!(matches!(
            m.migrate_mbind(bad, TierId::FAST),
            Err(HmsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn mbind_oom_moves_prefix_only() {
        let mut m = Machine::new(Platform::testing());
        let fast_cap = m.capacity(TierId::FAST);
        // Allocation larger than the fast tier.
        let r = m.alloc(fast_cap + 8 * PAGE_SIZE, Placement::Slow).unwrap();
        let full = VirtRange::new(r.start, fast_cap + 8 * PAGE_SIZE);
        let err = m.migrate_mbind(full, TierId::FAST).unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { .. }));
        // The prefix did move.
        assert!(m.resident_bytes(full, TierId::FAST) > 0);
        // And translation still works everywhere, including the last word.
        let last = full.start.add(full.len as u64 - 8);
        let _ = m.peek::<u64>(last).unwrap();
    }

    #[test]
    fn page_status_fault_leaves_page_on_source() {
        use crate::fault::{FaultPlan, FaultSite};
        let (mut m, r) = setup(64 * 1024); // 16 pages
        let full = VirtRange::new(r.start, 64 * 1024);
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::PageStatus, 3)));
        let report = m.migrate_mbind(full, TierId::FAST).unwrap();
        assert_eq!(report.pages, 15, "one page must stay behind");
        assert_eq!(m.resident_bytes(full, TierId::SLOW), PAGE_SIZE);
        assert_eq!(m.resident_bytes(full, TierId::FAST), full.len - PAGE_SIZE);
        // Data intact everywhere, including the unmoved page.
        for i in 0..(full.len / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i ^ 0x5555);
        }
        assert_eq!(m.fault_plan().unwrap().injected().len(), 1);
        let violations = m.audit();
        assert!(violations.is_empty(), "audit violations: {violations:#?}");
    }

    #[test]
    fn mbind_same_tier_is_cheap_but_splinters() {
        let (mut m, r) = setup(2 * 1024 * 1024);
        let full = VirtRange::new(r.start, 2 * 1024 * 1024);
        let report = m.migrate_mbind(full, TierId::SLOW).unwrap();
        assert_eq!(report.pages, 0, "no pages should move tier");
        assert_eq!(report.mappings_after, 512, "mappings still splinter");
    }
}
