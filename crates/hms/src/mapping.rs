//! Virtual-to-physical mapping table.
//!
//! Every mapped virtual region is described by a [`Mapping`]: a run of
//! virtually contiguous 4 KiB pages backed by *physically contiguous* frames
//! on one tier. A mapping is either a 2 MiB huge mapping (512 pages, one TLB
//! entry) or a base mapping of one or more 4 KiB pages (one TLB entry per
//! page).
//!
//! The `mbind` baseline migration *splinters* huge mappings into per-page
//! base mappings with scattered frames — this is the source of its post-
//! migration TLB blowup (paper §2.3, Table 4). The ATMem optimizer instead
//! *remaps* whole regions to fresh contiguous frames, recreating huge
//! mappings where alignment permits (§4.4).

use crate::addr::{Frame, VirtAddr, VirtRange, HUGE_PAGE_FRAMES, PAGE_SHIFT};
use crate::error::{HmsError, Result};
use crate::tier::TierId;

/// Granularity of one mapping, which determines TLB reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// 4 KiB pages: one TLB entry per page.
    Base4K,
    /// A 2 MiB huge mapping: one TLB entry covers all 512 pages.
    Huge2M,
}

/// One contiguous virtual→physical mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// First virtual page index covered.
    pub vpage_start: u64,
    /// Number of 4 KiB pages covered.
    pub pages: u32,
    /// Tier holding the backing frames.
    pub tier: TierId,
    /// First frame index; frames are contiguous within a mapping.
    pub frame_start: u32,
    /// Mapping granularity.
    pub kind: PageKind,
}

impl Mapping {
    /// Virtual byte range covered by the mapping.
    pub fn vrange(&self) -> VirtRange {
        VirtRange::new(
            VirtAddr::new(self.vpage_start << PAGE_SHIFT),
            (self.pages as usize) << PAGE_SHIFT,
        )
    }

    /// Translates a virtual address inside this mapping to its frame and
    /// in-frame offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `va` is outside the mapping.
    pub fn translate(&self, va: VirtAddr) -> (Frame, usize) {
        let vpage = va.page_index();
        debug_assert!(
            vpage >= self.vpage_start && vpage < self.vpage_start + self.pages as u64,
            "translate outside mapping"
        );
        let frame_index = self.frame_start + (vpage - self.vpage_start) as u32;
        (Frame::new(self.tier, frame_index), va.page_offset())
    }

    /// The TLB key for an access at `va` under this mapping.
    ///
    /// Huge mappings share one key per 2 MiB unit. Base mappings normally
    /// take one key per page, but when the platform models TLB coalescing
    /// (`coalesce > 1`, as KNL-class cores do for physically contiguous
    /// neighbouring pages) a group of `coalesce` pages that is *fully
    /// covered by one mapping* shares a key — contiguous remapped regions
    /// coalesce, `mbind`-splintered per-page mappings do not. Kind and
    /// grouping are tag-encoded so keys never alias across granularities.
    pub fn tlb_key(&self, va: VirtAddr, coalesce: usize) -> u64 {
        let vpage = va.page_index();
        match self.kind {
            PageKind::Huge2M => {
                let unit = vpage / HUGE_PAGE_FRAMES as u64;
                (unit << 2) | 2
            }
            PageKind::Base4K => {
                if coalesce > 1 {
                    let group = vpage / coalesce as u64;
                    let group_start = group * coalesce as u64;
                    let group_end = group_start + coalesce as u64;
                    if self.vpage_start <= group_start
                        && group_end <= self.vpage_start + self.pages as u64
                    {
                        return (group << 2) | 1;
                    }
                }
                vpage << 2
            }
        }
    }

    /// Number of TLB entries required to cover the whole mapping, given the
    /// platform's coalescing factor (1 = none).
    pub fn tlb_entry_count(&self, coalesce: usize) -> usize {
        match self.kind {
            PageKind::Huge2M => (self.pages as usize).div_ceil(HUGE_PAGE_FRAMES),
            PageKind::Base4K => {
                if coalesce > 1 {
                    // Whole groups covered by the mapping coalesce; edge
                    // pages outside full groups take one entry each.
                    let start = self.vpage_start;
                    let end = start + self.pages as u64;
                    let first_full = start.next_multiple_of(coalesce as u64);
                    let last_full = (end / coalesce as u64) * coalesce as u64;
                    if first_full < last_full {
                        let groups = ((last_full - first_full) / coalesce as u64) as usize;
                        let head = (first_full - start) as usize;
                        let tail = (end - last_full) as usize;
                        groups + head + tail
                    } else {
                        self.pages as usize
                    }
                } else {
                    self.pages as usize
                }
            }
        }
    }
}

/// Widest span of virtual pages the page index may cover: 1 TiB of address
/// space, a 1 GiB index. Far beyond what the bump allocator hands out in any
/// run that fits host memory, so a mapping this far from the others is a
/// stray address, not an allocation.
const MAX_INDEX_PAGES: u64 = 1 << 28;

/// The machine-wide mapping table.
///
/// Mappings never overlap and live in a slab; a dense page index
/// (`vpage - base → slab slot`) makes [`lookup_page`](Self::lookup_page)
/// two loads however fragmented the table is — after `mbind` splinters a
/// 64 MiB array into 16 k single-page mappings exactly as before it.
/// Address order needs no second structure: walking the index and jumping
/// over each mapping's pages visits the mappings in order.
///
/// The index spans the lowest to the highest page ever mapped at 4 bytes
/// per 4 KiB page (0.1 % of the address span). Virtual addresses come from
/// the machine's bump allocator, so that span is the sum of all
/// allocations made plus their 2 MiB guard gaps; it never shrinks, and
/// `insert` refuses a mapping that would stretch it past 2^28 pages (1 TiB
/// of addresses, a 1 GiB index).
#[derive(Debug, Default)]
pub(crate) struct MappingTable {
    /// Mapping slab; vacant slots have `pages == 0` and sit on `free`.
    slab: Vec<Mapping>,
    free: Vec<u32>,
    /// `index[vpage - base]` is the slab slot + 1 of the mapping covering
    /// `vpage`, 0 where nothing is mapped.
    index: Vec<u32>,
    base: u64,
}

impl MappingTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        MappingTable::default()
    }

    /// Number of mappings in the table.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the table has no mappings.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grows the page index to span `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the index would span more than [`MAX_INDEX_PAGES`].
    fn cover(&mut self, lo: u64, hi: u64) {
        let (base, end) = if self.index.is_empty() {
            (lo, hi)
        } else {
            (
                lo.min(self.base),
                hi.max(self.base + self.index.len() as u64),
            )
        };
        assert!(
            end - base <= MAX_INDEX_PAGES,
            "mapping at vpage {lo:#x} would stretch the page index over {} pages",
            end - base
        );
        if !self.index.is_empty() && base < self.base {
            let grow = (self.base - base) as usize;
            self.index.splice(0..0, std::iter::repeat_n(0, grow));
        }
        self.base = base;
        self.index.resize((end - base) as usize, 0);
    }

    /// Inserts a mapping.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is empty or overlaps an existing one — in
    /// release builds too: a second mapping of a page would silently
    /// redirect its translations.
    pub(crate) fn insert(&mut self, m: Mapping) {
        assert!(m.pages > 0, "empty mapping inserted");
        let end = m.vpage_start + m.pages as u64;
        assert!(
            self.walk(m.vpage_start, end - 1).next().is_none(),
            "overlapping mapping inserted at vpage {:#x}",
            m.vpage_start
        );
        self.cover(m.vpage_start, end);
        let lo = (m.vpage_start - self.base) as usize;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = m;
                slot
            }
            None => {
                self.slab.push(m);
                u32::try_from(self.slab.len() - 1).expect("mapping slab exceeds u32 slots")
            }
        };
        self.index[lo..lo + m.pages as usize].fill(slot + 1);
    }

    /// Removes and returns the mapping starting exactly at `vpage_start`.
    pub(crate) fn remove(&mut self, vpage_start: u64) -> Option<Mapping> {
        let m = *self.lookup_page(vpage_start)?;
        if m.vpage_start != vpage_start {
            return None;
        }
        let lo = (vpage_start - self.base) as usize;
        let slot = self.index[lo] - 1;
        self.index[lo..lo + m.pages as usize].fill(0);
        self.slab[slot as usize].pages = 0;
        self.free.push(slot);
        Some(m)
    }

    /// Finds the mapping containing virtual page `vpage`.
    #[inline]
    pub(crate) fn lookup_page(&self, vpage: u64) -> Option<&Mapping> {
        match *self.index.get(vpage.wrapping_sub(self.base) as usize)? {
            0 => None,
            slot => Some(&self.slab[slot as usize - 1]),
        }
    }

    /// Finds the mapping containing `va`.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if no mapping covers `va`.
    #[inline]
    pub(crate) fn lookup(&self, va: VirtAddr) -> Result<Mapping> {
        self.lookup_page(va.page_index())
            .copied()
            .ok_or(HmsError::Unmapped(va))
    }

    /// The mappings covering any page in `first..=last`, in address order.
    fn walk(&self, first: u64, last: u64) -> impl Iterator<Item = &Mapping> {
        let end = match last.checked_sub(self.base) {
            Some(d) => d.saturating_add(1).min(self.index.len() as u64),
            None => 0,
        };
        let mut i = first.saturating_sub(self.base);
        std::iter::from_fn(move || {
            while i < end {
                let slot = self.index[i as usize];
                i += 1;
                if slot != 0 {
                    let m = &self.slab[slot as usize - 1];
                    // Jump over the mapping's remaining pages (never
                    // backwards, so a corrupt index cannot stall the audit).
                    i = i.max((m.vpage_start + m.pages as u64).saturating_sub(self.base));
                    return Some(m);
                }
            }
            None
        })
    }

    /// Returns all mappings overlapping the byte range, in address order.
    pub(crate) fn overlapping(&self, range: VirtRange) -> Vec<Mapping> {
        if range.len == 0 {
            return Vec::new();
        }
        let last_page = (range.end().raw() - 1) >> PAGE_SHIFT;
        self.walk(range.start.page_index(), last_page)
            .copied()
            .collect()
    }

    /// Removes every mapping overlapping `range`, returning them.
    ///
    /// Mappings must be fully contained in `range` (the simulator only
    /// migrates page-aligned regions); partial overlap is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if an overlapping mapping extends outside `range`.
    pub(crate) fn take_overlapping(&mut self, range: VirtRange) -> Vec<Mapping> {
        let found = self.overlapping(range);
        for m in &found {
            assert!(
                m.vrange().start >= range.start && m.vrange().end() <= range.end(),
                "mapping {:?} partially overlaps migration range {range}",
                m
            );
            self.remove(m.vpage_start);
        }
        found
    }

    /// Iterates over all mappings in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Mapping> {
        self.walk(self.base, u64::MAX)
    }

    /// Structural self-check for [`Machine::audit`](crate::Machine::audit):
    /// the page index and the slab must describe the same mappings — every
    /// live mapping indexed on exactly its own pages, every index entry
    /// naming a live mapping that covers it. Returns the violations found.
    pub(crate) fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut live = 0usize;
        let mut live_pages = 0usize;
        for (slot, m) in self.slab.iter().enumerate() {
            if m.pages == 0 {
                continue;
            }
            live += 1;
            live_pages += m.pages as usize;
            let indexed = (m.vpage_start..m.vpage_start + m.pages as u64).all(|p| {
                p.checked_sub(self.base)
                    .and_then(|i| self.index.get(i as usize))
                    .is_some_and(|&s| s as usize == slot + 1)
            });
            if !indexed {
                violations.push(format!(
                    "mapping at vpage {:#x} is not indexed on all of its pages",
                    m.vpage_start
                ));
            }
        }
        let indexed_pages = self.index.iter().filter(|&&s| s != 0).count();
        if indexed_pages != live_pages {
            violations.push(format!(
                "page index names {indexed_pages} pages, live mappings cover {live_pages}"
            ));
        }
        if live + self.free.len() != self.slab.len() {
            violations.push(format!(
                "mapping slab drift: {live} live + {} vacant of {} slots",
                self.free.len(),
                self.slab.len()
            ));
        }
        let walked = self.iter().count();
        if walked != live {
            violations.push(format!(
                "address-order walk visits {walked} mappings, the slab holds {live}"
            ));
        }
        violations
    }

    /// Points the index entry of `vpage` at nothing, leaving its mapping in
    /// the slab (the planted fault the audit tests expect
    /// [`check`](Self::check) to report).
    #[cfg(test)]
    pub(crate) fn corrupt_for_test(&mut self, vpage: u64) {
        self.index[(vpage - self.base) as usize] = 0;
    }
}

/// Splits `m` at virtual page `at_vpage` (strictly inside the mapping),
/// returning the pieces before and after the split point.
///
/// Base mappings split into two base mappings (frames stay contiguous).
/// Huge mappings keep 2 MiB units that remain whole on either side; the
/// unit containing an unaligned split point is demoted to base pages — the
/// same demotion real transparent-huge-page kernels perform when a partial
/// range is remapped.
///
/// # Panics
///
/// Panics if `at_vpage` is not strictly inside the mapping.
pub(crate) fn split_mapping(m: &Mapping, at_vpage: u64) -> (Vec<Mapping>, Vec<Mapping>) {
    assert!(
        at_vpage > m.vpage_start && at_vpage < m.vpage_start + m.pages as u64,
        "split point {at_vpage} not inside mapping"
    );
    let piece = |vpage_start: u64, pages: u64, kind: PageKind| Mapping {
        vpage_start,
        pages: pages as u32,
        tier: m.tier,
        frame_start: m.frame_start + (vpage_start - m.vpage_start) as u32,
        kind,
    };
    let end = m.vpage_start + m.pages as u64;
    match m.kind {
        PageKind::Base4K => (
            vec![piece(
                m.vpage_start,
                at_vpage - m.vpage_start,
                PageKind::Base4K,
            )],
            vec![piece(at_vpage, end - at_vpage, PageKind::Base4K)],
        ),
        PageKind::Huge2M => {
            let unit = HUGE_PAGE_FRAMES as u64;
            debug_assert_eq!(m.vpage_start % unit, 0);
            debug_assert_eq!(m.pages as u64 % unit, 0);
            let unit_lo = (at_vpage / unit) * unit; // unit containing the cut
            let unit_hi = unit_lo + unit;
            let mut left = Vec::new();
            let mut right = Vec::new();
            if unit_lo > m.vpage_start {
                left.push(piece(
                    m.vpage_start,
                    unit_lo - m.vpage_start,
                    PageKind::Huge2M,
                ));
            }
            if at_vpage == unit_lo {
                // Aligned cut: both sides keep whole huge units.
                right.push(piece(at_vpage, end - at_vpage, PageKind::Huge2M));
            } else {
                // The broken unit demotes to base pages on both sides.
                left.push(piece(unit_lo, at_vpage - unit_lo, PageKind::Base4K));
                right.push(piece(at_vpage, unit_hi - at_vpage, PageKind::Base4K));
                if end > unit_hi {
                    right.push(piece(unit_hi, end - unit_hi, PageKind::Huge2M));
                }
            }
            (left, right)
        }
    }
}

/// Returns true when a region of `pages` pages starting at virtual page
/// `vpage_start` can use at least one huge mapping.
pub(crate) fn huge_eligible(vpage_start: u64, pages: usize) -> bool {
    vpage_start.is_multiple_of(HUGE_PAGE_FRAMES as u64) && pages >= HUGE_PAGE_FRAMES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use atmem_prop::prelude::*;
    use std::collections::BTreeMap;

    fn m(vpage: u64, pages: u32, frame: u32, kind: PageKind) -> Mapping {
        Mapping {
            vpage_start: vpage,
            pages,
            tier: TierId::SLOW,
            frame_start: frame,
            kind,
        }
    }

    #[test]
    fn lookup_finds_containing_mapping() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        t.insert(m(64, 512, 512, PageKind::Huge2M));
        let got = t.lookup(VirtAddr::new(20 << PAGE_SHIFT)).unwrap();
        assert_eq!(got.frame_start, 100);
        let got = t.lookup(VirtAddr::new((64 + 511) << PAGE_SHIFT)).unwrap();
        assert_eq!(got.kind, PageKind::Huge2M);
        assert!(t.lookup(VirtAddr::new(24 << PAGE_SHIFT)).is_err());
    }

    #[test]
    fn translate_is_contiguous_within_mapping() {
        let map = m(16, 8, 100, PageKind::Base4K);
        let (f, off) = map.translate(VirtAddr::new((18 << PAGE_SHIFT) + 7));
        assert_eq!(f.index, 102);
        assert_eq!(off, 7);
    }

    #[test]
    fn tlb_keys_distinguish_kinds() {
        let unit = HUGE_PAGE_FRAMES as u64;
        let huge = m(unit * 8, HUGE_PAGE_FRAMES as u32, 0, PageKind::Huge2M);
        let base = m(unit * 8, HUGE_PAGE_FRAMES as u32, 0, PageKind::Base4K);
        let va = VirtAddr::new((unit * 8) << PAGE_SHIFT);
        assert_ne!(huge.tlb_key(va, 1), base.tlb_key(va, 1));
        // All pages of a huge mapping share one key.
        let va2 = VirtAddr::new((unit * 8 + unit - 1) << PAGE_SHIFT);
        assert_eq!(huge.tlb_key(va, 1), huge.tlb_key(va2, 1));
        assert_ne!(base.tlb_key(va, 1), base.tlb_key(va2, 1));
        // Coalescing groups contiguous pages of one mapping.
        assert_eq!(
            base.tlb_key(va, 8),
            base.tlb_key(VirtAddr::new((unit * 8 + 7) << PAGE_SHIFT), 8)
        );
        assert_ne!(
            base.tlb_key(va, 8),
            base.tlb_key(VirtAddr::new((unit * 8 + 8) << PAGE_SHIFT), 8)
        );
        // A single-page mapping never coalesces.
        let single = m(unit * 8, 1, 0, PageKind::Base4K);
        assert_ne!(single.tlb_key(va, 8), base.tlb_key(va, 8));
    }

    #[test]
    fn tlb_entry_counts() {
        let unit = HUGE_PAGE_FRAMES as u32;
        assert_eq!(m(0, unit, 0, PageKind::Huge2M).tlb_entry_count(1), 1);
        assert_eq!(m(0, 4 * unit, 0, PageKind::Huge2M).tlb_entry_count(1), 4);
        assert_eq!(m(0, 512, 0, PageKind::Base4K).tlb_entry_count(1), 512);
        assert_eq!(m(0, 3, 0, PageKind::Base4K).tlb_entry_count(1), 3);
        // Coalescing: 512 contiguous pages at factor 8 -> 64 entries.
        assert_eq!(m(0, 512, 0, PageKind::Base4K).tlb_entry_count(8), 64);
        // Unaligned head/tail pages count individually: [3, 20) at 8
        // -> head 8-3=5, one full group [8,16), tail 20-16=4 -> 10.
        assert_eq!(m(3, 17, 0, PageKind::Base4K).tlb_entry_count(8), 10);
        // Too short to cover any group.
        assert_eq!(m(1, 4, 0, PageKind::Base4K).tlb_entry_count(8), 4);
    }

    #[test]
    fn overlapping_returns_in_order() {
        let mut t = MappingTable::new();
        t.insert(m(0, 4, 0, PageKind::Base4K));
        t.insert(m(4, 4, 8, PageKind::Base4K));
        t.insert(m(8, 4, 16, PageKind::Base4K));
        let r = VirtRange::new(VirtAddr::new(1 << PAGE_SHIFT), 8 * PAGE_SIZE);
        let got = t.overlapping(r);
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].vpage_start < w[1].vpage_start));
    }

    #[test]
    fn take_overlapping_removes() {
        let mut t = MappingTable::new();
        t.insert(m(0, 4, 0, PageKind::Base4K));
        t.insert(m(4, 4, 8, PageKind::Base4K));
        let r = VirtRange::new(VirtAddr::new(0), 8 * PAGE_SIZE);
        let got = t.take_overlapping(r);
        assert_eq!(got.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn huge_eligibility() {
        let unit = HUGE_PAGE_FRAMES;
        assert!(huge_eligible(0, unit));
        assert!(huge_eligible(unit as u64, 2 * unit));
        assert!(!huge_eligible(1, unit));
        assert!(!huge_eligible(0, unit - 1));
    }

    #[test]
    fn split_base_mapping_keeps_frame_contiguity() {
        let base = m(16, 8, 100, PageKind::Base4K);
        let (l, r) = split_mapping(&base, 19);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(
            (l[0].vpage_start, l[0].pages, l[0].frame_start),
            (16, 3, 100)
        );
        assert_eq!(
            (r[0].vpage_start, r[0].pages, r[0].frame_start),
            (19, 5, 103)
        );
        assert_eq!(l[0].kind, PageKind::Base4K);
    }

    #[test]
    fn split_huge_mapping_aligned_keeps_huge() {
        let unit = HUGE_PAGE_FRAMES as u64;
        let huge = m(0, 2 * HUGE_PAGE_FRAMES as u32, 0, PageKind::Huge2M);
        let (l, r) = split_mapping(&huge, unit);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(l[0].kind, PageKind::Huge2M);
        assert_eq!(r[0].kind, PageKind::Huge2M);
        assert_eq!(r[0].frame_start, HUGE_PAGE_FRAMES as u32);
    }

    #[test]
    fn split_huge_mapping_unaligned_demotes_broken_unit() {
        let unit = HUGE_PAGE_FRAMES as u64;
        // Three huge units, cut 1.5 units in (inside the middle unit).
        let pages = 3 * HUGE_PAGE_FRAMES as u32;
        let cut = unit + unit / 2 + 3;
        let huge = m(0, pages, 0, PageKind::Huge2M);
        let (l, r) = split_mapping(&huge, cut);
        // Left: huge [0,unit) + base [unit,cut). Right: base [cut,2*unit) +
        // huge [2*unit,3*unit).
        assert_eq!(l.len(), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(l[0].kind, PageKind::Huge2M);
        assert_eq!((l[1].vpage_start, l[1].pages as u64), (unit, cut - unit));
        assert_eq!(l[1].kind, PageKind::Base4K);
        assert_eq!((r[0].vpage_start, r[0].pages as u64), (cut, 2 * unit - cut));
        assert_eq!(r[0].kind, PageKind::Base4K);
        assert_eq!(r[1].kind, PageKind::Huge2M);
        // Pieces tile the original and keep frame offsets.
        let total: u32 = l.iter().chain(&r).map(|p| p.pages).sum();
        assert_eq!(total, pages);
        for p in l.iter().chain(&r) {
            assert_eq!(p.frame_start as u64, p.vpage_start, "identity layout");
        }
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn split_at_start_panics() {
        let base = m(16, 8, 100, PageKind::Base4K);
        let _ = split_mapping(&base, 16);
    }

    #[test]
    fn lookup_fails_after_remove() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        let _ = t.lookup(VirtAddr::new(16 << PAGE_SHIFT)).unwrap();
        assert_eq!(t.remove(17), None, "remove takes the exact start page");
        t.remove(16);
        assert!(t.lookup(VirtAddr::new(16 << PAGE_SHIFT)).is_err());
    }

    #[test]
    #[should_panic(expected = "overlapping mapping inserted")]
    fn enclosing_mapping_is_rejected() {
        let mut t = MappingTable::new();
        t.insert(m(20, 2, 100, PageKind::Base4K));
        // Neither end page of the new mapping is mapped, only its middle: a
        // probe of the first and last page alone would let this through.
        t.insert(m(16, 16, 200, PageKind::Base4K));
    }

    #[test]
    fn index_grows_below_its_first_page() {
        let mut t = MappingTable::new();
        t.insert(m(1000, 4, 0, PageKind::Base4K));
        t.insert(m(10, 2, 8, PageKind::Base4K));
        assert_eq!(t.lookup_page(11).unwrap().frame_start, 8);
        assert_eq!(t.lookup_page(1003).unwrap().frame_start, 0);
        assert!(t.lookup_page(9).is_none() && t.lookup_page(12).is_none());
        let starts: Vec<u64> = t.iter().map(|m| m.vpage_start).collect();
        assert_eq!(starts, [10, 1000]);
        assert_eq!(t.check(), Vec::<String>::new());
    }

    #[test]
    #[should_panic(expected = "would stretch the page index")]
    fn stray_far_off_mapping_is_rejected() {
        let mut t = MappingTable::new();
        t.insert(m(0x4_0000, 4, 0, PageKind::Base4K));
        // 4 B of index per page of the gap would be 4 TiB.
        t.insert(m(1 << 40, 1, 8, PageKind::Base4K));
    }

    #[test]
    fn self_check_flags_planted_faults() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        assert!(t.check().is_empty());
        t.corrupt_for_test(19);
        let violations = t.check();
        assert!(
            violations.iter().any(|v| v.contains("not indexed")),
            "planted fault not reported: {violations:?}"
        );
    }

    /// The oracle: an ordered map keyed by first page, predecessor search
    /// per lookup.
    #[derive(Default)]
    struct OrderedTable {
        map: BTreeMap<u64, Mapping>,
    }

    impl OrderedTable {
        fn insert(&mut self, m: Mapping) {
            self.map.insert(m.vpage_start, m);
        }

        fn remove(&mut self, vpage_start: u64) -> Option<Mapping> {
            self.map.remove(&vpage_start)
        }

        fn lookup_page(&self, vpage: u64) -> Option<&Mapping> {
            let (_, m) = self.map.range(..=vpage).next_back()?;
            (vpage < m.vpage_start + m.pages as u64).then_some(m)
        }

        fn overlapping(&self, first: u64, last: u64) -> Vec<Mapping> {
            let mut out: Vec<Mapping> = self.lookup_page(first).into_iter().copied().collect();
            if first < last {
                out.extend(self.map.range(first + 1..=last).map(|(_, m)| *m));
            }
            out
        }
    }

    /// First page of the scripted span (2 MiB-aligned, like the machine's
    /// allocations) and its length: four huge units.
    const SPAN_LO: u64 = 0x4_0000;
    const SPAN_PAGES: u64 = 4 * HUGE_PAGE_FRAMES as u64;

    fn pages_range(first: u64, pages: u64) -> VirtRange {
        VirtRange::new(
            VirtAddr::new(first << PAGE_SHIFT),
            (pages as usize) << PAGE_SHIFT,
        )
    }

    /// `mbind`-style splinter of one mapping into single pages.
    fn splinter(t: &mut MappingTable, o: &mut OrderedTable, old: Mapping) {
        assert_eq!(t.remove(old.vpage_start), o.remove(old.vpage_start));
        for p in 0..old.pages {
            let page = m(
                old.vpage_start + p as u64,
                1,
                old.frame_start + p,
                PageKind::Base4K,
            );
            t.insert(page);
            o.insert(page);
        }
    }

    /// Applies one scripted operation to both tables. `a`, `b` pick pages
    /// or mappings; every branch leaves the two tables describing the same
    /// mappings or the comparison after the step fails.
    fn apply(t: &mut MappingTable, o: &mut OrderedTable, op: u32, a: u64, b: u64) {
        let nth = |o: &OrderedTable, pick: u64| -> Option<Mapping> {
            let n = o.map.len() as u64;
            (n > 0).then(|| *o.map.values().nth((pick % n) as usize).unwrap())
        };
        match op {
            // Insert a mapping where the span is free: a whole huge unit,
            // or a short base run.
            0..=2 => {
                let unit = HUGE_PAGE_FRAMES as u64;
                let new = if op == 0 {
                    let start = SPAN_LO + (a % 4) * unit;
                    m(start, unit as u32, a as u32, PageKind::Huge2M)
                } else {
                    let start = SPAN_LO + a % SPAN_PAGES;
                    let pages = (1 + b % 40).min(SPAN_LO + SPAN_PAGES - start);
                    m(start, pages as u32, b as u32, PageKind::Base4K)
                };
                let last = new.vpage_start + new.pages as u64 - 1;
                if o.overlapping(new.vpage_start, last).is_empty() {
                    t.insert(new);
                    o.insert(new);
                }
            }
            // Remove by an arbitrary page: only exact starts succeed.
            3 => {
                let page = SPAN_LO + a % SPAN_PAGES;
                assert_eq!(t.remove(page), o.remove(page));
            }
            4 => {
                if let Some(victim) = nth(o, a) {
                    assert_eq!(t.remove(victim.vpage_start), o.remove(victim.vpage_start));
                }
            }
            // Split a mapping as `Machine::split_mappings_at` does.
            5..=6 => {
                if let Some(old) = nth(o, a).filter(|m| m.pages > 1) {
                    let at = old.vpage_start + 1 + b % (old.pages as u64 - 1);
                    let (left, right) = split_mapping(&old, at);
                    assert_eq!(t.remove(old.vpage_start), o.remove(old.vpage_start));
                    for piece in left.into_iter().chain(right) {
                        t.insert(piece);
                        o.insert(piece);
                    }
                }
            }
            7 => {
                if let Some(old) = nth(o, a) {
                    splinter(t, o, old);
                }
            }
            // Take every mapping between two existing ones.
            _ => {
                if let (Some(x), Some(y)) = (nth(o, a), nth(o, b)) {
                    let (x, y) = if x.vpage_start <= y.vpage_start {
                        (x, y)
                    } else {
                        (y, x)
                    };
                    let end = y.vpage_start + y.pages as u64;
                    let want = o.overlapping(x.vpage_start, end - 1);
                    for w in &want {
                        o.remove(w.vpage_start);
                    }
                    let got = t.take_overlapping(pages_range(x.vpage_start, end - x.vpage_start));
                    assert_eq!(got, want);
                }
            }
        }
    }

    fn assert_same(t: &MappingTable, o: &OrderedTable, a: u64, b: u64) {
        for page in SPAN_LO - 2..SPAN_LO + SPAN_PAGES + 2 {
            assert_eq!(t.lookup_page(page), o.lookup_page(page), "page {page:#x}");
        }
        let first = SPAN_LO - 2 + a % (SPAN_PAGES + 4);
        let pages = 1 + b % (SPAN_PAGES + 4);
        assert_eq!(
            t.overlapping(pages_range(first, pages)),
            o.overlapping(first, first + pages - 1),
            "overlapping {first:#x}+{pages}"
        );
        assert_eq!(t.len(), o.map.len());
        assert!(t.iter().eq(o.map.values()), "address-order iteration");
        assert_eq!(t.check(), Vec::<String>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_the_ordered_map_oracle(
            script in prop::collection::vec((0u32..10, 0u64..1 << 20, 0u64..1 << 20), 1..120),
        ) {
            let mut t = MappingTable::new();
            let mut o = OrderedTable::default();
            for &(op, a, b) in &script {
                apply(&mut t, &mut o, op, a, b);
                assert_same(&t, &o, a, b);
            }
            // An `mbind`-style splinter of everything that is left.
            let all: Vec<Mapping> = o.map.values().copied().collect();
            for old in all {
                splinter(&mut t, &mut o, old);
            }
            assert_same(&t, &o, 0, SPAN_PAGES);
            prop_assert!(t.iter().all(|m| m.pages == 1));
        }
    }
}
