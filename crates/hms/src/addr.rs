//! Address newtypes and page-geometry constants.
//!
//! The simulator uses 4 KiB base pages and *scaled* huge mappings of 64
//! base pages (256 KiB). Real x86-64 huge pages cover 512 pages (2 MiB);
//! since every capacity in the simulator is scaled down 1024x relative to
//! the paper's testbeds (see the `Platform` presets), keeping 2 MiB huge
//! pages would make hugeness unreachable for the scaled datasets and hide
//! the TLB economics of Table 4. Scaling the huge unit with the rest of the
//! machine preserves the ratio of huge-page reach to data size. Physical
//! locations are expressed as (tier, frame index) pairs; a synthetic flat
//! physical address is derived for cache indexing so that migrating a page
//! changes its cache footprint, just as on real hardware.

use std::fmt;

use crate::tier::TierId;

/// Size of a base page in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub(crate) const PAGE_SHIFT: u32 = 12;
/// Number of base pages covered by one huge mapping (scaled; see the
/// module docs — real hardware uses 512).
pub(crate) const HUGE_PAGE_FRAMES: usize = 64;
/// Cache-line size in bytes, used by the LLC model and the cost model.
pub(crate) const LINE_SIZE: usize = 64;

/// A virtual address in the simulated address space.
///
/// ```
/// use atmem_hms::VirtAddr;
/// let va = VirtAddr::new(0x1000_0040);
/// assert_eq!(va.page_index(), 0x1000_0040 >> 12);
/// assert_eq!(va.page_offset(), 0x40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw value.
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Index of the 4 KiB page containing this address.
    pub const fn page_index(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Byte offset within the containing 4 KiB page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Address rounded down to the start of its cache line.
    pub(crate) const fn line_aligned(self) -> Self {
        VirtAddr(self.0 & !(LINE_SIZE as u64 - 1))
    }

    /// Returns this address advanced by `bytes`.
    #[must_use]
    pub const fn add(self, bytes: u64) -> Self {
        VirtAddr(self.0 + bytes)
    }

    /// Byte distance from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other > self`.
    pub fn offset_from(self, other: VirtAddr) -> u64 {
        debug_assert!(other.0 <= self.0, "offset_from would underflow");
        self.0 - other.0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<VirtAddr> for u64 {
    fn from(value: VirtAddr) -> Self {
        value.0
    }
}

/// A physical frame: a 4 KiB unit of storage on a particular tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Frame {
    /// Tier holding the frame.
    pub(crate) tier: TierId,
    /// Frame index within the tier (frame `i` covers bytes
    /// `i * PAGE_SIZE .. (i + 1) * PAGE_SIZE` of the tier storage).
    pub(crate) index: u32,
}

impl Frame {
    /// Creates a frame handle.
    pub(crate) const fn new(tier: TierId, index: u32) -> Self {
        Frame { tier, index }
    }

    /// Byte offset of the frame start within its tier's storage.
    pub(crate) const fn byte_offset(self) -> usize {
        (self.index as usize) << PAGE_SHIFT
    }

    /// Synthetic flat physical address of byte `offset` within this frame.
    ///
    /// Distinct tiers occupy distinct 1 TiB windows of the synthetic space so
    /// that physical cache indexing never aliases across tiers.
    pub(crate) const fn phys_addr(self, offset: usize) -> PhysAddr {
        PhysAddr(
            ((self.tier.index() as u64) << 40)
                | (((self.index as u64) << PAGE_SHIFT) + offset as u64),
        )
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.tier, self.index)
    }
}

/// A synthetic flat physical address used for cache indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw value.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw address value.
    pub(crate) const fn raw(self) -> u64 {
        self.0
    }

    /// Address rounded down to the start of its cache line.
    pub(crate) const fn line_aligned(self) -> Self {
        PhysAddr(self.0 & !(LINE_SIZE as u64 - 1))
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:0x{:x}", self.0)
    }
}

/// A half-open virtual byte range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtRange {
    /// First byte of the range.
    pub start: VirtAddr,
    /// Length in bytes.
    pub len: usize,
}

impl VirtRange {
    /// Creates a range.
    pub const fn new(start: VirtAddr, len: usize) -> Self {
        VirtRange { start, len }
    }

    /// One past the last byte of the range.
    pub const fn end(self) -> VirtAddr {
        VirtAddr(self.start.raw() + self.len as u64)
    }

    /// Whether the range contains `va`.
    pub fn contains(self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }

    /// Intersection of two ranges, or `None` if disjoint.
    pub(crate) fn intersect(self, other: VirtRange) -> Option<VirtRange> {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        if start < end {
            Some(VirtRange::new(start, end.offset_from(start) as usize))
        } else {
            None
        }
    }
}

impl fmt::Display for VirtRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_geometry() {
        assert_eq!(PAGE_SIZE, 1 << PAGE_SHIFT);
    }

    #[test]
    fn virt_addr_decomposition() {
        let va = VirtAddr::new(0x2000_1234);
        assert_eq!(va.page_index(), 0x2000_1234u64 >> 12);
        assert_eq!(va.page_offset(), 0x234);
        assert_eq!(va.line_aligned().raw(), 0x2000_1200);
    }

    #[test]
    fn line_alignment_masks_low_bits() {
        let va = VirtAddr::new(0x1007f);
        assert_eq!(va.line_aligned().raw(), 0x10040);
    }

    #[test]
    fn frame_phys_addr_separates_tiers() {
        let a = Frame::new(TierId::FAST, 3).phys_addr(0);
        let b = Frame::new(TierId::SLOW, 3).phys_addr(0);
        assert_ne!(a, b);
        assert_eq!(a.raw() & 0xffff_ffff, b.raw() & 0xffff_ffff);
    }

    #[test]
    fn range_overlap_and_intersection() {
        let a = VirtRange::new(VirtAddr::new(0x1000), 0x1000);
        let b = VirtRange::new(VirtAddr::new(0x1800), 0x1000);
        let c = VirtRange::new(VirtAddr::new(0x3000), 0x1000);
        let i = a.intersect(b).unwrap();
        assert_eq!(i.start.raw(), 0x1800);
        assert_eq!(i.len, 0x800);
        assert!(a.intersect(c).is_none());
    }

    #[test]
    fn empty_range_overlaps_nothing() {
        let empty = VirtRange::new(VirtAddr::new(0x1000), 0);
        let a = VirtRange::new(VirtAddr::new(0x0), 0x10000);
        assert!(empty.intersect(a).is_none());
        assert!(a.intersect(empty).is_none());
    }
}
