//! Per-tier physical frame allocator.
//!
//! A bitmap allocator over 4 KiB frames with first-fit search for contiguous
//! (optionally aligned) runs. Contiguous aligned runs are needed for huge
//! mappings and for the staging buffers of the multi-stage migration; single
//! scattered frames are what the `mbind` baseline hands out page by page.

/// Bitmap allocator over the frames of one tier.
#[derive(Debug, Clone)]
pub(crate) struct FrameAllocator {
    /// One bit per frame; set = allocated.
    bits: Vec<u64>,
    total: usize,
    free: usize,
    /// Search hint: frame index where the next first-fit scan starts.
    hint: usize,
}

/// A run of contiguous frames `[start, start + count)` on one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRun {
    /// First frame index of the run.
    pub start: u32,
    /// Number of frames in the run.
    pub count: u32,
}

impl FrameRun {
    /// Creates a run descriptor.
    pub(crate) const fn new(start: u32, count: u32) -> Self {
        FrameRun { start, count }
    }

    /// Total bytes covered by the run.
    pub(crate) const fn bytes(self) -> usize {
        (self.count as usize) << crate::addr::PAGE_SHIFT
    }
}

impl FrameAllocator {
    /// Creates an allocator managing `total` free frames.
    pub(crate) fn new(total: usize) -> Self {
        FrameAllocator {
            bits: vec![0u64; total.div_ceil(64)],
            total,
            free: total,
            hint: 0,
        }
    }

    /// Number of frames managed.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Number of currently free frames.
    pub(crate) fn free_frames(&self) -> usize {
        self.free
    }

    /// Number of currently allocated frames.
    pub(crate) fn used_frames(&self) -> usize {
        self.total - self.free
    }

    #[inline]
    fn is_set(&self, i: usize) -> bool {
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Allocates `count` contiguous frames with no alignment constraint.
    pub(crate) fn alloc_run(&mut self, count: usize) -> Option<FrameRun> {
        self.alloc_run_aligned(count, 1)
    }

    /// Allocates `count` contiguous frames whose start index is a multiple of
    /// `align` frames. Returns `None` if no such run exists.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `align` is not a power of two.
    pub(crate) fn alloc_run_aligned(&mut self, count: usize, align: usize) -> Option<FrameRun> {
        assert!(count > 0, "cannot allocate an empty run");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if count > self.free {
            return None;
        }
        // Two scans: from the hint to the end, then from 0 to the hint.
        let found = self
            .scan(self.hint, self.total, count, align)
            .or_else(|| self.scan(0, self.hint.min(self.total), count, align))?;
        for i in found..found + count {
            debug_assert!(!self.is_set(i));
            self.set(i);
        }
        self.free -= count;
        self.hint = found + count;
        if self.hint >= self.total {
            self.hint = 0;
        }
        Some(FrameRun::new(found as u32, count as u32))
    }

    /// First-fit scan over `[from, to)` for `count` free frames aligned to
    /// `align`. Returns the start index of the run.
    fn scan(&self, from: usize, to: usize, count: usize, align: usize) -> Option<usize> {
        let mut start = from.next_multiple_of(align);
        while start + count <= to {
            // Walk forward while frames are free; on the first allocated
            // frame, jump past it (re-aligned).
            let mut i = start;
            let end = start + count;
            while i < end && !self.is_set(i) {
                i += 1;
            }
            if i == end {
                return Some(start);
            }
            start = (i + 1).next_multiple_of(align);
        }
        None
    }

    /// Frees the run `[start, start + count)`.
    ///
    /// # Panics
    ///
    /// Panics if any frame in the run is out of bounds or already free
    /// (double free).
    pub(crate) fn free_run(&mut self, run: FrameRun) {
        let start = run.start as usize;
        let count = run.count as usize;
        assert!(start + count <= self.total, "free out of bounds");
        for i in start..start + count {
            assert!(self.is_set(i), "double free of frame {i}");
            self.clear(i);
        }
        self.free += count;
        // Freed space behind the hint becomes findable on the wrap-around
        // scan, so no hint update is required for correctness.
    }

    /// Whether the frame at `index` is currently allocated.
    pub(crate) fn is_allocated(&self, index: u32) -> bool {
        let i = index as usize;
        i < self.total && self.is_set(i)
    }

    /// Allocated-frame count recomputed from the bitmap (a popcount), for
    /// auditing the incrementally maintained `free` counter against ground
    /// truth.
    pub(crate) fn bitmap_used_frames(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut a = FrameAllocator::new(128);
        let r = a.alloc_run(10).unwrap();
        assert_eq!(r.count, 10);
        assert_eq!(a.free_frames(), 118);
        a.free_run(r);
        assert_eq!(a.free_frames(), 128);
    }

    #[test]
    fn aligned_allocation_is_aligned() {
        let mut a = FrameAllocator::new(4096);
        let _pad = a.alloc_run(3).unwrap();
        let r = a.alloc_run_aligned(512, 512).unwrap();
        assert_eq!(r.start % 512, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = FrameAllocator::new(8);
        assert!(a.alloc_run(8).is_some());
        assert!(a.alloc_run(1).is_none());
    }

    #[test]
    fn fragmentation_blocks_large_runs() {
        let mut a = FrameAllocator::new(16);
        let runs: Vec<_> = (0..8).map(|_| a.alloc_run(2).unwrap()).collect();
        // Free every other 2-frame run: 8 free frames, max contiguous 2.
        for r in runs.iter().step_by(2) {
            a.free_run(*r);
        }
        assert_eq!(a.free_frames(), 8);
        assert!(a.alloc_run(3).is_none());
        assert!(a.alloc_run(2).is_some());
    }

    #[test]
    fn wraparound_scan_finds_freed_prefix() {
        let mut a = FrameAllocator::new(8);
        let first = a.alloc_run(4).unwrap();
        let _second = a.alloc_run(4).unwrap();
        a.free_run(first);
        // Hint sits at the end; the wrap-around scan must find the prefix.
        let r = a.alloc_run(4).unwrap();
        assert_eq!(r.start, 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(8);
        let r = a.alloc_run(2).unwrap();
        a.free_run(r);
        a.free_run(r);
    }

    #[test]
    fn run_bytes() {
        assert_eq!(FrameRun::new(0, 2).bytes(), 8192);
    }

    mod properties {
        use super::*;
        use atmem_prop::prelude::*;

        proptest! {
            /// The frame allocator never double-allocates, never loses frames, and
            /// frees restore capacity exactly.
            #[test]
            fn frame_allocator_conserves_frames(
                ops in prop::collection::vec((1usize..32, any::<bool>()), 1..60),
            ) {
                let total = 512;
                let mut alloc = FrameAllocator::new(total);
                let mut live: Vec<FrameRun> = Vec::new();
                let mut occupied: Vec<bool> = vec![false; total];
                for (count, free_one) in ops {
                    if free_one && !live.is_empty() {
                        let run = live.swap_remove(0);
                        for i in run.start..run.start + run.count {
                            prop_assert!(occupied[i as usize]);
                            occupied[i as usize] = false;
                        }
                        alloc.free_run(run);
                    } else if let Some(run) = alloc.alloc_run(count) {
                        prop_assert_eq!(run.count as usize, count);
                        for i in run.start..run.start + run.count {
                            prop_assert!(!occupied[i as usize], "double allocation of {i}");
                            occupied[i as usize] = true;
                        }
                        live.push(run);
                    }
                    let used: usize = occupied.iter().filter(|&&b| b).count();
                    prop_assert_eq!(alloc.used_frames(), used);
                    prop_assert_eq!(alloc.free_frames(), total - used);
                }
            }

            /// Aligned allocations are aligned, whatever came before them.
            #[test]
            fn aligned_runs_are_aligned(
                noise in prop::collection::vec(1usize..7, 0..10),
                align_pow in 1u32..7,
                count_units in 1usize..4,
            ) {
                let align = 1usize << align_pow;
                let mut alloc = FrameAllocator::new(1024);
                for n in noise {
                    let _ = alloc.alloc_run(n);
                }
                if let Some(run) = alloc.alloc_run_aligned(count_units * align, align) {
                    prop_assert_eq!(run.start as usize % align, 0);
                }
            }
        }
    }
}
