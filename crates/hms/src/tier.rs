//! Memory tiers: identifiers, performance specifications, and backing storage.

use std::fmt;

use crate::addr::PAGE_SIZE;

/// Identifier of a memory tier on a [`Machine`](crate::Machine).
///
/// A typical heterogeneous memory system has exactly two tiers; the constants
/// [`TierId::FAST`] and [`TierId::SLOW`] name them. The type nonetheless
/// supports machines with more tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(u8);

impl TierId {
    /// The small-capacity high-performance tier (DRAM next to Optane NVM, or
    /// MCDRAM next to DDR4 on KNL).
    pub const FAST: TierId = TierId(0);
    /// The large-capacity low-performance tier (Optane NVM, or DDR4 on KNL).
    pub const SLOW: TierId = TierId(1);

    /// Creates a tier identifier from a machine-local index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds 255 (far beyond any real tier count).
    pub const fn new(index: usize) -> Self {
        assert!(index <= u8::MAX as usize, "tier index out of range");
        TierId(index as u8)
    }

    /// Machine-local index of the tier.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id one tier hotter (lower index), or `None` at the hottest tier.
    pub const fn hotter(self) -> Option<TierId> {
        match self.0 {
            0 => None,
            i => Some(TierId(i - 1)),
        }
    }

    /// The id one tier colder (higher index) on a machine with `num_tiers`
    /// tiers, or `None` at the coldest tier.
    pub const fn colder(self, num_tiers: usize) -> Option<TierId> {
        if (self.0 as usize) + 1 < num_tiers {
            Some(TierId(self.0 + 1))
        } else {
            None
        }
    }
}

impl fmt::Display for TierId {
    /// Positional form, `tier{i}`. Ids carry no machine context, so the
    /// human-readable tier name must come from the platform:
    /// [`Platform::tier_name`](crate::platform::Platform::tier_name) resolves
    /// an id against the tier set (e.g. `"HBM"`, `"DRAM"`), falling back to
    /// this positional form for out-of-range ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Performance and capacity specification of one memory tier.
///
/// Bandwidths are in bytes per nanosecond (equal to GB/s), latencies in
/// nanoseconds. The values for the two paper testbeds live in
/// [`Platform`](crate::platform::Platform) presets.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable name, e.g. `"DRAM"` or `"Optane-NVM"`.
    pub name: String,
    /// Capacity in bytes. Must be a multiple of [`PAGE_SIZE`].
    pub capacity: usize,
    /// Idle load-to-use latency of one cache-line fill, in nanoseconds.
    pub load_latency_ns: f64,
    /// Peak sequential read bandwidth, bytes/ns (== GB/s).
    pub read_bw: f64,
    /// Peak sequential write bandwidth, bytes/ns (== GB/s).
    pub write_bw: f64,
    /// Copy bandwidth achievable by a single thread, bytes/ns. Multi-threaded
    /// copies scale linearly in thread count until the tier peak is reached.
    pub per_thread_copy_bw: f64,
    /// Fraction of the peak bandwidth available to *random* (cache-line
    /// granular) demand accesses, in (0, 1]. Optane NVM collapses under
    /// random concurrent reads to well below its sequential figure (Peng et
    /// al., MEMSYS'19, cited by the paper), which is where the >3x
    /// application slowdowns of Figure 1a come from despite the 3x latency
    /// gap. Sequential copy engines (migration) still see the full peak.
    pub random_bw_factor: f64,
}

impl TierSpec {
    /// Creates a specification, validating geometry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not page-aligned, or if any rate is
    /// non-positive.
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        load_latency_ns: f64,
        read_bw: f64,
        write_bw: f64,
        per_thread_copy_bw: f64,
    ) -> Self {
        assert!(capacity > 0, "tier capacity must be positive");
        assert_eq!(
            capacity % PAGE_SIZE,
            0,
            "tier capacity must be page-aligned"
        );
        assert!(load_latency_ns > 0.0, "latency must be positive");
        assert!(
            read_bw > 0.0 && write_bw > 0.0 && per_thread_copy_bw > 0.0,
            "bandwidths must be positive"
        );
        TierSpec {
            name: name.into(),
            capacity,
            load_latency_ns,
            read_bw,
            write_bw,
            per_thread_copy_bw,
            random_bw_factor: 1.0,
        }
    }

    /// Sets the random-access bandwidth factor (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is in (0, 1].
    #[must_use]
    pub fn with_random_bw_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        self.random_bw_factor = factor;
        self
    }

    /// Number of 4 KiB frames on the tier.
    pub fn frame_count(&self) -> usize {
        self.capacity / PAGE_SIZE
    }

    /// Effective copy read bandwidth with `threads` copier threads.
    pub fn copy_read_bw(&self, threads: usize) -> f64 {
        (self.per_thread_copy_bw * threads.max(1) as f64).min(self.read_bw)
    }

    /// Effective copy write bandwidth with `threads` copier threads.
    pub fn copy_write_bw(&self, threads: usize) -> f64 {
        (self.per_thread_copy_bw * threads.max(1) as f64).min(self.write_bw)
    }
}

/// Byte storage backing one tier. Data written through the simulator
/// *actually lives here*, so migration really moves bytes and correctness is
/// observable from the outside.
#[derive(Debug)]
pub(crate) struct TierStorage {
    bytes: Box<[u8]>,
}

impl TierStorage {
    /// Allocates zeroed storage of `capacity` bytes.
    pub(crate) fn new(capacity: usize) -> Self {
        TierStorage {
            bytes: vec![0u8; capacity].into_boxed_slice(),
        }
    }

    /// Total capacity in bytes.
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Immutable view of the byte range `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub(crate) fn slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.bytes[offset..offset + len]
    }

    /// Mutable view of the byte range `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub(crate) fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        &mut self.bytes[offset..offset + len]
    }

    /// Raw pointer to the storage base, for the per-core views of a sharded
    /// phase over provably disjoint ranges (see `shard::TiersView`, the one
    /// place it is dereferenced).
    pub(crate) fn base_ptr(&mut self) -> *mut u8 {
        self.bytes.as_mut_ptr()
    }
}

/// A tier assembled from its spec and storage, plus its frame allocator.
#[derive(Debug)]
pub(crate) struct Tier {
    pub(crate) spec: TierSpec,
    pub(crate) storage: TierStorage,
    pub(crate) frames: crate::frame::FrameAllocator,
}

impl Tier {
    pub(crate) fn new(spec: TierSpec) -> Self {
        let storage = TierStorage::new(spec.capacity);
        let frames = crate::frame::FrameAllocator::new(spec.frame_count());
        Tier {
            spec,
            storage,
            frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ids_are_distinct_and_displayable() {
        assert_ne!(TierId::FAST, TierId::SLOW);
        assert_eq!(TierId::FAST.to_string(), "tier0");
        assert_eq!(TierId::SLOW.to_string(), "tier1");
        assert_eq!(TierId::new(3).to_string(), "tier3");
    }

    #[test]
    fn hotter_and_colder_walk_the_tier_order() {
        assert_eq!(TierId::new(0).hotter(), None);
        assert_eq!(TierId::new(2).hotter(), Some(TierId::new(1)));
        assert_eq!(TierId::new(0).colder(3), Some(TierId::new(1)));
        assert_eq!(TierId::new(2).colder(3), None);
    }

    #[test]
    fn spec_frame_count() {
        let spec = TierSpec::new("t", 16 * PAGE_SIZE, 80.0, 104.0, 80.0, 6.0);
        assert_eq!(spec.frame_count(), 16);
    }

    #[test]
    fn copy_bandwidth_saturates_at_tier_peak() {
        let spec = TierSpec::new("t", PAGE_SIZE, 80.0, 104.0, 80.0, 6.0);
        assert!((spec.copy_read_bw(1) - 6.0).abs() < 1e-9);
        assert!((spec.copy_read_bw(4) - 24.0).abs() < 1e-9);
        assert!((spec.copy_read_bw(48) - 104.0).abs() < 1e-9);
        assert!((spec.copy_write_bw(48) - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_capacity_panics() {
        let _ = TierSpec::new("t", PAGE_SIZE + 1, 80.0, 104.0, 80.0, 6.0);
    }

    #[test]
    fn storage_round_trips_bytes() {
        let mut s = TierStorage::new(2 * PAGE_SIZE);
        s.slice_mut(100, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.slice(100, 4), &[1, 2, 3, 4]);
        assert_eq!(s.capacity(), 2 * PAGE_SIZE);
    }
}
