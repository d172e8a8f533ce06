//! Machine-wide counters and snapshots.

use crate::cost::SimDuration;
use crate::shard::MAX_TIERS;

/// A point-in-time snapshot of every counter a [`Machine`](crate::Machine)
/// maintains. Obtained from [`Machine::stats`](crate::Machine::stats);
/// subtract two snapshots with [`MachineStats::delta`] to scope a
/// measurement to one phase (e.g. the paper's "second iteration").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MachineStats {
    /// Simulated time, nanoseconds.
    pub time_ns: f64,
    /// Total scalar accesses performed.
    pub accesses: u64,
    /// Scalar reads.
    pub reads: u64,
    /// Scalar writes.
    pub writes: u64,
    /// LLC read hits.
    pub llc_read_hits: u64,
    /// LLC read misses.
    pub llc_read_misses: u64,
    /// LLC write hits.
    pub llc_write_hits: u64,
    /// LLC write misses.
    pub llc_write_misses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Bytes currently allocated on each tier, indexed by
    /// [`TierId::index`](crate::TierId::index) (hottest first; entries past
    /// the machine's tier count stay zero). Counts every frame the tier's
    /// allocator holds: mapped frames, and staging runs on the tier that
    /// holds them.
    pub bytes_used: [u64; MAX_TIERS],
    /// Bytes moved by migrations so far.
    pub bytes_migrated: u64,
}

impl MachineStats {
    /// Component-wise difference `self - earlier` for the monotone counters;
    /// the occupancy gauge (`bytes_used`) keeps the later value.
    #[must_use]
    pub fn delta(&self, earlier: &MachineStats) -> MachineStats {
        MachineStats {
            time_ns: self.time_ns - earlier.time_ns,
            accesses: self.accesses - earlier.accesses,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            llc_read_hits: self.llc_read_hits - earlier.llc_read_hits,
            llc_read_misses: self.llc_read_misses - earlier.llc_read_misses,
            llc_write_hits: self.llc_write_hits - earlier.llc_write_hits,
            llc_write_misses: self.llc_write_misses - earlier.llc_write_misses,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
            bytes_used: self.bytes_used,
            bytes_migrated: self.bytes_migrated - earlier.bytes_migrated,
        }
    }

    /// Simulated time as a [`SimDuration`].
    pub fn time(&self) -> SimDuration {
        SimDuration::from_ns(self.time_ns)
    }

    /// LLC read miss ratio in `[0, 1]`; zero when there were no reads.
    pub fn llc_read_miss_ratio(&self) -> f64 {
        let total = self.llc_read_hits + self.llc_read_misses;
        if total == 0 {
            0.0
        } else {
            self.llc_read_misses as f64 / total as f64
        }
    }

    /// TLB miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn tlb_miss_ratio(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_monotone_counters() {
        let earlier = MachineStats {
            time_ns: 10.0,
            accesses: 5,
            tlb_misses: 1,
            bytes_used: [100, 0, 7, 0, 0, 0, 0, 0],
            ..MachineStats::default()
        };
        let later = MachineStats {
            time_ns: 25.0,
            accesses: 9,
            tlb_misses: 4,
            bytes_used: [300, 0, 9, 0, 0, 0, 0, 0],
            ..MachineStats::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.accesses, 4);
        assert_eq!(d.tlb_misses, 3);
        assert!((d.time_ns - 15.0).abs() < 1e-12);
        // The gauge keeps the later value, on every tier.
        assert_eq!(d.bytes_used, later.bytes_used);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = MachineStats::default();
        assert_eq!(s.llc_read_miss_ratio(), 0.0);
        assert_eq!(s.tlb_miss_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = MachineStats {
            llc_read_hits: 3,
            llc_read_misses: 1,
            tlb_hits: 9,
            tlb_misses: 1,
            ..MachineStats::default()
        };
        assert!((s.llc_read_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.tlb_miss_ratio() - 0.1).abs() < 1e-12);
    }
}
