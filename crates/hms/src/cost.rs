//! Simulated-time cost model and clock.
//!
//! Application "execution time" in every experiment is the simulated time
//! accumulated by this model, not wall clock. An access costs:
//!
//! * a page-walk penalty when the TLB misses,
//! * the LLC hit latency on a cache hit, or
//! * the tier load latency plus a line-transfer term on a cache miss. The
//!   transfer term is scaled by the configured application thread count: on
//!   the real testbeds dozens of threads queue on the memory controllers, so
//!   per-access service time grows with the demand-to-bandwidth ratio. This
//!   queuing term is what makes the NVM slowdown larger than the raw latency
//!   ratio (paper §2.1, Figure 1a: up to 10x despite a 3x latency gap).

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::addr::LINE_SIZE;
use crate::tier::TierSpec;

/// A duration in simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        debug_assert!(ns.is_finite() && ns >= 0.0, "durations are non-negative");
        SimDuration(ns)
    }

    /// The duration in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0
    }

    /// The duration in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 / 1e6
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1e9
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}us", self.0 / 1e3)
        } else {
            write!(f, "{:.1}ns", self.0)
        }
    }
}

/// Monotone simulated clock.
#[derive(Debug, Default)]
pub(crate) struct SimClock {
    now_ns: f64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub(crate) fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time since machine creation.
    pub(crate) fn now(&self) -> SimDuration {
        SimDuration(self.now_ns)
    }

    /// Advances the clock.
    pub(crate) fn advance(&mut self, d: SimDuration) {
        self.now_ns += d.as_ns();
    }
}

/// Tunable constants of the access cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Latency of an LLC hit, nanoseconds.
    pub llc_hit_ns: f64,
    /// Page-walk penalty on a TLB miss, nanoseconds (walk entries are
    /// assumed cached; the penalty is the extra pipeline stall).
    pub walk_ns: f64,
    /// Number of concurrently running application threads whose aggregate
    /// demand queues on the memory controller (48 on the Optane testbed,
    /// 64 modelled for KNL). The simulation executes kernels sequentially
    /// and folds parallelism into the per-miss service time.
    pub app_threads: usize,
    /// Cost of taking one PEBS sample (PMU interrupt + record drain,
    /// amortised), nanoseconds. This is what makes the paper's §7.4
    /// profiling-overhead claim measurable.
    pub pebs_sample_ns: f64,
    /// Per-rendezvous cost of one stage of a phase barrier between
    /// simulated cores, nanoseconds. A barrier over `n` cores is modelled
    /// as a log2-depth combining tree (see [`CostModel::barrier_cost`]).
    pub barrier_ns: f64,
    /// Fixed cost of remapping one migrated region, nanoseconds: the
    /// page-table update plus its one range TLB shootdown, which a staged
    /// migration pays per region on top of its copies.
    pub remap_ns: f64,
}

impl CostModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if a latency is not finite and positive, or `app_threads` is
    /// zero.
    pub fn new(llc_hit_ns: f64, walk_ns: f64, app_threads: usize) -> Self {
        let model = CostModel {
            llc_hit_ns,
            walk_ns,
            app_threads,
            pebs_sample_ns: 300.0,
            barrier_ns: 500.0,
            remap_ns: 2_000.0,
        };
        model.check();
        model
    }

    /// The checks of [`new`](CostModel::new), and that the sample, barrier
    /// and remap costs are finite and non-negative, naming the value that
    /// fails.
    pub(crate) fn check(&self) {
        for (what, ns, zero_ok) in [
            ("llc_hit_ns", self.llc_hit_ns, false),
            ("walk_ns", self.walk_ns, false),
            ("pebs_sample_ns", self.pebs_sample_ns, true),
            ("barrier_ns", self.barrier_ns, true),
            ("remap_ns", self.remap_ns, true),
        ] {
            let sign = if zero_ok { "non-negative" } else { "positive" };
            assert!(
                ns.is_finite() && (ns > 0.0 || zero_ok && ns == 0.0),
                "cost.{what} {ns} must be finite and {sign}"
            );
        }
        assert!(self.app_threads > 0, "cost.app_threads must be positive");
    }

    /// Cost of one phase barrier synchronising `cores` simulated cores:
    /// `ceil(log2(cores))` combining-tree stages of `barrier_ns` each (a
    /// single core still pays one stage — the rendezvous instruction
    /// sequence does not vanish at n=1). Integer-exact: the stage count is
    /// computed on integers, so equal core counts always produce
    /// bit-identical durations.
    pub fn barrier_cost(&self, cores: usize) -> SimDuration {
        debug_assert!(cores > 0, "barrier over zero cores");
        let stages = cores.next_power_of_two().trailing_zeros().max(1);
        SimDuration(stages as f64 * self.barrier_ns)
    }

    /// Cost of depositing one PEBS record.
    pub fn sample_cost(&self) -> SimDuration {
        SimDuration(self.pebs_sample_ns)
    }

    /// Cost of an access that hit in the LLC.
    pub fn hit_cost(&self) -> SimDuration {
        SimDuration(self.llc_hit_ns)
    }

    /// Cost of an access that missed the LLC and is serviced by `tier`.
    ///
    /// `write` selects the write bandwidth (NVM writes are far slower than
    /// reads: 13 vs 39 GB/s on Optane).
    pub fn miss_cost(&self, tier: &TierSpec, write: bool) -> SimDuration {
        let bw = if write { tier.write_bw } else { tier.read_bw };
        // Demand misses are random line-granular traffic; the tier only
        // delivers its random-access fraction of the peak to them.
        let queue = (LINE_SIZE as f64) * (self.app_threads as f64) / (bw * tier.random_bw_factor);
        SimDuration(tier.load_latency_ns + queue)
    }

    /// Page-walk penalty added on a TLB miss.
    pub fn walk_cost(&self) -> SimDuration {
        SimDuration(self.walk_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn dram() -> TierSpec {
        TierSpec::new("DRAM", 1024 * PAGE_SIZE, 80.0, 104.0, 80.0, 6.0)
    }

    fn nvm() -> TierSpec {
        TierSpec::new("NVM", 1024 * PAGE_SIZE, 240.0, 39.0, 13.0, 6.0)
    }

    #[test]
    fn miss_costs_order_tiers_correctly() {
        let m = CostModel::new(18.0, 60.0, 48);
        let d = m.miss_cost(&dram(), false);
        let n = m.miss_cost(&nvm(), false);
        assert!(n > d, "NVM read miss must cost more than DRAM");
        // Queuing amplifies the gap beyond the raw latency ratio for writes.
        let dw = m.miss_cost(&dram(), true);
        let nw = m.miss_cost(&nvm(), true);
        assert!(nw.as_ns() / dw.as_ns() > 240.0 / 80.0 * 0.9);
    }

    #[test]
    fn write_misses_cost_more_on_nvm() {
        let m = CostModel::new(18.0, 60.0, 48);
        assert!(m.miss_cost(&nvm(), true) > m.miss_cost(&nvm(), false));
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        c.advance(SimDuration::from_ns(5.0));
        c.advance(SimDuration::from_ns(7.0));
        assert!((c.now().as_ns() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn duration_display_scales_units() {
        assert_eq!(SimDuration::from_ns(3.0).to_string(), "3.0ns");
        assert_eq!(SimDuration::from_ns(2_000.0).to_string(), "2.000us");
        assert_eq!(SimDuration::from_ns(4.5e6).to_string(), "4.500ms");
        assert_eq!(SimDuration::from_ns(1.5e9).to_string(), "1.500s");
    }

    #[test]
    fn duration_arithmetic() {
        let mut d = SimDuration::from_ns(1.0) + SimDuration::from_ns(2.0);
        d += SimDuration::from_ns(3.0);
        assert!((d.as_ns() - 6.0).abs() < 1e-12);
        assert!((d.as_secs() - 6e-9).abs() < 1e-18);
    }
}
