//! PEBS-like precise address sampling.
//!
//! Real ATMem programs the Intel PMU for processor event-based sampling of
//! LLC read misses and drains the PEBS buffer (paper §5.1). The simulator
//! exposes the same contract: enable sampling with a period, every k-th LLC
//! read miss deposits a record carrying the precise virtual address, and the
//! runtime drains the buffer. A small random jitter on the period avoids
//! systematic aliasing with strided access patterns, as hardware sampling
//! drivers do.

use atmem_rng::SmallRng;

use crate::addr::VirtAddr;

/// One sampled LLC read-miss event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRecord {
    /// Precise virtual address of the sampled load.
    pub vaddr: VirtAddr,
}

/// The simulated sampling unit.
#[derive(Debug)]
pub struct Pebs {
    enabled: bool,
    period: u64,
    countdown: u64,
    jitter: u64,
    seed: u64,
    rng: SmallRng,
    buffer: Vec<SampleRecord>,
}

impl Pebs {
    /// Creates a disabled sampler.
    pub fn new(seed: u64) -> Self {
        Pebs {
            enabled: false,
            period: 1024,
            countdown: 1024,
            jitter: 0,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            buffer: Vec::new(),
        }
    }

    /// Creates the per-core sampling unit for simulated core `core_id`:
    /// same enablement, period and jitter, but an independent deterministic
    /// jitter stream derived from this sampler's seed and the core id, so
    /// each core's sample placement is reproducible for a fixed (seed, core
    /// count) pair and cores do not share one RNG (which would make the
    /// stream depend on cross-core interleaving).
    pub(crate) fn fork(&self, core_id: usize) -> Pebs {
        let child_seed = self
            .seed
            .wrapping_add((core_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut child = Pebs::new(child_seed);
        child.period = self.period;
        child.jitter = self.jitter;
        if self.enabled {
            child.enable(self.period, self.jitter);
        }
        child
    }

    /// Merges a forked core's sampler back: records are appended in call
    /// order (the caller absorbs cores in core order, making the merged
    /// stream deterministic).
    pub(crate) fn absorb(&mut self, child: Pebs) {
        self.buffer.extend(child.buffer);
    }

    /// Enables sampling: one record per `period` LLC read misses, with a
    /// uniform jitter of up to `jitter` events added to each interval.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable(&mut self, period: u64, jitter: u64) {
        assert!(period > 0, "sampling period must be positive");
        self.enabled = true;
        self.period = period;
        self.jitter = jitter;
        self.countdown = self.next_interval();
    }

    /// Disables sampling, keeping buffered records.
    pub(crate) fn disable(&mut self) {
        self.enabled = false;
    }

    /// Reseeds the jitter RNG. The paper repeats every experiment ten
    /// times; varying the sampling seed is the simulator's source of
    /// run-to-run variation.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.rng = SmallRng::seed_from_u64(seed);
    }

    fn next_interval(&mut self) -> u64 {
        if self.jitter == 0 {
            self.period
        } else {
            self.period + self.rng.gen_range(0..=self.jitter)
        }
    }

    /// Feeds one LLC read-miss event at `vaddr`. Called by the machine's
    /// access path; cheap when disabled. Returns `true` when this event
    /// deposited a record (the caller charges the PMU interrupt cost).
    #[inline]
    pub fn on_read_miss(&mut self, vaddr: VirtAddr) -> bool {
        if !self.enabled {
            return false;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.buffer.push(SampleRecord { vaddr });
            self.countdown = self.next_interval();
            return true;
        }
        false
    }

    /// Drains and returns all buffered records.
    pub(crate) fn drain(&mut self) -> Vec<SampleRecord> {
        std::mem::take(&mut self.buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut p = Pebs::new(1);
        for i in 0..100 {
            p.on_read_miss(VirtAddr::new(i));
        }
        assert!(p.drain().is_empty());
    }

    #[test]
    fn period_without_jitter_is_exact() {
        let mut p = Pebs::new(1);
        p.enable(10, 0);
        for i in 0..100 {
            p.on_read_miss(VirtAddr::new(i));
        }
        let records = p.drain();
        assert_eq!(records.len(), 10);
        assert_eq!(records[0].vaddr, VirtAddr::new(9));
        assert_eq!(records[1].vaddr, VirtAddr::new(19));
        assert!(p.drain().is_empty());
    }

    #[test]
    fn jitter_bounds_sample_count() {
        let mut p = Pebs::new(42);
        p.enable(10, 5);
        for i in 0..1000 {
            p.on_read_miss(VirtAddr::new(i));
        }
        let n = p.drain().len();
        // Period in [10, 15] => between 1000/15 and 1000/10 samples.
        assert!((66..=100).contains(&n), "unexpected sample count {n}");
    }

    #[test]
    fn disable_keeps_buffer() {
        let mut p = Pebs::new(1);
        p.enable(1, 0);
        p.on_read_miss(VirtAddr::new(7));
        p.disable();
        p.on_read_miss(VirtAddr::new(8));
        let records = p.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].vaddr, VirtAddr::new(7));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = |seed| {
            let mut p = Pebs::new(seed);
            p.enable(8, 4);
            for i in 0..500 {
                p.on_read_miss(VirtAddr::new(i));
            }
            p.drain()
        };
        assert_eq!(run(7), run(7));
    }
}
