//! The lightweight sampling profiler (paper §5.1).
//!
//! The profiler programs the machine's PEBS unit to sample LLC read misses
//! and, when profiling stops, drains the sample buffer and attributes every
//! record to a (data object, chunk) pair in the registry. The sampling
//! period is chosen empirically from the total chunk count and the
//! application thread count, unless the configuration pins it.

use atmem_hms::{Machine, SampleRecord};

use crate::config::SamplingConfig;
use crate::registry::Registry;

/// Random jitter added to each sampling interval, as a fraction of the
/// period, to avoid aliasing with strided accesses.
const JITTER_FRAC: f64 = 0.25;

/// Outcome of one profiling session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSummary {
    /// Records drained from the sampling buffer.
    pub samples: u64,
    /// Records that landed inside a registered object.
    pub attributed: u64,
    /// The sampling period used.
    pub period: u64,
}

/// Controls a profiling session over one machine.
#[derive(Debug, Default)]
pub struct Profiler {
    active: bool,
    period: u64,
    summary: ProfileSummary,
    last_records: Vec<SampleRecord>,
}

impl Profiler {
    /// Creates an idle profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Whether a session is active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The summary of the most recently completed session.
    pub fn last_summary(&self) -> ProfileSummary {
        self.summary
    }

    /// The raw sample records of the most recently completed session, in
    /// buffer (access) order. The ATMem analyzer works from the attributed
    /// per-chunk counts; the AutoNUMA baseline consumes this raw stream
    /// directly for its page-touch bookkeeping.
    pub fn last_records(&self) -> &[SampleRecord] {
        &self.last_records
    }

    /// Picks the empirical sampling period: enough expected samples to give
    /// every chunk a chance to be observed, without flooding the buffer.
    ///
    /// The heuristic targets ~64 samples per chunk if misses were spread
    /// evenly, assuming roughly one LLC miss per 16 bytes of registered
    /// data per iteration (graph kernels touch each edge once or twice and
    /// the cache absorbs part of it), and scales the period up with the
    /// thread count, as the paper's runtime does to bound per-PMU
    /// interrupt pressure.
    pub fn auto_period(registry: &Registry, app_threads: usize) -> u64 {
        let chunks = registry.total_chunks().max(1) as u64;
        let bytes = registry.total_bytes().max(1) as u64;
        let expected_misses = bytes / 16;
        let wanted_samples = (64 * chunks).min(1 << 21);
        let period = expected_misses / wanted_samples.max(1);
        let thread_scale = (app_threads as u64 / 32).max(1);
        // The floor keeps profiling overhead under the paper's 10% bound:
        // one in `period` misses pays the PMU interrupt, so overhead is
        // roughly 1/period of the iteration.
        (period * thread_scale).clamp(16, 65_536)
    }

    /// Starts sampling on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active (callers gate on
    /// [`Profiler::is_active`]).
    pub fn start(&mut self, machine: &mut Machine, registry: &Registry, config: &SamplingConfig) {
        assert!(!self.active, "profiling already active");
        let period = config
            .period
            .unwrap_or_else(|| Self::auto_period(registry, machine.platform().cost.app_threads));
        let jitter = (period as f64 * JITTER_FRAC) as u64;
        machine.pebs_reseed(config.rng_seed);
        machine.pebs_enable(period, jitter);
        self.active = true;
        self.period = period;
    }

    /// Stops sampling and attributes all drained records to the registry.
    ///
    /// # Panics
    ///
    /// Panics if no session is active.
    pub fn stop(&mut self, machine: &mut Machine, registry: &mut Registry) -> ProfileSummary {
        assert!(self.active, "profiling not active");
        machine.pebs_disable();
        let records = machine.pebs_drain();
        let mut attributed = 0u64;
        for rec in &records {
            if registry.attribute(rec.vaddr).is_some() {
                attributed += 1;
            }
        }
        self.active = false;
        self.summary = ProfileSummary {
            samples: records.len() as u64,
            attributed,
            period: self.period,
        };
        self.last_records = records;
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk_geometry;
    use crate::config::ChunkConfig;
    use atmem_hms::{MemPort, Placement, Platform};

    fn setup() -> (Machine, Registry) {
        let mut machine = Machine::new(Platform::testing());
        let range = machine.alloc(1024 * 1024, Placement::Slow).unwrap();
        let mut registry = Registry::new();
        let g = chunk_geometry(range.len, &ChunkConfig::default());
        registry.register("data", range, g);
        (machine, registry)
    }

    #[test]
    fn profile_session_attributes_samples() {
        let (mut machine, mut registry) = setup();
        let range = registry.iter().next().unwrap().range();
        let mut profiler = Profiler::new();
        profiler.start(
            &mut machine,
            &registry,
            &SamplingConfig {
                period: Some(4),
                rng_seed: 1,
            },
        );
        assert!(profiler.is_active());
        // Strided reads: every access misses (stride > line).
        for i in 0..4096u64 {
            let _ = machine
                .read::<u64>(range.start.add((i * 256) % range.len as u64))
                .unwrap();
        }
        let summary = profiler.stop(&mut machine, &mut registry);
        assert!(!profiler.is_active());
        assert!(summary.samples > 100, "samples {}", summary.samples);
        assert_eq!(summary.samples, summary.attributed);
        let obj = registry.iter().next().unwrap();
        assert_eq!(obj.total_samples(), summary.attributed);
    }

    #[test]
    fn auto_period_scales_with_data_size() {
        let (_machine, registry) = setup();
        let small = Profiler::auto_period(&registry, 1);
        assert!((16..=65_536).contains(&small));
        // An empty registry still yields a sane period.
        let empty = Registry::new();
        let p = Profiler::auto_period(&empty, 48);
        assert!((16..=65_536).contains(&p));
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn stop_without_start_panics() {
        let (mut machine, mut registry) = setup();
        Profiler::new().stop(&mut machine, &mut registry);
    }

    #[test]
    fn samples_outside_registry_are_unattributed() {
        let mut machine = Machine::new(Platform::testing());
        let range = machine.alloc(256 * 1024, Placement::Slow).unwrap();
        let mut registry = Registry::new(); // nothing registered
        let mut profiler = Profiler::new();
        profiler.start(
            &mut machine,
            &registry,
            &SamplingConfig {
                period: Some(2),
                rng_seed: 1,
            },
        );
        for i in 0..512u64 {
            let _ = machine
                .read::<u64>(range.start.add((i * 512) % range.len as u64))
                .unwrap();
        }
        let summary = profiler.stop(&mut machine, &mut registry);
        assert!(summary.samples > 0);
        assert_eq!(summary.attributed, 0);
    }
}
