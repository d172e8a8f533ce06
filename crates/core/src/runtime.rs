//! The ATMem runtime facade.
//!
//! [`Atmem`] mirrors the paper's minimal API (Listing 1):
//!
//! | paper                     | here                         |
//! |---------------------------|------------------------------|
//! | `atmem_malloc(size)`      | [`Atmem::malloc`] ([`Atmem::adopt`] for an input held elsewhere) |
//! | `atmem_free(ptr)`         | [`Atmem::free`]              |
//! | `atmem_profiling_start()` | [`Atmem::profiling_start`]   |
//! | `atmem_profiling_stop()`  | [`Atmem::profiling_stop`]    |
//! | `atmem_optimize()`        | [`Atmem::optimize`]          |
//!
//! The runtime owns the simulated [`Machine`]; applications allocate their
//! data structures through it (registering them as data objects), run one
//! iteration under profiling, call [`Atmem::optimize`], and keep running —
//! the paper's experimental protocol (§6). Under the paper's policy,
//! `optimize` is the one-tenant call of the optimize body a multi-tenant
//! [`Scheduler`](crate::serve::Scheduler) round runs for all its tenants.

use std::sync::Arc;

use atmem_hms::{Machine, Platform, Scalar, SimDuration, TierId, TrackedVec, VirtRange};

use crate::analyzer::{analyze, Analysis};
use crate::autonuma;
use crate::chunk::chunk_geometry;
use crate::config::{AtmemConfig, OptimizePolicy};
use crate::error::{AtmemError, Result};
use crate::migrate::{optimize_tenants, MigrationOutcome, MigrationPlan};
use crate::profiler::{ProfileSummary, Profiler};
use crate::registry::Registry;

/// Report returned by [`Atmem::optimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Analyzer outcome per object.
    pub analysis: Analysis,
    /// The plan that was executed.
    pub plan: MigrationPlan,
    /// Migration execution outcome.
    pub migration: MigrationOutcome,
    /// Demotion outcome, when `migration.allow_demotion` evicted stale
    /// regions before promotion.
    pub demotion: Option<MigrationOutcome>,
    /// Bytes registered across all data objects.
    pub total_bytes: usize,
    /// Fraction of registered bytes now resident on the fast tier
    /// (the paper's "data ratio", Figures 7–10).
    pub data_ratio: f64,
    /// Fraction of registered bytes resident on each tier, hottest first.
    /// Element 0 equals `data_ratio`; on a two-tier machine the vector is
    /// `[data_ratio, 1 - data_ratio]` up to rounding.
    pub data_ratio_vector: Vec<f64>,
    /// Profiling summary of the session feeding this optimization.
    pub profile: ProfileSummary,
}

impl std::fmt::Display for OptimizeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "optimize: {} sampled + {} promoted chunks -> {} regions, \
             {:.2} MiB moved in {} ({} skipped, {} failed, {:.2} MiB over budget)",
            self.analysis.sampled_chunks(),
            self.analysis.promoted_chunks(),
            self.migration.regions,
            self.migration.bytes_moved as f64 / (1 << 20) as f64,
            self.migration.time,
            self.migration.regions_skipped,
            self.migration.regions_failed,
            self.plan.dropped_bytes as f64 / (1 << 20) as f64,
        )?;
        if let Some(d) = &self.demotion {
            writeln!(
                f,
                "demotion: {:.2} MiB evicted in {}",
                d.bytes_moved as f64 / (1 << 20) as f64,
                d.time
            )?;
        }
        write!(
            f,
            "placement: {:.1}% of {:.2} MiB registered data on the fast tier \
             ({} samples at period {})",
            self.data_ratio * 100.0,
            self.total_bytes as f64 / (1 << 20) as f64,
            self.profile.samples,
            self.profile.period,
        )?;
        if self.data_ratio_vector.len() > 2 {
            let tiers: Vec<String> = self
                .data_ratio_vector
                .iter()
                .map(|r| format!("{:.1}%", r * 100.0))
                .collect();
            write!(f, "\nresidency (hottest tier first): {}", tiers.join(" / "))?;
        }
        Ok(())
    }
}

/// The per-tenant half of the runtime: everything one protocol instance
/// owns — its data-object registry, profiler, configuration and allocation
/// handles — without the machine underneath.
///
/// A solo [`Atmem`] bundles one `TenantRt` with a private machine. The
/// multi-tenant [`Scheduler`](crate::serve::Scheduler) instead keeps many
/// `TenantRt`s and time-shares a single machine between them, assembling a
/// full `Atmem` for the duration of one quantum and taking it apart again
/// afterwards.
#[derive(Debug)]
pub struct TenantRt {
    pub(crate) registry: Registry,
    pub(crate) profiler: Profiler,
    pub(crate) config: AtmemConfig,
    pub(crate) handles: Vec<VirtRange>,
    pub(crate) tag: u32,
}

impl TenantRt {
    /// Creates tenant state for `config`, tagged `tag`. The machine's
    /// residency accounting attributes every allocation made while this
    /// tenant holds the machine to `tag`, so per-tenant byte queries never
    /// rescan the mapping table.
    ///
    /// # Errors
    ///
    /// [`AtmemError::InvalidConfig`] if `config` fails validation.
    pub(crate) fn new(config: AtmemConfig, tag: u32) -> Result<Self> {
        config.validate()?;
        Ok(TenantRt {
            registry: Registry::new(),
            profiler: Profiler::new(),
            config,
            handles: Vec::new(),
            tag,
        })
    }

    /// The tenant's data-object registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The tenant's runtime configuration.
    pub fn config(&self) -> &AtmemConfig {
        &self.config
    }
}

/// The ATMem runtime: registry + profiler + analyzer + optimizer over one
/// simulated machine.
#[derive(Debug)]
pub struct Atmem {
    machine: Machine,
    tenant: TenantRt,
}

impl Atmem {
    /// Creates a runtime on a fresh machine.
    ///
    /// # Errors
    ///
    /// [`AtmemError::InvalidConfig`] if `config` fails validation.
    pub fn new(platform: Platform, config: AtmemConfig) -> Result<Self> {
        Ok(Atmem::from_parts(
            Machine::new(platform),
            TenantRt::new(config, 0)?,
        ))
    }

    /// Assembles a runtime from a machine and one tenant's state, pointing
    /// the machine's allocation tagging at the tenant. The scheduler calls
    /// this at the start of every quantum; pairing it with
    /// [`Atmem::into_parts`] round-trips both halves unchanged.
    pub(crate) fn from_parts(mut machine: Machine, tenant: TenantRt) -> Self {
        machine.set_alloc_tag(tenant.tag);
        Atmem { machine, tenant }
    }

    /// Disassembles the runtime into the machine and the tenant state (the
    /// inverse of [`Atmem::from_parts`]).
    pub(crate) fn into_parts(self) -> (Machine, TenantRt) {
        (self.machine, self.tenant)
    }

    /// The runtime configuration.
    pub fn config(&self) -> &AtmemConfig {
        &self.tenant.config
    }

    /// Shared access to the underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine (kernels pass this to
    /// [`TrackedVec`] accessors).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The data-object registry.
    pub fn registry(&self) -> &Registry {
        &self.tenant.registry
    }

    /// Allocates and registers a typed array of `len` elements
    /// (`atmem_malloc`). Placement follows the configured policy; the
    /// runtime chooses the adaptive chunk granularity from the object size
    /// (§4.1).
    ///
    /// # Errors
    ///
    /// Allocation failures from the memory system.
    pub fn malloc<T: Scalar>(&mut self, len: usize, name: &str) -> Result<TrackedVec<T>> {
        let placement = self.tenant.config.default_placement.placement();
        let vec = TrackedVec::<T>::new(&mut self.machine, len, placement)?;
        Ok(self.register(vec, name))
    }

    /// Allocates and registers a **read-only** array holding `values`, as
    /// [`malloc`](Atmem::malloc) does, without copying them into tier
    /// storage where it can ([`TrackedVec::adopt`]): the array's whole
    /// 4 KiB pages are `values` itself, kept alive by the `Arc`. The
    /// profiler and optimizer see it like any malloc'd array, and every
    /// simulated bit is the same; writes to it panic naming it.
    ///
    /// # Errors
    ///
    /// Allocation failures from the memory system.
    pub fn adopt<T: Scalar>(&mut self, values: Arc<Vec<T>>, name: &str) -> Result<TrackedVec<T>> {
        let placement = self.tenant.config.default_placement.placement();
        let vec = TrackedVec::adopt(&mut self.machine, values, placement)?;
        Ok(self.register(vec, name))
    }

    /// Names `vec` and registers it as a data object.
    fn register<T: Scalar>(&mut self, mut vec: TrackedVec<T>, name: &str) -> TrackedVec<T> {
        vec.set_name(name);
        let geometry = chunk_geometry(vec.range().len, &self.tenant.config.chunks);
        self.tenant.registry.register(name, vec.range(), geometry);
        self.tenant.handles.push(vec.range());
        vec
    }

    /// Frees and unregisters an array (`atmem_free`).
    ///
    /// # Errors
    ///
    /// [`AtmemError::Unregistered`] if the array was not allocated through
    /// this runtime; memory-system failures otherwise.
    pub fn free<T: Scalar>(&mut self, vec: TrackedVec<T>) -> Result<()> {
        let id = self
            .tenant
            .registry
            .object_at(vec.range().start)
            .ok_or(AtmemError::Unregistered(vec.range().start))?;
        self.tenant.registry.unregister(id);
        self.tenant.handles.retain(|r| r.start != vec.range().start);
        vec.free(&mut self.machine)?;
        Ok(())
    }

    /// Starts hardware sampling (`atmem_profiling_start`).
    ///
    /// # Errors
    ///
    /// [`AtmemError::ProfilingActive`] if already profiling.
    pub fn profiling_start(&mut self) -> Result<()> {
        if self.tenant.profiler.is_active() {
            return Err(AtmemError::ProfilingActive);
        }
        self.tenant.registry.reset_samples();
        self.tenant.profiler.start(
            &mut self.machine,
            &self.tenant.registry,
            &self.tenant.config.sampling,
        );
        Ok(())
    }

    /// Stops sampling and attributes samples (`atmem_profiling_stop`).
    ///
    /// # Errors
    ///
    /// [`AtmemError::ProfilingNotActive`] if not profiling.
    pub fn profiling_stop(&mut self) -> Result<ProfileSummary> {
        if !self.tenant.profiler.is_active() {
            return Err(AtmemError::ProfilingNotActive);
        }
        Ok(self
            .tenant
            .profiler
            .stop(&mut self.machine, &mut self.tenant.registry))
    }

    /// Analyzes the profile and migrates critical regions toward the hot
    /// end of the tier order (`atmem_optimize`), under the configured
    /// [`OptimizePolicy`]. The paper's protocol, by default, is the
    /// one-tenant call of the optimize body a
    /// [`Scheduler`](crate::serve::Scheduler) round makes for all its
    /// tenants: plan, demotion cascade on N tiers, admission under the
    /// promotion target's budget, staged migration. The AutoNUMA
    /// OS-tiering baseline runs when selected.
    ///
    /// # Errors
    ///
    /// [`AtmemError::ProfilingActive`] if called mid-profiling; migration
    /// failures otherwise.
    pub fn optimize(&mut self) -> Result<OptimizeReport> {
        if self.tenant.profiler.is_active() {
            return Err(AtmemError::ProfilingActive);
        }
        let tenant = &self.tenant;
        let (analysis, plan, migration, demotion) = match tenant.config.policy {
            OptimizePolicy::Atmem => {
                let analysis = analyze(&tenant.registry, &tenant.config.analyzer);
                let out = optimize_tenants(
                    &mut self.machine,
                    &[(&tenant.registry, &analysis)],
                    &tenant.config.migration,
                )?;
                (analysis, out.plan, out.promotion, out.demotion)
            }
            // Page-granular promote-on-second-touch from the raw sample
            // stream, then watermark demotion, both through `mbind` (see
            // [`OptimizePolicy::Autonuma`]). The OS baseline has no chunk
            // analysis; the report carries an empty one.
            OptimizePolicy::Autonuma => {
                let out = autonuma::run(
                    &mut self.machine,
                    &tenant.registry,
                    tenant.profiler.last_records(),
                )?;
                let analysis = Analysis {
                    objects: Vec::new(),
                };
                (analysis, out.plan, out.promotion, out.demotion)
            }
        };
        Ok(OptimizeReport {
            data_ratio: self.fast_data_ratio(),
            data_ratio_vector: self.data_ratio_vector(),
            analysis,
            plan,
            migration,
            demotion,
            total_bytes: self.tenant.registry.total_bytes(),
            profile: self.tenant.profiler.last_summary(),
        })
    }

    /// Fraction of registered bytes currently resident on the fast tier,
    /// served from the machine's incremental residency counters.
    pub fn fast_data_ratio(&self) -> f64 {
        residency_ratio(&self.machine, &self.tenant.registry, TierId::FAST)
    }

    /// Fraction of registered bytes resident on each tier, hottest first.
    /// Element 0 is [`Atmem::fast_data_ratio`], bit for bit.
    pub fn data_ratio_vector(&self) -> Vec<f64> {
        (0..self.machine.num_tiers())
            .map(|t| residency_ratio(&self.machine, &self.tenant.registry, TierId::new(t)))
            .collect()
    }

    /// Current simulated time (convenience passthrough).
    pub fn now(&self) -> SimDuration {
        self.machine.now()
    }
}

/// Fraction of `registry`'s bytes resident on `tier` (0 for an empty
/// registry). Each object is answered from the machine's incremental
/// per-allocation residency counter (constant-time); the page rescan
/// remains only as a fallback for ranges the cache does not cover, so
/// per-tenant per-quantum ratio queries never walk the mapping table.
pub(crate) fn residency_ratio(machine: &Machine, registry: &Registry, tier: TierId) -> f64 {
    let total = registry.total_bytes();
    if total == 0 {
        return 0.0;
    }
    let bytes: usize = registry
        .iter()
        .map(|o| {
            machine
                .allocation_resident(o.range().start, tier)
                .unwrap_or_else(|| machine.resident_bytes(o.range(), tier))
        })
        .sum();
    bytes as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementPolicy;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    /// Drives a skewed access pattern over one array: 90% of reads hit the
    /// first `hot_frac` of the elements.
    fn skewed_reads(rt: &mut Atmem, v: &TrackedVec<u64>, reads: usize, hot_frac: f64) {
        let n = v.len();
        let hot = ((n as f64 * hot_frac) as usize).max(1);
        for i in 0..reads {
            let idx = if i % 10 < 9 {
                (i * 7919) % hot
            } else {
                hot + (i * 104729) % (n - hot)
            };
            let _ = v.get(rt.machine_mut(), idx);
        }
    }

    #[test]
    fn full_pipeline_selects_and_migrates_the_hot_region() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(512 * 1024, "data").unwrap(); // 4 MiB
        rt.profiling_start().unwrap();
        skewed_reads(&mut rt, &v, 200_000, 0.10);
        let summary = rt.profiling_stop().unwrap();
        assert!(summary.attributed > 0);

        let report = rt.optimize().unwrap();
        assert!(
            report.migration.bytes_moved > 0,
            "hot region should migrate: {report:?}"
        );
        let ratio = report.data_ratio;
        assert!(
            ratio > 0.05 && ratio < 0.5,
            "expected a selective ratio, got {ratio}"
        );
        // The hot prefix should now be fast.
        let hot_addr = v.addr_of(100);
        assert_eq!(rt.machine_mut().tier_of(hot_addr).unwrap(), TierId::FAST);
    }

    #[test]
    fn optimize_speeds_up_the_next_iteration() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(512 * 1024, "data").unwrap();
        rt.profiling_start().unwrap();
        skewed_reads(&mut rt, &v, 100_000, 0.08);
        rt.profiling_stop().unwrap();

        // Unoptimized iteration time.
        let t0 = rt.now();
        skewed_reads(&mut rt, &v, 100_000, 0.08);
        let before = rt.now().as_ns() - t0.as_ns();

        rt.optimize().unwrap();

        let t1 = rt.now();
        skewed_reads(&mut rt, &v, 100_000, 0.08);
        let after = rt.now().as_ns() - t1.as_ns();
        assert!(
            after < 0.8 * before,
            "optimized iteration {after} vs baseline {before}"
        );
    }

    #[test]
    fn data_intact_after_optimize() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(64 * 1024, "data").unwrap();
        for i in 0..v.len() {
            v.poke(rt.machine_mut(), i, (i as u64) << 7 | 1);
        }
        rt.profiling_start().unwrap();
        skewed_reads(&mut rt, &v, 50_000, 0.15);
        rt.profiling_stop().unwrap();
        rt.optimize().unwrap();
        for i in 0..v.len() {
            assert_eq!(v.peek(rt.machine_mut(), i), (i as u64) << 7 | 1);
        }
    }

    #[test]
    fn optimize_report_displays_a_summary() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(256 * 1024, "data").unwrap();
        rt.profiling_start().unwrap();
        skewed_reads(&mut rt, &v, 80_000, 0.1);
        rt.profiling_stop().unwrap();
        let report = rt.optimize().unwrap();
        let text = report.to_string();
        assert!(text.contains("optimize:"), "{text}");
        assert!(text.contains("placement:"), "{text}");
        assert!(text.contains("fast tier"), "{text}");
    }

    #[test]
    fn failed_regions_are_retried_on_the_next_optimize() {
        use atmem_hms::{FaultPlan, FaultSite};
        let mut rt = runtime();
        let v = rt.malloc::<u64>(512 * 1024, "data").unwrap();
        rt.profiling_start().unwrap();
        skewed_reads(&mut rt, &v, 100_000, 0.08);
        rt.profiling_stop().unwrap();

        // Fail the first remap: that region rolls back to the slow tier and
        // is counted as failed, not silently dropped.
        rt.machine_mut()
            .set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Remap, 0)));
        let r1 = rt.optimize().unwrap();
        assert!(r1.migration.regions_failed >= 1, "{r1:?}");
        assert_eq!(
            r1.migration.bytes_moved + r1.migration.bytes_skipped + r1.migration.bytes_failed,
            r1.plan.total_bytes
        );
        let degraded = rt.fast_data_ratio();

        // Samples persist until the next profiling_start, so the next round
        // replans the rolled-back region; the scripted fault is consumed and
        // the retry lands it on the fast tier.
        let r2 = rt.optimize().unwrap();
        assert!(r2.migration.bytes_moved > 0, "{r2:?}");
        assert_eq!(r2.migration.regions_failed, 0, "{r2:?}");
        assert!(
            rt.fast_data_ratio() > degraded,
            "retry should recover placement: {} -> {}",
            degraded,
            rt.fast_data_ratio()
        );
        let violations = rt.machine_mut().audit();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn api_misuse_is_rejected() {
        let mut rt = runtime();
        assert!(matches!(
            rt.profiling_stop(),
            Err(AtmemError::ProfilingNotActive)
        ));
        rt.profiling_start().unwrap();
        assert!(matches!(
            rt.profiling_start(),
            Err(AtmemError::ProfilingActive)
        ));
        assert!(matches!(rt.optimize(), Err(AtmemError::ProfilingActive)));
        rt.profiling_stop().unwrap();
    }

    #[test]
    fn malloc_respects_placement_policy() {
        let mut rt = Atmem::new(
            Platform::testing(),
            AtmemConfig::default().with_placement(PlacementPolicy::AllFast),
        )
        .unwrap();
        let v = rt.malloc::<u32>(1024, "x").unwrap();
        assert_eq!(rt.fast_data_ratio(), 1.0);
        rt.free(v).unwrap();
        assert_eq!(rt.registry().len(), 0);
    }

    #[test]
    fn optimize_without_profiling_is_a_noop_plan() {
        let mut rt = runtime();
        let _v = rt.malloc::<u64>(64 * 1024, "cold").unwrap();
        let report = rt.optimize().unwrap();
        assert!(report.plan.is_empty());
        assert_eq!(report.migration.bytes_moved, 0);
        assert_eq!(report.data_ratio, 0.0);
    }

    #[test]
    fn parts_round_trip_preserves_state_and_cached_ratio() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(128 * 1024, "data").unwrap();
        rt.profiling_start().unwrap();
        skewed_reads(&mut rt, &v, 60_000, 0.1);
        rt.profiling_stop().unwrap();
        rt.optimize().unwrap();
        let ratio = rt.fast_data_ratio();
        assert!(ratio > 0.0);
        // The incremental counters agree with a full mapping-table rescan.
        let rescan: usize = rt
            .registry()
            .iter()
            .map(|o| rt.machine().resident_bytes(o.range(), TierId::FAST))
            .sum();
        let total = rt.registry().total_bytes();
        assert_eq!(ratio, rescan as f64 / total as f64);
        // Disassemble and reassemble: nothing observable changes.
        let (machine, tenant) = rt.into_parts();
        assert_eq!(tenant.tag, 0);
        let rt = Atmem::from_parts(machine, tenant);
        assert_eq!(rt.fast_data_ratio(), ratio);
    }

    #[test]
    fn free_unknown_vec_is_an_error() {
        let mut rt = runtime();
        let mut other = Machine::new(Platform::testing());
        let foreign = TrackedVec::<u32>::new(&mut other, 16, atmem_hms::Placement::Slow).unwrap();
        assert!(matches!(rt.free(foreign), Err(AtmemError::Unregistered(_))));
    }
}
