//! Multi-tenant serving: many protocol instances over one machine.
//!
//! A solo [`Atmem`] assumes it owns the machine: one registry, one
//! profiler, one fast-tier budget. A serving deployment runs *N*
//! independent protocol instances — mixed kernels, mixed datasets, each
//! with its own configuration — on the same box, and the fast tier is a
//! single shared resource. [`Scheduler`] multiplexes the instances:
//!
//! * **Quantum interleaving** — exactly one tenant holds the machine at a
//!   time. [`Scheduler::run_quantum`] assembles a full [`Atmem`] from the
//!   shared machine and that tenant's [`TenantRt`] (registry + profiler +
//!   config + allocation tag), runs the closure, and takes it apart again.
//!   The machine's allocation tagging attributes every byte the quantum
//!   touches to the tenant, so per-tenant residency queries are
//!   constant-time reads of the incremental counters.
//! * **Shared-tier arbitration** — [`Scheduler::optimize_round`]
//!   generalizes the solo optimizer server-wide: each tenant's profile is
//!   analyzed with *its own* analyzer configuration (Eq. 1–5 are
//!   per-tenant statistics), then all candidate regions compete for the
//!   one fast tier in a single gain-per-byte order. A hot tenant can take
//!   fast bytes a mild co-tenant would strand under a static partition.
//! * **Determinism** — candidate order is total (priority density, ties
//!   broken by virtual address, which is globally unique across tenants),
//!   quanta are explicit, and the simulated clock only advances inside
//!   quanta or via [`Scheduler::advance_clock`]. With one tenant the
//!   round reduces *bit-identically* to [`Atmem::optimize`]: same
//!   candidates, same order, same budget, same execution path.
//!
//! Accounting lives in [`TenantStats`] (migration traffic plus the
//! simulated latency of every recorded query, with nearest-rank
//! percentiles for p50/p99 reporting) and the per-round [`RoundReport`].

use atmem_hms::{Machine, Platform, SimDuration, TierId};

use crate::analyzer::{analyze, Analysis};
use crate::config::{AtmemConfig, MigrationConfig};
use crate::error::{AtmemError, Result};
use crate::migrate::plan::{
    demotion_candidates, evict_coldest_until, hotter_first, promotion_budget, promotion_candidates,
    promotion_demand, PlannedRegion,
};
use crate::migrate::{execute_regions, MigrationOutcome, RegionStatus};
use crate::runtime::{fast_ratio_of, Atmem, TenantRt};

/// Cumulative per-tenant accounting across a serving session.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Bytes this tenant promoted to the fast tier across all rounds.
    pub bytes_promoted: usize,
    /// Bytes this tenant had demoted to make room, across all rounds.
    pub bytes_demoted: usize,
    /// Planned regions that did not move (skipped or rolled back).
    pub regions_not_moved: usize,
    /// Simulated latency of every query recorded for this tenant, in
    /// completion order.
    pub latencies: Vec<SimDuration>,
}

impl TenantStats {
    /// Nearest-rank percentile of the recorded query latencies: the
    /// smallest latency such that at least `p`% of queries finished within
    /// it. Zero if no queries were recorded. `p` is clamped to (0, 100].
    pub fn latency_percentile(&self, p: f64) -> SimDuration {
        if self.latencies.is_empty() {
            return SimDuration::from_ns(0.0);
        }
        let mut ns: Vec<f64> = self.latencies.iter().map(|d| d.as_ns()).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = ns.len();
        let rank = ((p.clamp(f64::MIN_POSITIVE, 100.0) / 100.0) * n as f64).ceil() as usize;
        SimDuration::from_ns(ns[rank.clamp(1, n) - 1])
    }
}

/// One tenant's slice of a [`RoundReport`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantRound {
    /// Bytes moved to the fast tier for this tenant this round.
    pub bytes_promoted: usize,
    /// Bytes evicted to the slow tier for this tenant this round.
    pub bytes_demoted: usize,
    /// Fraction of the tenant's registered bytes fast-resident after the
    /// round.
    pub fast_data_ratio: f64,
}

/// Outcome of one server-wide [`Scheduler::optimize_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Eviction outcome, when the server config allows demotion and the
    /// round evicted stale regions.
    pub demotion: Option<MigrationOutcome>,
    /// Promotion outcome across all tenants.
    pub promotion: MigrationOutcome,
    /// Candidate bytes that lost the arbitration (over budget).
    pub dropped_bytes: usize,
    /// Per-tenant attribution, indexed by tenant id.
    pub tenants: Vec<TenantRound>,
}

/// Deterministic multi-tenant scheduler: N protocol instances, one
/// machine, one shared fast tier. See the [module docs](self) for the
/// model.
#[derive(Debug)]
pub struct Scheduler {
    machine: Option<Machine>,
    tenants: Vec<Option<TenantRt>>,
    stats: Vec<TenantStats>,
    migration: MigrationConfig,
}

impl Scheduler {
    /// Creates a scheduler on a fresh machine. `migration` is the
    /// *server's* policy for the shared fast tier (budget fraction,
    /// region cap, mechanism, demotion) — tenant configs govern only
    /// their own chunking, sampling and analysis.
    pub fn new(platform: Platform, migration: MigrationConfig) -> Self {
        Scheduler {
            machine: Some(Machine::new(platform)),
            tenants: Vec::new(),
            stats: Vec::new(),
            migration,
        }
    }

    /// Registers a tenant and returns its id (dense, starting at 0).
    /// Allocation tags start at 1 so tenant bytes never mingle with
    /// untagged (tag 0) bookkeeping allocations.
    ///
    /// # Errors
    ///
    /// [`AtmemError::InvalidConfig`] if `config` fails validation.
    pub fn add_tenant(&mut self, config: AtmemConfig) -> Result<usize> {
        let idx = self.tenants.len();
        let tenant = TenantRt::new(config, idx as u32 + 1)?;
        self.tenants.push(Some(tenant));
        self.stats.push(TenantStats::default());
        Ok(idx)
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Runs one quantum for tenant `idx`: assembles a full [`Atmem`] from
    /// the shared machine and the tenant's state, runs `f`, and puts both
    /// halves back. Panics if `idx` is out of range or if `f` itself
    /// re-enters the scheduler (the machine is checked out for the
    /// duration of the quantum).
    pub fn run_quantum<R>(&mut self, idx: usize, f: impl FnOnce(&mut Atmem) -> R) -> R {
        let machine = self.machine.take().expect("machine checked out");
        let tenant = self.tenants[idx].take().expect("tenant checked out");
        let mut rt = Atmem::from_parts(machine, tenant);
        let out = f(&mut rt);
        let (machine, tenant) = rt.into_parts();
        self.machine = Some(machine);
        self.tenants[idx] = Some(tenant);
        out
    }

    /// One server-wide optimize round. Per tenant, the profile is
    /// analyzed under the tenant's own analyzer config; the resulting
    /// candidate regions then compete globally:
    ///
    /// 1. if the server allows demotion, stale fast residue across *all*
    ///    tenants is evicted coldest-first, but only until the prospective
    ///    budget covers the total promotion demand;
    /// 2. all promotion candidates are admitted hottest-first into the
    ///    shared budget ([`promotion_budget`] over the machine's free
    ///    fast bytes), regardless of owner.
    ///
    /// Moved bytes are attributed to their tenants from the per-region
    /// execution statuses.
    ///
    /// # Errors
    ///
    /// [`AtmemError::ProfilingActive`] if any tenant is mid-profiling;
    /// migration failures otherwise.
    pub fn optimize_round(&mut self) -> Result<RoundReport> {
        if self
            .tenants
            .iter()
            .flatten()
            .any(|t| t.profiler.is_active())
        {
            return Err(AtmemError::ProfilingActive);
        }
        let analyses: Vec<Analysis> = self
            .tenants
            .iter()
            .map(|t| {
                let t = t.as_ref().expect("tenant checked out");
                analyze(&t.registry, &t.config.analyzer)
            })
            .collect();
        let machine = self.machine.as_mut().expect("machine checked out");
        let n = self.tenants.len();
        let mut rounds = vec![TenantRound::default(); n];

        // Tag each candidate with its owner; ordering ignores the tag (the
        // address tiebreak is already total across tenants).
        let owned_candidates =
            |f: &dyn Fn(usize) -> Vec<PlannedRegion>| -> Vec<(usize, PlannedRegion)> {
                (0..n)
                    .flat_map(|i| f(i).into_iter().map(move |r| (i, r)))
                    .collect()
            };
        let tenant = |i: usize| self.tenants[i].as_ref().expect("tenant checked out");

        let demotion = if self.migration.allow_demotion {
            // Server-wide demand: slow-resident bytes the union of all
            // tenants' selections wants on the fast tier.
            let demand: usize = (0..n)
                .map(|i| {
                    let wanted =
                        promotion_candidates(&tenant(i).registry, &analyses[i], &self.migration);
                    promotion_demand(machine, &wanted, TierId::FAST)
                })
                .sum();
            let candidates = owned_candidates(&|i| {
                demotion_candidates(
                    &tenant(i).registry,
                    &analyses[i],
                    machine,
                    &self.migration,
                    TierId::FAST,
                )
            });
            let free = machine.free_bytes(TierId::FAST);
            let (admitted, _kept) = evict_coldest_until(
                machine,
                TierId::FAST,
                candidates,
                |(_, region)| region,
                |freed| promotion_budget(free + freed, &self.migration) >= demand,
            );
            let regions: Vec<PlannedRegion> = admitted.iter().map(|(_, r)| *r).collect();
            // The round demotes one hop down from the hottest tier; unlike
            // the solo optimizer it runs no cascade — on an N-tier machine
            // pressure on the middle tiers surfaces as skipped regions, and
            // the next round retries them.
            let demote_to = TierId::FAST
                .colder(machine.num_tiers())
                .unwrap_or(TierId::FAST);
            let (outcome, statuses) =
                execute_regions(machine, &regions, &self.migration, demote_to)?;
            for ((owner, region), status) in admitted.iter().zip(&statuses) {
                match status {
                    RegionStatus::Moved => rounds[*owner].bytes_demoted += region.range.len,
                    RegionStatus::Skipped | RegionStatus::Failed => {
                        self.stats[*owner].regions_not_moved += 1
                    }
                }
            }
            Some(outcome)
        } else {
            None
        };

        let budget = promotion_budget(machine.free_bytes(TierId::FAST), &self.migration);
        let mut candidates = owned_candidates(&|i| {
            promotion_candidates(&tenant(i).registry, &analyses[i], &self.migration)
        });
        candidates.sort_by(|a, b| hotter_first(&a.1, &b.1));
        let mut admitted: Vec<(usize, PlannedRegion)> = Vec::new();
        let mut total = 0usize;
        let mut dropped_bytes = 0usize;
        for (owner, region) in candidates {
            if total + region.range.len <= budget {
                total += region.range.len;
                admitted.push((owner, region));
            } else {
                dropped_bytes += region.range.len;
            }
        }
        let regions: Vec<PlannedRegion> = admitted.iter().map(|(_, r)| *r).collect();
        let (promotion, statuses) =
            execute_regions(machine, &regions, &self.migration, TierId::FAST)?;
        for ((owner, region), status) in admitted.iter().zip(&statuses) {
            match status {
                RegionStatus::Moved => rounds[*owner].bytes_promoted += region.range.len,
                RegionStatus::Skipped | RegionStatus::Failed => {
                    self.stats[*owner].regions_not_moved += 1
                }
            }
        }

        for (i, round) in rounds.iter_mut().enumerate() {
            round.fast_data_ratio = fast_ratio_of(machine, &tenant(i).registry);
            self.stats[i].bytes_promoted += round.bytes_promoted;
            self.stats[i].bytes_demoted += round.bytes_demoted;
        }
        Ok(RoundReport {
            demotion,
            promotion,
            dropped_bytes,
            tenants: rounds,
        })
    }

    /// Shared access to the machine (outside any quantum).
    pub fn machine(&self) -> &Machine {
        self.machine.as_ref().expect("machine checked out")
    }

    /// Mutable access to the machine (outside any quantum).
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("machine checked out")
    }

    /// Current simulated time.
    pub fn now(&self) -> SimDuration {
        self.machine().now()
    }

    /// Advances the simulated clock by `d` — idle time between query
    /// arrivals, which no quantum accounts for.
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.machine_mut().advance_clock(d);
    }

    /// Records one completed query latency for tenant `idx`.
    pub fn record_latency(&mut self, idx: usize, latency: SimDuration) {
        self.stats[idx].latencies.push(latency);
    }

    /// Cumulative accounting for tenant `idx`.
    pub fn stats(&self, idx: usize) -> &TenantStats {
        &self.stats[idx]
    }

    /// The tenant's runtime state (outside its quantum).
    pub fn tenant(&self, idx: usize) -> &TenantRt {
        self.tenants[idx].as_ref().expect("tenant checked out")
    }

    /// Fraction of tenant `idx`'s registered bytes on the fast tier.
    pub fn fast_data_ratio(&self, idx: usize) -> f64 {
        fast_ratio_of(self.machine(), &self.tenant(idx).registry)
    }

    /// Total bytes tenant `idx` has registered.
    pub fn tenant_total_bytes(&self, idx: usize) -> usize {
        self.tenant(idx).registry.total_bytes()
    }

    /// Bytes resident on `tier` attributed to tenant `idx`, from the
    /// machine's incremental tag counters.
    pub fn tenant_resident(&self, idx: usize, tier: TierId) -> usize {
        self.machine()
            .resident_bytes_by_tag(self.tenant(idx).tag, tier)
    }

    /// Per-tenant byte conservation: every registered byte is resident on
    /// exactly one of the machine's tiers, and the machine's tag counters
    /// agree with the registries. Returns one message per violation.
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let num_tiers = self.machine().num_tiers();
        for idx in 0..self.num_tenants() {
            let per_tier: Vec<usize> = (0..num_tiers)
                .map(|t| self.tenant_resident(idx, TierId::new(t)))
                .collect();
            let resident: usize = per_tier.iter().sum();
            let registered = self.tenant_total_bytes(idx);
            if resident != registered {
                violations.push(format!(
                    "tenant {idx}: per-tier residency {per_tier:?} sums to {resident}, \
                     not the {registered} bytes registered"
                ));
            }
        }
        violations
    }

    /// Full audit: the machine's own invariants plus per-tenant byte
    /// conservation. Empty means clean.
    pub fn audit(&mut self) -> Vec<String> {
        let mut violations = self.machine_mut().audit();
        violations.extend(self.conservation_violations());
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_hms::TrackedVec;

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
    fn single_tenant_round_matches_solo_optimize() {
        // The same profile driven through a solo runtime and through a
        // one-tenant scheduler must produce the identical placement.
        let config = AtmemConfig::default();
        let migration = config.migration;

        let mut solo = Atmem::new(Platform::testing(), config.clone()).unwrap();
        let v = solo.malloc::<u64>(256 * 1024, "data").unwrap();
        solo.profiling_start().unwrap();
        skewed_reads(&mut solo, &v, 120_000, 0.1);
        solo.profiling_stop().unwrap();
        let solo_report = solo.optimize().unwrap();

        let mut sched = Scheduler::new(Platform::testing(), migration);
        let t = sched.add_tenant(config).unwrap();
        sched.run_quantum(t, |rt| {
            let v = rt.malloc::<u64>(256 * 1024, "data").unwrap();
            rt.profiling_start().unwrap();
            skewed_reads(rt, &v, 120_000, 0.1);
            rt.profiling_stop().unwrap();
        });
        let round = sched.optimize_round().unwrap();

        assert_eq!(round.promotion, solo_report.migration);
        assert_eq!(round.dropped_bytes, solo_report.plan.dropped_bytes);
        assert_eq!(round.tenants[0].fast_data_ratio, solo_report.data_ratio);
        assert!(sched.audit().is_empty());
    }

    #[test]
    fn two_tenants_conserve_bytes_and_share_the_tier() {
        let mut sched = Scheduler::new(Platform::testing(), MigrationConfig::default());
        let a = sched.add_tenant(AtmemConfig::default()).unwrap();
        let b = sched.add_tenant(AtmemConfig::default()).unwrap();
        for (idx, reads) in [(a, 100_000), (b, 20_000)] {
            sched.run_quantum(idx, |rt| {
                let v = rt.malloc::<u64>(128 * 1024, "data").unwrap();
                rt.profiling_start().unwrap();
                skewed_reads(rt, &v, reads, 0.1);
                rt.profiling_stop().unwrap();
            });
        }
        let round = sched.optimize_round().unwrap();
        assert!(round.promotion.bytes_moved > 0);
        assert_eq!(
            round.tenants[a].bytes_promoted + round.tenants[b].bytes_promoted,
            round.promotion.bytes_moved
        );
        // The hot tenant wins more of the shared tier.
        assert!(round.tenants[a].bytes_promoted >= round.tenants[b].bytes_promoted);
        assert!(sched.audit().is_empty(), "{:?}", sched.audit());
        for idx in [a, b] {
            assert_eq!(
                sched.tenant_resident(idx, TierId::FAST) + sched.tenant_resident(idx, TierId::SLOW),
                sched.tenant_total_bytes(idx)
            );
        }
    }

    #[test]
    fn optimize_round_rejects_active_profiling() {
        let mut sched = Scheduler::new(Platform::testing(), MigrationConfig::default());
        let t = sched.add_tenant(AtmemConfig::default()).unwrap();
        sched.run_quantum(t, |rt| {
            rt.malloc::<u64>(1024, "x").unwrap();
            rt.profiling_start().unwrap();
        });
        assert!(matches!(
            sched.optimize_round(),
            Err(AtmemError::ProfilingActive)
        ));
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut stats = TenantStats::default();
        assert_eq!(stats.latency_percentile(50.0).as_ns(), 0.0);
        for ns in [40.0, 10.0, 30.0, 20.0] {
            stats.latencies.push(SimDuration::from_ns(ns));
        }
        assert_eq!(stats.latency_percentile(50.0).as_ns(), 20.0);
        assert_eq!(stats.latency_percentile(99.0).as_ns(), 40.0);
        assert_eq!(stats.latency_percentile(25.0).as_ns(), 10.0);
        assert_eq!(stats.latency_percentile(100.0).as_ns(), 40.0);
    }
}
