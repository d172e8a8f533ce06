//! Multi-tenant serving: many protocol instances over one machine.
//!
//! A solo [`Atmem`] assumes it owns the machine: one registry, one
//! profiler, one fast-tier budget. A serving deployment runs *N*
//! independent protocol instances — mixed kernels, mixed datasets, each
//! with its own configuration — on the same box, and the fast tier is a
//! single shared resource. [`Scheduler`] multiplexes the instances:
//!
//! * **Quantum interleaving** — exactly one tenant holds the machine at a
//!   time. The scheduler owns one [`Atmem`] holding the machine and every
//!   tenant's [`TenantRt`] (registry + profiler + config + allocation
//!   tag); [`Scheduler::run_quantum`] points it at one tenant and lends it
//!   to the closure, so a quantum cannot reach the scheduler. The
//!   machine's allocation tagging attributes every byte the quantum
//!   touches to the tenant, so per-tenant residency queries are
//!   constant-time reads of the incremental counters.
//! * **Shared-tier arbitration** — [`Scheduler::optimize_round`] is the
//!   solo optimizer's one body run for every tenant at once: each tenant's
//!   profile is analyzed with *its own* analyzer configuration (Eq. 1–5
//!   are per-tenant statistics), then the demotion cascade evicts stale
//!   residue across all tenants and all candidate regions compete for the
//!   promotion target in a single gain-per-byte order. A hot tenant can
//!   take fast bytes a mild co-tenant would strand under a static
//!   partition.
//! * **Determinism** — candidate order is total (priority density, ties
//!   broken by virtual address, which is globally unique across tenants),
//!   quanta are explicit, and the simulated clock only advances inside
//!   quanta or via [`Scheduler::advance_clock`]. With one tenant the
//!   round *is* [`Atmem::optimize`] — the same body on the same inputs —
//!   so it is bit-identical to it on every platform.
//!
//! Accounting lives in [`TenantStats`] (migration traffic plus the
//! simulated latency of every recorded query, with nearest-rank
//! percentiles for p50/p99 reporting) and the per-round [`RoundReport`].

use atmem_hms::{Machine, Platform, SimDuration, TierId};

use crate::analyzer::{analyze, Analysis};
use crate::config::{AtmemConfig, MigrationConfig, OptimizePolicy};
use crate::error::{AtmemError, Result};
use crate::migrate::{optimize_tenants, MigrationOutcome};
use crate::registry::Registry;
use crate::runtime::{residency_ratio, Atmem, TenantRt};

/// Cumulative per-tenant accounting across a serving session.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Bytes this tenant had promoted across all rounds.
    pub bytes_promoted: usize,
    /// Bytes this tenant had demoted to make room, across all rounds
    /// (every hop of a cascade counts).
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
    /// Bytes promoted for this tenant this round.
    pub bytes_promoted: usize,
    /// Bytes demoted for this tenant this round, summed over the hops of
    /// the cascade.
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
/// machine, one shared fast tier. The module docs of
/// `crates/core/src/serve.rs` give the model.
#[derive(Debug)]
pub struct Scheduler {
    rt: Atmem,
    stats: Vec<TenantStats>,
    migration: MigrationConfig,
}

impl Scheduler {
    /// Creates a scheduler on a fresh machine. `migration` is the
    /// *server's* policy for the shared fast tier (budget fraction,
    /// region cap, mechanism, demotion) — tenant configs govern only
    /// their own chunking, sampling and analysis. It is validated against
    /// each tenant's chunk size in [`Scheduler::add_tenant`].
    pub fn new(platform: Platform, migration: MigrationConfig) -> Self {
        Scheduler {
            rt: Atmem {
                machine: Machine::new(platform),
                tenants: Vec::new(),
                active: 0,
            },
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
    /// [`AtmemError::InvalidConfig`] if `config` fails validation, if it
    /// asks for an optimize policy other than [`OptimizePolicy::Atmem`] —
    /// the one the server's round runs — or if the server's migration
    /// policy is invalid for this tenant's chunks.
    pub fn add_tenant(&mut self, config: AtmemConfig) -> Result<usize> {
        if config.policy != OptimizePolicy::Atmem {
            return Err(AtmemError::InvalidConfig {
                what: "policy",
                reason: "the server's optimize round runs the atmem policy for every tenant; \
                         leave the policy at the default to add a tenant",
            });
        }
        self.migration.validate(config.chunks.min_chunk_bytes)?;
        let idx = self.num_tenants();
        let tenant = TenantRt::new(config, idx as u32 + 1)?;
        self.rt.tenants.push(tenant);
        self.stats.push(TenantStats::default());
        Ok(idx)
    }

    fn num_tenants(&self) -> usize {
        self.rt.tenants.len()
    }

    /// Runs one quantum for tenant `idx`: points the runtime and the
    /// machine's allocation tag at the tenant and runs `f` on the runtime.
    /// Panics if `idx` is out of range.
    pub fn run_quantum<R>(&mut self, idx: usize, f: impl FnOnce(&mut Atmem) -> R) -> R {
        let tag = self.rt.tenants[idx].tag;
        self.rt.machine.set_alloc_tag(tag);
        self.rt.active = idx;
        f(&mut self.rt)
    }

    /// One server-wide optimize round. Per tenant, the profile is
    /// analyzed under the tenant's own analyzer config; then the optimize
    /// body that [`Atmem::optimize`] calls for its one tenant runs once for
    /// all of them, under the server's migration policy:
    ///
    /// 1. if the server allows demotion, stale residue across *all*
    ///    tenants is demoted coldest-first by the demand-driven cascade,
    ///    only until the prospective budget covers the total promotion
    ///    demand;
    /// 2. all promotion candidates are admitted hottest-first into the
    ///    shared budget of the promotion target, regardless of owner.
    ///
    /// Each region's outcome is attributed to the tenant that owns its
    /// address.
    ///
    /// # Errors
    ///
    /// [`AtmemError::ProfilingActive`] if any tenant is mid-profiling;
    /// migration failures otherwise.
    pub fn optimize_round(&mut self) -> Result<RoundReport> {
        let Atmem {
            machine, tenants, ..
        } = &mut self.rt;
        if tenants.iter().any(|t| t.profiler.is_active()) {
            return Err(AtmemError::ProfilingActive);
        }
        let analyses: Vec<Analysis> = tenants
            .iter()
            .map(|t| analyze(&t.registry, &t.config.analyzer))
            .collect();
        let views: Vec<(&Registry, &Analysis)> = tenants
            .iter()
            .zip(&analyses)
            .map(|(t, analysis)| (&t.registry, analysis))
            .collect();
        let out = optimize_tenants(machine, &views, &self.migration)?;
        let mut rounds = Vec::with_capacity(tenants.len());
        for ((tenant, moves), stats) in tenants.iter().zip(&out.tenants).zip(&mut self.stats) {
            stats.bytes_promoted += moves.bytes_promoted;
            stats.bytes_demoted += moves.bytes_demoted;
            stats.regions_not_moved += moves.regions_not_moved;
            rounds.push(TenantRound {
                bytes_promoted: moves.bytes_promoted,
                bytes_demoted: moves.bytes_demoted,
                fast_data_ratio: residency_ratio(machine, &tenant.registry, TierId::FAST),
            });
        }
        Ok(RoundReport {
            demotion: out.demotion,
            promotion: out.promotion,
            dropped_bytes: out.plan.dropped_bytes,
            tenants: rounds,
        })
    }

    /// Shared access to the machine (outside any quantum).
    pub fn machine(&self) -> &Machine {
        &self.rt.machine
    }

    /// Mutable access to the machine (outside any quantum).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.rt.machine
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
        &self.rt.tenants[idx]
    }

    /// Fraction of tenant `idx`'s registered bytes on the fast tier.
    pub fn fast_data_ratio(&self, idx: usize) -> f64 {
        residency_ratio(self.machine(), &self.tenant(idx).registry, TierId::FAST)
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
    fn conservation_violations(&self) -> Vec<String> {
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
    use crate::config::PlacementPolicy;
    use atmem_hms::{TrackedVec, VirtRange};

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

    /// A cold pad on the hottest tier, a 2 MiB array spilling below it and
    /// a profile that reads only the array's last 256 KiB. The pad's 512
    /// KiB fill the three-tier platform's hottest tier and leave 256 KiB
    /// of the two-tier one free; freeing a 256 KiB gap placed after the pad
    /// leaves that much room on the tier below the pad. Returns the array.
    fn pad_and_hot_tail(rt: &mut Atmem) -> VirtRange {
        const KIB: usize = 1024;
        rt.malloc::<u64>(512 * KIB / 8, "pad").unwrap();
        let gap = rt.malloc::<u64>(256 * KIB / 8, "gap").unwrap();
        let data = rt.malloc::<u64>(2048 * KIB / 8, "data").unwrap();
        rt.free(gap).unwrap();
        let tail = data.len() - 256 * KIB / 8;
        rt.profiling_start().unwrap();
        for pass in 0..10 {
            for i in (tail + pass..data.len()).step_by(8) {
                let _ = data.get(rt.machine_mut(), i);
            }
        }
        rt.profiling_stop().unwrap();
        data.range()
    }

    #[test]
    fn single_tenant_round_matches_solo_optimize() {
        // The same program driven through a solo runtime and through a
        // one-tenant scheduler must produce the identical outcome, on two
        // and three tiers, with and without demotion. On three tiers the
        // hottest tier is full, so without demotion promotion aims at the
        // middle tier, and with demotion the pad's eviction overruns the
        // middle tier's room: a two-hop cascade.
        const KIB: usize = 1024;
        let platforms = [
            Platform::testing().with_capacities(768 * KIB, 32 * 1024 * KIB),
            Platform::testing_three().with_tier_capacities(&[
                512 * KIB,
                1024 * KIB,
                32 * 1024 * KIB,
            ]),
        ];
        for platform in platforms {
            for allow_demotion in [false, true] {
                let case = format!("{} tiers, demotion {allow_demotion}", platform.tiers.len());
                let config = AtmemConfig {
                    default_placement: PlacementPolicy::PreferFast,
                    migration: MigrationConfig {
                        allow_demotion,
                        max_region_bytes: 64 * KIB,
                        ..MigrationConfig::default()
                    },
                    ..AtmemConfig::default()
                };

                let mut solo = Atmem::new(platform.clone(), config.clone()).unwrap();
                let data = pad_and_hot_tail(&mut solo);
                let middle = TierId::new(1);
                let data_on_middle = solo.machine().resident_bytes(data, middle);
                let solo_report = solo.optimize().unwrap();

                let mut sched = Scheduler::new(platform.clone(), config.migration);
                let t = sched.add_tenant(config).unwrap();
                sched.run_quantum(t, pad_and_hot_tail);
                let round = sched.optimize_round().unwrap();

                assert!(
                    solo_report.migration.bytes_moved > 0,
                    "{case}: {solo_report}"
                );
                if platform.tiers.len() == 3 {
                    let now_on_middle = solo.machine().resident_bytes(data, middle);
                    if allow_demotion {
                        // The middle hop ran: part of the array's head
                        // left the middle tier.
                        assert!(now_on_middle < data_on_middle, "{case}: no middle hop");
                    } else {
                        let on_top = solo.machine().resident_bytes(data, TierId::FAST);
                        assert!(
                            now_on_middle > data_on_middle && on_top == 0,
                            "{case}: promotion missed the middle tier"
                        );
                    }
                }
                assert_eq!(round.promotion, solo_report.migration, "{case}");
                assert_eq!(round.demotion, solo_report.demotion, "{case}");
                assert_eq!(
                    round.dropped_bytes, solo_report.plan.dropped_bytes,
                    "{case}"
                );
                assert_eq!(
                    round.tenants[0].fast_data_ratio, solo_report.data_ratio,
                    "{case}"
                );
                assert_eq!(
                    sched.run_quantum(t, |rt| rt.data_ratio_vector()),
                    solo_report.data_ratio_vector,
                    "{case}"
                );
                assert_eq!(
                    sched.now().as_ns().to_bits(),
                    solo.now().as_ns().to_bits(),
                    "{case}"
                );
                assert!(solo.machine_mut().audit().is_empty(), "{case}");
                assert!(sched.audit().is_empty(), "{case}: {:?}", sched.audit());
            }
        }
    }

    #[test]
    fn add_tenant_rejects_a_policy_the_round_would_ignore() {
        let mut sched = Scheduler::new(Platform::testing(), MigrationConfig::default());
        let config = AtmemConfig {
            policy: OptimizePolicy::Autonuma,
            ..AtmemConfig::default()
        };
        assert!(matches!(
            sched.add_tenant(config),
            Err(AtmemError::InvalidConfig { what: "policy", .. })
        ));
        assert_eq!(sched.num_tenants(), 0);
    }

    #[test]
    fn add_tenant_rejects_an_invalid_server_migration_policy() {
        let tenant = AtmemConfig::default();
        let cases = [
            (f64::NAN, 8 << 20, "migration.budget_frac"),
            (-1.0, 8 << 20, "migration.budget_frac"),
            (1.5, 8 << 20, "migration.budget_frac"),
            (
                0.9,
                tenant.chunks.min_chunk_bytes / 2,
                "migration.max_region_bytes",
            ),
        ];
        for (budget_frac, max_region_bytes, what) in cases {
            let migration = MigrationConfig {
                budget_frac,
                max_region_bytes,
                ..MigrationConfig::default()
            };
            let mut sched = Scheduler::new(Platform::testing(), migration);
            match sched.add_tenant(tenant.clone()) {
                Err(AtmemError::InvalidConfig { what: got, .. }) => assert_eq!(got, what),
                other => panic!("{migration:?}: expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(sched.num_tenants(), 0);
        }
        // The all-slow reference promotes nothing, by design.
        let all_slow = MigrationConfig {
            budget_frac: 0.0,
            ..MigrationConfig::default()
        };
        let mut sched = Scheduler::new(Platform::testing(), all_slow);
        sched.add_tenant(tenant).unwrap();
        assert_eq!(sched.num_tenants(), 1);
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
