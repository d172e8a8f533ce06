//! The optimize decision (`atmem_optimize`, Listing 1), once, for any
//! number of tenants sharing one machine.
//!
//! A solo [`Atmem`](crate::Atmem) is the one-tenant call and a
//! [`Scheduler`](crate::Scheduler) round is the N-tenant call: both analyze
//! their profiles and hand the analyses here, so one tenant on a scheduler
//! is the solo run by construction, on every platform.

use atmem_hms::{Machine, TierId};

use crate::analyzer::Analysis;
use crate::config::MigrationConfig;
use crate::error::Result;
use crate::migrate::plan::{
    build_demotion_cascade, plan_from, promotion_budget, promotion_candidates, promotion_demand,
    MigrationPlan, PlannedRegion,
};
use crate::migrate::staged::{execute_regions, MigrationOutcome, RegionStatus};
use crate::registry::Registry;

/// What one tenant got out of an [`optimize_tenants`] call.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TenantMoves {
    /// Bytes of the tenant's regions the promotion moved.
    pub(crate) bytes_promoted: usize,
    /// Bytes of the tenant's regions any hop of the demotion moved.
    pub(crate) bytes_demoted: usize,
    /// The tenant's planned regions that did not move (skipped or rolled
    /// back), promotion and demotion together.
    pub(crate) regions_not_moved: usize,
}

/// Outcome of [`optimize_tenants`].
#[derive(Debug)]
pub(crate) struct Optimized {
    /// The admitted promotion plan.
    pub(crate) plan: MigrationPlan,
    /// The promotion's execution outcome.
    pub(crate) promotion: MigrationOutcome,
    /// The demotion cascade's outcome, its hops merged; `None` unless the
    /// config allows demotion.
    pub(crate) demotion: Option<MigrationOutcome>,
    /// Per-tenant attribution, in `tenants` order.
    pub(crate) tenants: Vec<TenantMoves>,
}

/// Plans, cascades, admits and executes one optimize step for `tenants`
/// (each a registry and the analysis of its latest profile) under one
/// migration policy:
///
/// 1. the promotion candidates of every tenant are built once, and the
///    promotion target is picked ([`promotion_target`]);
/// 2. with demotion allowed, the demand-driven cascade
///    ([`build_demotion_cascade`]) evicts stale residue across all tenants,
///    one execution per hop, coldest pair first;
/// 3. the candidates compete hottest-first for the target's budget, and the
///    admitted plan executes.
///
/// Each region's outcome is attributed to the tenant whose registry holds
/// its address (virtual addresses are unique across one machine).
///
/// # Errors
///
/// Migration failures that indicate a bug rather than pressure (see
/// [`execute_plan`](crate::migrate::execute_plan)).
pub(crate) fn optimize_tenants(
    machine: &mut Machine,
    tenants: &[(&Registry, &Analysis)],
    config: &MigrationConfig,
) -> Result<Optimized> {
    let target = promotion_target(machine, config);
    // Built once: the candidates depend on the analyses alone, so the
    // demotion's demand and the promotion plan share them.
    let wanted: Vec<PlannedRegion> = tenants
        .iter()
        .flat_map(|(registry, analysis)| promotion_candidates(registry, analysis, config))
        .collect();
    let mut moves = vec![TenantMoves::default(); tenants.len()];
    let mut demotion: Option<MigrationOutcome> = None;
    if config.allow_demotion {
        // Phase adaptivity (extension): the hottest hop frees only what the
        // new selection wants to move onto the target, each colder hop what
        // the hop above pushes down. Each hop's regions carry their own
        // destination; the call-level tier is only the fallback. One
        // execution per hop keeps each hop's time its own f64 sum.
        let demand = promotion_demand(machine, &wanted, target);
        let coldest = machine.coldest_tier();
        for hop in build_demotion_cascade(tenants, machine, config, demand) {
            let out = execute_attributed(
                machine,
                tenants,
                &hop.regions,
                config,
                coldest,
                &mut moves,
                |m| &mut m.bytes_demoted,
            )?;
            demotion = Some(demotion.map_or(out, |acc| acc.merged(out)));
        }
    }
    // The budget covers the final placement; the staging transient is
    // bounded separately by max_region_bytes.
    let plan = plan_from(wanted, promotion_budget(machine.free_bytes(target), config));
    let promotion = execute_attributed(
        machine,
        tenants,
        &plan.regions,
        config,
        target,
        &mut moves,
        |m| &mut m.bytes_promoted,
    )?;
    Ok(Optimized {
        plan,
        promotion,
        demotion,
        tenants: moves,
    })
}

/// The tier promotion aims at: the hottest tier whose prospective budget
/// admits anything. With demotion enabled the answer is always the hottest
/// tier — the cascade exists to make room there. On a two-tier machine the
/// answer is the fast tier in every case.
fn promotion_target(machine: &Machine, config: &MigrationConfig) -> TierId {
    if config.allow_demotion {
        return TierId::FAST;
    }
    (0..machine.num_tiers().saturating_sub(1))
        .map(TierId::new)
        .find(|&tier| promotion_budget(machine.free_bytes(tier), config) > 0)
        .unwrap_or(TierId::FAST)
}

/// Executes `regions` towards `dst` and credits each moved region's bytes
/// to `moved` of its tenant, each unmoved region to its tenant's
/// `regions_not_moved`.
fn execute_attributed(
    machine: &mut Machine,
    tenants: &[(&Registry, &Analysis)],
    regions: &[PlannedRegion],
    config: &MigrationConfig,
    dst: TierId,
    moves: &mut [TenantMoves],
    moved: fn(&mut TenantMoves) -> &mut usize,
) -> Result<MigrationOutcome> {
    let (outcome, statuses) = execute_regions(machine, regions, config, dst)?;
    for (region, status) in regions.iter().zip(statuses) {
        let owner = tenants
            .iter()
            .position(|(registry, _)| registry.object_at(region.range.start).is_some())
            .expect("every planned region lies in a tenant's object");
        match status {
            RegionStatus::Moved => *moved(&mut moves[owner]) += region.range.len,
            RegionStatus::Skipped | RegionStatus::Failed => moves[owner].regions_not_moved += 1,
        }
    }
    Ok(outcome)
}
