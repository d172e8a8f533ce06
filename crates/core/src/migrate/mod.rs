//! Migration planning and execution (paper §4.4).

mod optimize;
pub mod plan;
pub mod staged;

pub(crate) use optimize::optimize_tenants;
pub use plan::{
    build_demotion_cascade, build_plan, promotion_budget, MigrationPlan, PlannedRegion,
};
pub use staged::{execute_plan, execute_regions, MigrationOutcome, RegionStatus};
