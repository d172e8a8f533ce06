//! Migration planning and execution (paper §4.4).

mod optimize;
mod plan;
mod staged;

pub(crate) use optimize::optimize_tenants;
pub use plan::{build_demotion_cascade, build_plan, MigrationPlan, PlannedRegion};
pub use staged::{execute_plan, execute_regions, MigrationOutcome, RegionStatus};
