//! # atmem — adaptive data placement for graph applications on HMS
//!
//! A from-scratch reproduction of the runtime described in *"ATMem:
//! Adaptive Data Placement in Graph Applications on Heterogeneous
//! Memories"* (CGO 2020). The runtime has the paper's three components:
//!
//! * a **profiler** ([`Profiler`]) using PEBS-like precise address sampling
//!   of LLC read misses, with an empirically auto-tuned sampling period;
//! * an **analyzer** ([`analyze`]) that (1) selects *sampled-critical*
//!   chunks per data object via a hybrid local ranking — Eq. 1 priority
//!   (misses/size), Eq. 2 threshold (percentile ∨ derivative knee ∨
//!   sampling floor), Eq. 3 classification — and (2) *promotes* prospective
//!   chunks via an m-ary tree with a globally adapted tree-ratio threshold
//!   (Eq. 4 weight, Eq. 5 threshold), patching information lost to sampling
//!   and merging fragments into contiguous regions — or, when configured
//!   with [`AnalyzerKind::Learned`], a learning-to-rank scorer over bounded
//!   chunk features ([`LearnedModel`]) producing the same bitmaps;
//! * an **optimizer** ([`build_plan`], [`execute_plan`]) that plans
//!   page-aligned regions under a fast-tier budget and migrates them with
//!   the paper's three-stage multi-threaded mechanism (stage to target →
//!   remap → move), preserving huge mappings where `mbind` would splinter
//!   them.
//!
//! The machine underneath is the [`atmem_hms`] simulator; see that crate
//! for the hardware substitution rationale.
//!
//! ## Example
//!
//! ```
//! use atmem::{Atmem, AtmemConfig};
//! use atmem_hms::Platform;
//!
//! # fn main() -> atmem::Result<()> {
//! let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default())?;
//! let data = rt.malloc::<u64>(64 * 1024, "scores")?;        // atmem_malloc
//!
//! rt.profiling_start()?;                                    // iteration 1
//! for i in 0..20_000 {
//!     let _ = data.get(rt.machine_mut(), (i * 13) % 4096);  // hot prefix
//! }
//! rt.profiling_stop()?;
//!
//! let report = rt.optimize()?;                              // migrate
//! assert!(report.data_ratio <= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod analyzer;
mod autonuma;
mod chunk;
mod config;
mod error;
mod migrate;
mod object;
mod profiler;
mod registry;
mod report;
mod runtime;
mod serve;

pub use analyzer::{
    analyze, local_selection, promote, train, Analysis, LearnedModel, LocalSelection, MaryTree,
    ObjectAnalysis, FEATURE_NAMES,
};
pub use chunk::{chunk_geometry, ChunkGeometry};
pub use config::{
    AnalyzerConfig, AnalyzerKind, AtmemConfig, ChunkConfig, MigrationConfig, MigrationMechanism,
    OptimizePolicy, PlacementPolicy, SamplingConfig,
};
pub use error::{AtmemError, Result};
pub use migrate::{
    build_demotion_cascade, build_plan, execute_plan, execute_regions, MigrationOutcome,
    MigrationPlan, PlannedRegion, RegionStatus,
};
pub use object::{DataObject, ObjectId};
pub use profiler::{ProfileSummary, Profiler};
pub use registry::Registry;
pub use report::{chunk_heatmap, ObjectResidency, ResidencyReport};
pub use runtime::{Atmem, OptimizeReport, TenantRt};
pub use serve::{RoundReport, Scheduler, TenantRound, TenantStats};
