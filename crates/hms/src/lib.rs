//! # atmem-hms — heterogeneous memory system simulator
//!
//! This crate is the hardware substrate for the ATMem reproduction (CGO'20,
//! "ATMem: Adaptive Data Placement in Graph Applications on Heterogeneous
//! Memories"). It simulates, from scratch, everything the paper's runtime
//! needs from the machine:
//!
//! * an **ordered set of memory tiers** (hottest first) with distinct
//!   capacity, latency, and read/write bandwidth ([`TierSpec`], two- to
//!   four-tier presets in [`Platform`], per-pair link bandwidth caps);
//! * a **virtual memory system**: 4 KiB frames, 2 MiB huge mappings, a frame
//!   allocator, a mapping table, and an LRU **TLB** ([`Tlb`]);
//! * a set-associative, physically-indexed **last-level cache** ([`Cache`]);
//! * a **cost model** translating every access into simulated nanoseconds
//!   ([`CostModel`], [`SimDuration`]);
//! * **PEBS-like precise address sampling** of LLC read misses ([`Pebs`]);
//! * an `mbind`-style **system migration service** baseline
//!   ([`Machine::migrate_mbind`]) plus the low-level primitives the ATMem
//!   optimizer composes into its multi-stage multi-threaded migration
//!   ([`Machine::alloc_frames`], [`Machine::copy_region_to_frames`],
//!   [`Machine::remap_region`], [`Machine::copy_frames_to_region`],
//!   [`Machine::free_frames`]).
//!
//! Data written through the simulator actually lives in tier storage
//! (a 4 KiB page of host memory under each mapped frame, recycled across
//! machines), so migrations really move bytes and correctness is externally
//! checkable. The one exception is a migration's staging run: its frames
//! are held on the target tier but hold no bytes; the bytes in flight stay
//! in the region's own source frames, pinned until the replay moves them.
//!
//! ## Example
//!
//! ```
//! use atmem_hms::{Machine, Placement, Platform, TierId, TrackedVec};
//!
//! # fn main() -> atmem_hms::Result<()> {
//! let mut machine = Machine::new(Platform::nvm_dram());
//! let v = TrackedVec::<u64>::new(&mut machine, 1024, Placement::Slow)?;
//! v.set(&mut machine, 3, 42);
//! assert_eq!(v.get(&mut machine, 3), 42);
//!
//! // Migrate the array to the fast tier with the system service.
//! let report = machine.migrate_mbind(
//!     atmem_hms::VirtRange::new(v.range().start, v.range().len.next_multiple_of(4096)),
//!     TierId::FAST,
//! )?;
//! assert!(report.time.as_ns() > 0.0);
//! assert_eq!(v.get(&mut machine, 3), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod addr;
mod cache;
mod cost;
mod error;
mod fault;
mod frame;
mod machine;
mod mapping;
mod mbind;
mod pebs;
mod platform;
mod shard;
mod stats;
mod tier;
mod tlb;
mod tracked;

// The crate root is the surface: what another crate, an integration test, an
// example or the repo benchmark names, plus what those items' public fields
// and signatures reach. Modules stay private (`ci.sh` checks).
pub use addr::{PhysAddr, VirtAddr, VirtRange, PAGE_SIZE};
pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use cost::{CostModel, SimDuration};
pub use error::{HmsError, Result};
pub use fault::{FaultPlan, FaultSite, FAULT_SITES};
pub use frame::FrameRun;
pub use machine::{AllocationInfo, Machine, MigrationReport, Placement, Scalar};
pub use mapping::{Mapping, PageKind};
pub use pebs::{Pebs, SampleRecord};
pub use platform::Platform;
pub use shard::{merge_owner_queues, CoreHandle, MemPort, OwnerQueues, MAX_TIERS};
pub use stats::MachineStats;
pub use tier::{TierId, TierSpec};
pub use tlb::Tlb;
pub use tracked::TrackedVec;
