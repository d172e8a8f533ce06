//! # atmem-apps — graph applications over the ATMem runtime
//!
//! The five applications of the ATMem paper's evaluation (BFS, SSSP,
//! PageRank, Betweenness Centrality, Connected Components) plus SpMV (§9),
//! implemented over HMS-resident CSR graphs allocated through the ATMem
//! API, and the two-iteration experimental protocol of §6.
//!
//! ## Example
//!
//! ```
//! use atmem::AtmemConfig;
//! use atmem_apps::{run_protocol, App, Mode};
//! use atmem_graph::Dataset;
//! use atmem_hms::Platform;
//!
//! # fn main() -> atmem::Result<()> {
//! let csr = Dataset::Pokec.build_small(7); // tiny variant for doctests
//! let result = run_protocol(
//!     Platform::testing(),
//!     AtmemConfig::default(),
//!     &csr,
//!     App::Bfs,
//!     Mode::Atmem,
//! )?;
//! assert!(result.second_iter.as_ns() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod access;
pub mod bc;
pub mod bfs;
pub mod bfs_dir;
pub mod cc;
pub mod graph_data;
pub mod kcore;
pub mod kernel;
mod overlay;
pub mod pagerank;
pub mod pagerank_pull;
pub mod par;
pub mod runner;
pub mod serve;
pub mod spmv;
pub mod sssp;
pub mod synth;
pub mod triangles;

pub use access::MemCtx;
pub use bc::Bc;
pub use bfs::Bfs;
pub use bfs_dir::BfsDir;
pub use cc::Cc;
pub use graph_data::HmsGraph;
pub use kcore::KCore;
pub use kernel::{App, Kernel};
pub use pagerank::PageRank;
pub use pagerank_pull::PageRankPull;
pub use runner::{run_protocol, run_protocol_cores, run_protocol_rounds, Mode, ProtocolResult};
pub use serve::{serve_protocols, ServeReport, TenantReport, TenantSpec};
pub use spmv::Spmv;
pub use sssp::Sssp;
pub use synth::{drive_zipf, HotWindow, Zipf};
pub use triangles::Triangles;
