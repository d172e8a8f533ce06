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

mod access;
mod bc;
mod bfs;
mod cc;
mod graph_data;
mod kernel;
mod overlay;
mod pagerank;
mod par;
mod runner;
mod serve;
mod spmv;
mod sssp;
mod synth;

pub use access::MemCtx;
pub use bc::{reference_bc, Bc};
pub use bfs::{reference_bfs, Bfs};
pub use cc::{reference_components, Cc};
pub use graph_data::HmsGraph;
pub use kernel::{App, Kernel};
pub use pagerank::{reference_pagerank, PageRank};
pub use runner::{run_protocol, run_protocol_cores, run_protocol_rounds, Mode, ProtocolResult};
pub use serve::{serve_protocols, ServeReport, TenantReport, TenantSpec};
pub use spmv::{reference_spmv, Spmv};
pub use sssp::{reference_sssp, Sssp};
pub use synth::HotWindow;
