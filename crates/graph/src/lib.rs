//! # atmem-graph — graph substrate for the ATMem reproduction
//!
//! CSR graphs, an edge-list builder, R-MAT and Erdős–Rényi generators,
//! degree statistics, text I/O, and scaled stand-ins for the five
//! evaluation datasets of the ATMem paper (CGO'20).
//!
//! ## Example
//!
//! ```
//! use atmem_graph::{Dataset, degree_stats};
//!
//! let g = Dataset::Pokec.build_small(5); // tiny variant for doctests
//! assert!(g.num_vertices() >= 1 << 8);
//! let s = degree_stats(&g);
//! assert!(s.gini > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod builder;
mod csr;
mod datasets;
mod gen {
    //! Graph generators.
    pub(crate) mod community;
    pub(crate) mod er;
    pub(crate) mod rmat;
}
mod io;
mod par;
mod stats;
mod transform;

pub use builder::{GraphBuilder, SelfLoops};
pub use csr::Csr;
pub use datasets::Dataset;
pub use gen::community::{community, CommunityConfig};
pub use gen::er::erdos_renyi;
pub use gen::rmat::{rmat, RmatConfig};
pub use io::{read_edge_list, write_edge_list, ParseGraphError};
pub use stats::{degree_stats, DegreeStats};
pub use transform::{degree_order, relabel};
