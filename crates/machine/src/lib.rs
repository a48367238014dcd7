//! # clasp-machine — clustered VLIW machine descriptions
//!
//! Machine models for the CLASP reproduction of Nystrom & Eichenberger,
//! *"Effective Cluster Assignment for Modulo Scheduling"* (MICRO 1998):
//!
//! - [`ClusterSpec`]: per-cluster function units, general-purpose (GP) or
//!   fully specified (FS);
//! - [`Interconnect`]: broadcast buses with per-cluster read/write ports,
//!   or dedicated point-to-point links (the grid of Figure 4);
//! - [`MachineSpec`]: the whole machine, its unified equivalent, and the
//!   resource-bound `ResMII`;
//! - [`presets`]: every configuration the paper evaluates.
//!
//! # Examples
//!
//! ```
//! use clasp_machine::presets;
//!
//! // Figure 3's machine: 4 clusters x 4 GP units, 4 buses, 2 ports.
//! let m = presets::four_cluster_gp(4, 2);
//! assert_eq!(m.total_issue_width(), 16);
//! assert_eq!(m.unified_equivalent().cluster_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod interconnect;
mod machine;
pub mod presets;

pub use cluster::{ClusterId, ClusterSpec};
pub use interconnect::{Interconnect, Link, LinkId, RouteError, RouteTable};
pub use machine::MachineSpec;
