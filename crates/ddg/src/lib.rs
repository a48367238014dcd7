//! # clasp-ddg — loop data-dependence graphs
//!
//! The graph substrate of the CLASP workspace, a reproduction of Nystrom &
//! Eichenberger, *"Effective Cluster Assignment for Modulo Scheduling"*
//! (MICRO 1998).
//!
//! This crate provides:
//!
//! - [`OpKind`] / [`FuClass`]: typed operations with the paper's Table 2
//!   latencies and function-unit classes;
//! - [`Ddg`]: the loop-body data-dependence graph with loop-carried
//!   dependence distances;
//! - [`find_sccs`]: recurrence (strongly-connected-component) analysis;
//! - [`rec_mii`]: the recurrence-constrained minimum initiation interval,
//!   and [`max_ii_bound`], the II ceiling every II search shares;
//! - [`swing_order`]: the SMS node-ordering heuristic used by both the
//!   cluster assigner and the modulo scheduler.
//!
//! # Examples
//!
//! Build the paper's introductory example and compute its RecMII:
//!
//! ```
//! use clasp_ddg::{Ddg, OpKind, rec_mii};
//!
//! let mut g = Ddg::new("intro");
//! let b = g.add_named(OpKind::IntAlu, "B");
//! let c = g.add_named(OpKind::Load, "C"); // latency 2
//! let d = g.add_named(OpKind::IntAlu, "D");
//! g.add_dep(b, c);
//! g.add_dep(c, d);
//! g.add_dep_carried(d, b, 1);
//! assert_eq!(rec_mii(&g), 4); // (1 + 2 + 1) / 1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod graph;
mod mii;
mod op;
mod order;
mod scc;

pub use analysis::{AdjEdge, LoopAnalysis};
pub use graph::{Ddg, DepEdge, EdgeId, GraphError, NodeId, Operation};
pub use mii::{max_ii_bound, rec_mii, rec_mii_bruteforce, rec_mii_with, scc_rec_mii};
pub use op::{FuClass, OpKind};
pub use order::{
    bottom_up_order, depth_height, priority_sets, swing_order, swing_order_flat, swing_order_with,
    DepthHeight,
};
pub use scc::{find_sccs, Scc, SccInfo};
