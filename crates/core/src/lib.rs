//! # clasp-core — cluster assignment for modulo scheduling
//!
//! The primary contribution of Nystrom & Eichenberger, *"Effective Cluster
//! Assignment for Modulo Scheduling"* (MICRO 1998), implemented in full:
//!
//! - SCC-first node ordering with the swing heuristic inside each set
//!   (§4.1, via `clasp-ddg`);
//! - tentative assignment and the selection cascade of Figures 9/10,
//!   including the PCR/MRC predicted-copy-pressure test (§4.2);
//! - the iterative machinery of §4.3: forced placement (Figure 11),
//!   conflicting-node removal, and the anti-repetition rule (A);
//! - copy management: broadcast copy sharing on buses, hop-by-hop routing
//!   on point-to-point grids, reference-counted release;
//! - II escalation (Figure 5) and materialization of the annotated
//!   working graph any traditional modulo scheduler can consume.
//!
//! # Examples
//!
//! ```
//! use clasp_ddg::{Ddg, OpKind};
//! use clasp_machine::presets;
//! use clasp_core::{assign, validate_assignment, AssignConfig};
//!
//! let mut g = Ddg::new("dot-product");
//! let x = g.add_named(OpKind::Load, "x[i]");
//! let y = g.add_named(OpKind::Load, "y[i]");
//! let m = g.add_named(OpKind::FpMult, "x*y");
//! let s = g.add_named(OpKind::FpAdd, "sum+=");
//! g.add_dep(x, m);
//! g.add_dep(y, m);
//! g.add_dep(m, s);
//! g.add_dep_carried(s, s, 1); // reduction recurrence
//!
//! let machine = presets::two_cluster_gp(2, 1);
//! let asg = assign(&g, &machine, AssignConfig::default())?;
//! validate_assignment(&g, &machine, &asg).unwrap();
//! # Ok::<(), clasp_core::AssignError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod assign;
mod config;
mod copies;
mod post;
mod result;
mod state;
mod trace;

pub use assign::{assign, assign_from, assign_traced, AssignError, AssignFailure, Assigner};
pub use config::{AssignConfig, Ordering, Variant};
pub use copies::{CopyManager, CopyRecord};
pub use post::{post_scheduling_assign, post_scheduling_assign_from};
pub use result::{validate_assignment, AssignStats, Assignment, AssignmentError};
pub use state::{edge_needs_copy, AssignState};
pub use trace::{AssignTrace, TraceEvent};
