//! # clasp-sched — iterative modulo scheduling
//!
//! The "phase 2" schedulers of the CLASP reproduction of Nystrom &
//! Eichenberger (MICRO 1998): Rau's iterative modulo scheduler
//! (MICRO-27, 1994) and the iterative swing modulo scheduler of Llosa et
//! al. (PACT 1996), both taking nodes in swing order. They share one
//! loop in [`SchedContext`] and differ only in the issue window a node's
//! slot scan covers ([`SchedulerKind`]). Both are deliberately ignorant
//! of clustering: cluster assignments and copy transport arrive
//! pre-computed in a [`clasp_mrt::ClusterMap`], exactly as the paper
//! prescribes.
//!
//! - [`iterative_schedule`] / [`swing_schedule`]: one attempt at a fixed
//!   II; [`schedule_with_stats`] picks the scheduler by kind;
//! - [`schedule_in_range`]: search upward over II;
//! - [`schedule_unified`]: the unified-machine baseline the paper compares
//!   every clustered result against;
//! - [`ii_search_range`]: the II range every escalation searches;
//! - [`validate_schedule`]: independent checker for dependence and
//!   resource correctness.
//!
//! Every scheduling entry point returns `Result<Schedule, SchedFailure>`:
//! a failed attempt names its reason (budget exhausted, unsatisfiable
//! resource request) and the blocking node, so II-escalation decisions
//! upstream are explainable.
//!
//! # Examples
//!
//! ```
//! use clasp_ddg::{Ddg, OpKind};
//! use clasp_machine::presets;
//! use clasp_sched::{schedule_unified, SchedulerConfig};
//!
//! let mut g = Ddg::new("acc");
//! let a = g.add(OpKind::FpAdd);
//! g.add_dep_carried(a, a, 1); // accumulator recurrence
//! let m = presets::unified_gp(8);
//! let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
//! assert_eq!(s.ii(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod context;
mod failure;
mod iterative;
mod schedule;
mod stats;
mod swing;

pub use clasp_ddg::max_ii_bound;
pub use context::SchedContext;
pub use failure::SchedFailure;
pub use iterative::{
    ii_search_range, iterative_schedule, schedule_in_range, schedule_unified, SchedulerConfig,
};
pub use schedule::{slot_request, unified_map, validate_schedule, Schedule, ScheduleError};
pub use stats::{AttemptStats, CONFLICT_CLASSES};
pub use swing::{schedule_with_stats, swing_schedule, SchedulerKind};
