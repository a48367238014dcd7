//! # clasp-mrt — modulo reservation tables
//!
//! Resource bookkeeping for the CLASP reproduction of Nystrom &
//! Eichenberger (MICRO 1998). Two MRT flavours model the same machine at a
//! fixed initiation interval:
//!
//! - [`CountMrt`]: capacity counting for the *assignment* phase, where
//!   operations have clusters but no cycles yet; supports the paper's
//!   MRC (maximum reservable copies) query. It holds counts only: the
//!   iterative assigner releases a reservation by naming what it took
//!   (an op's cluster and kind, a copy's source, targets and link);
//! - [`TimeMrt`]: a `cycle mod II` x resource-instance grid for the
//!   *scheduling* phase, with conflict reporting and force-place eviction
//!   for the iterative modulo scheduler. It holds occupancy only; the
//!   scheduler removes a placement by naming its row, and asks for no
//!   table past [`MAX_TABLE_CELLS`].
//!
//! The crate also hosts [`ClusterMap`], the cluster-annotation layer the
//! assigner produces and the scheduler consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod count;
mod map;
mod table;

pub use count::{CountMrt, Full};
pub use map::{ClusterMap, CopyMeta, CopyTargets};
pub use table::{PlaceOutcome, SlotRequest, TimeMrt, MAX_TABLE_CELLS};
