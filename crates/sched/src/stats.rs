//! Deterministic per-attempt scheduler statistics.
//!
//! Every count here depends only on the scheduler's decisions — never on
//! wall-clock time or thread interleaving — so totals folded into an
//! observability sink are byte-identical across thread counts (the
//! property the CI determinism gate checks).

use clasp_ddg::OpKind;

/// Labels for [`AttemptStats::conflicts`], in index order: the three
/// functional-unit classes plus the copy-transport layer.
pub const CONFLICT_CLASSES: [&str; 4] = ["memory", "integer", "float", "transport"];

/// Counts accumulated while scheduling: how hard the scheduler worked
/// and where its placements were refused. Accumulates across attempts
/// when reused (e.g. over a [`crate::SchedContext`] II sweep).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttemptStats {
    /// Scheduling attempts (one per II tried).
    pub attempts: u64,
    /// Operations placed, including re-placements after eviction.
    pub placements: u64,
    /// Backtracks: evictions plus successor displacements —
    /// every time committed work was undone.
    pub backtracks: u64,
    /// Forced placements taken after a full window scan found no
    /// conflict-free slot.
    pub window_rejections: u64,
    /// MRT conflicts (a candidate slot was occupied) by resource class,
    /// indexed per [`CONFLICT_CLASSES`].
    pub conflicts: [u64; 4],
}

impl AttemptStats {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &AttemptStats) {
        self.attempts += other.attempts;
        self.placements += other.placements;
        self.backtracks += other.backtracks;
        self.window_rejections += other.window_rejections;
        for (a, b) in self.conflicts.iter_mut().zip(other.conflicts.iter()) {
            *a += b;
        }
    }

    /// Total conflicts across every resource class.
    pub fn conflict_total(&self) -> u64 {
        self.conflicts.iter().sum()
    }
}

/// The [`AttemptStats::conflicts`] index for one operation kind: its FU
/// class, or the transport lane for copies (which occupy buses/links,
/// not functional units).
pub(crate) fn conflict_index(kind: OpKind) -> usize {
    match kind.fu_class() {
        Some(class) => class.index(),
        None => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = AttemptStats {
            attempts: 1,
            placements: 2,
            backtracks: 3,
            window_rejections: 4,
            conflicts: [1, 0, 2, 5],
        };
        let b = AttemptStats {
            attempts: 10,
            placements: 20,
            backtracks: 30,
            window_rejections: 40,
            conflicts: [0, 7, 1, 1],
        };
        a.merge(&b);
        assert_eq!(a.attempts, 11);
        assert_eq!(a.placements, 22);
        assert_eq!(a.backtracks, 33);
        assert_eq!(a.window_rejections, 44);
        assert_eq!(a.conflicts, [1, 7, 3, 6]);
        assert_eq!(a.conflict_total(), 17);
    }

    #[test]
    fn copies_map_to_the_transport_lane() {
        assert_eq!(conflict_index(OpKind::Copy), 3);
        assert_eq!(conflict_index(OpKind::Load), 0);
        assert_eq!(conflict_index(OpKind::IntAlu), 1);
        assert_eq!(conflict_index(OpKind::FpAdd), 2);
    }
}
