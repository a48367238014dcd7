//! The post-scheduling partitioning baseline (Capitanio et al., MICRO-25
//! 1992) — the related-work approach the paper argues against (§1.4).
//!
//! Capitanio's flow schedules first and partitions afterwards: the loop
//! is modulo scheduled for the *unified* machine, then each cycle's wide
//! instruction word is sliced across the clusters, and copies are
//! inserted wherever a value crosses a slice boundary. Because the
//! partitioner looks at a finished schedule, it effectively treats the
//! loop as straight-line code: it cannot see that splitting a recurrence
//! costs II directly. This module implements that flow faithfully enough
//! to reproduce the paper's criticism quantitatively (the `baseline-post`
//! experiment).

use crate::config::AssignConfig;
use crate::result::{materialize, AssignStats, Assignment};
use crate::state::AssignState;
use crate::AssignError;
use clasp_ddg::{depth_height, max_ii_bound, Ddg, NodeId};
use clasp_machine::{ClusterId, MachineSpec};

/// Assign clusters by post-scheduling partitioning: emulate a unified
/// schedule's issue order (operations sorted by their unified issue
/// cycle), slice each cycle's operations across clusters round-robin, and
/// insert the required copies afterwards. If the partition (with its
/// copies) does not fit at an II, the whole process restarts one II
/// higher — there is no recurrence awareness and no iterative repair.
///
/// # Errors
///
/// See [`AssignError`].
pub fn post_scheduling_assign(
    g: &Ddg,
    machine: &MachineSpec,
    config: AssignConfig,
) -> Result<Assignment, AssignError> {
    post_scheduling_assign_from(g, machine, config, 1)
}

/// As [`post_scheduling_assign`], but never below `min_ii` (the re-entry
/// point after a scheduling failure, mirroring
/// [`crate::assign_from`]).
///
/// # Errors
///
/// See [`AssignError`].
pub fn post_scheduling_assign_from(
    g: &Ddg,
    machine: &MachineSpec,
    config: AssignConfig,
    min_ii: u32,
) -> Result<Assignment, AssignError> {
    g.validate().map_err(AssignError::BadGraph)?;
    for (n, op) in g.nodes() {
        if !machine
            .cluster_ids()
            .any(|c| machine.cluster(c).can_execute(op.kind))
        {
            return Err(AssignError::InfeasibleOp(n));
        }
    }

    // Emulate the unified schedule's issue order: ASAP depth is exactly
    // what a greedy unified scheduler follows; ties broken by node id.
    // (Using depths avoids a dependency on clasp-sched and is faithful to
    // "partition a finished schedule": the partitioner only consumes the
    // linear order, not the cycles themselves.)
    let mii = machine.unified_equivalent().mii(g).max(1).max(min_ii);
    let dh = depth_height(g, mii);
    let mut order: Vec<NodeId> = g.node_ids().collect();
    order.sort_by_key(|n| (dh.depth[n.index()], n.0));

    let max_ii = config.max_ii.unwrap_or_else(|| max_ii_bound(g, mii));

    let mut stats = AssignStats::default();
    let clusters: Vec<ClusterId> = machine.cluster_ids().collect();
    // One working state serves the whole internal escalation: each II
    // resets it in place instead of rebuilding it.
    let mut st = AssignState::new(g, machine, mii);
    for ii in mii..=max_ii {
        stats.ii_attempts += 1;
        st.reset(ii);
        if partition_attempt(&mut st, &order, &clusters) {
            stats.copies = st.cpm.live_count();
            return Ok(materialize(g, &st, ii, stats));
        }
    }
    Err(AssignError::IiExhausted { max_ii, last: None })
}

/// One partition attempt over a pre-reset state: walk the issue order,
/// dealing operations to clusters round-robin (first-fit on resources,
/// copies included). Failed probes are journaled and rolled back.
fn partition_attempt(st: &mut AssignState<'_>, order: &[NodeId], clusters: &[ClusterId]) -> bool {
    let g = st.graph();
    let machine = st.machine();
    let k = clusters.len();
    for (pos, &node) in order.iter().enumerate() {
        // Round-robin slice: the pos-th op of the word goes to cluster
        // pos mod k, falling through to the next cluster when the slice
        // is full or the copies don't fit.
        let mut placed = false;
        for probe in 0..k {
            let c = clusters[(pos + probe) % k];
            if !machine.cluster(c).can_execute(g.op(node).kind) {
                continue;
            }
            let mark = st.mark();
            if st.try_assign(node, c).is_ok() {
                st.commit();
                placed = true;
                break;
            }
            st.rollback_to(mark);
        }
        if !placed {
            return false; // no repair: bump II
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::assign;
    use crate::result::validate_assignment;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    fn fig6() -> Ddg {
        let mut g = Ddg::new("fig6");
        let a = g.add_named(OpKind::IntAlu, "A");
        let b = g.add_named(OpKind::IntAlu, "B");
        let c = g.add_named(OpKind::Load, "C");
        let d = g.add_named(OpKind::IntAlu, "D");
        let e = g.add_named(OpKind::IntAlu, "E");
        let f = g.add_named(OpKind::IntAlu, "F");
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep(c, d);
        g.add_dep(d, e);
        g.add_dep(e, f);
        g.add_dep_carried(d, b, 1);
        g
    }

    #[test]
    fn produces_valid_assignments() {
        let g = fig6();
        let m = presets::two_cluster_gp(2, 1);
        let asg = post_scheduling_assign(&g, &m, AssignConfig::default()).unwrap();
        validate_assignment(&g, &m, &asg).unwrap();
    }

    #[test]
    fn splits_recurrences_that_the_paper_keeps_together() {
        // Round-robin slicing spreads B, C, D across clusters: the
        // working graph's RecMII grows beyond the original 4 whenever a
        // copy lands on the critical cycle.
        let g = fig6();
        let m = presets::two_cluster_gp(2, 1);
        let post = post_scheduling_assign(&g, &m, AssignConfig::default()).unwrap();
        let pre = assign(&g, &m, AssignConfig::default()).unwrap();
        let post_rec = clasp_ddg::rec_mii(&post.graph);
        let pre_rec = clasp_ddg::rec_mii(&pre.graph);
        assert_eq!(pre_rec, 4, "the paper's approach keeps the SCC intact");
        assert!(
            post_rec >= pre_rec,
            "post-scheduling partitioning must not beat the recurrence bound"
        );
    }

    #[test]
    fn never_better_ii_than_pre_scheduling_on_recurrence_loops() {
        use clasp_loopgen_free::recurrence_loops;
        let m = presets::two_cluster_gp(2, 1);
        for g in recurrence_loops() {
            let post = post_scheduling_assign(&g, &m, AssignConfig::default()).unwrap();
            let pre = assign(&g, &m, AssignConfig::default()).unwrap();
            assert!(
                post.ii >= pre.ii,
                "{}: post {} vs pre {}",
                g.name(),
                post.ii,
                pre.ii
            );
        }
    }

    #[test]
    fn unified_machine_trivially_partitions() {
        let g = fig6();
        let m = presets::unified_gp(8);
        let asg = post_scheduling_assign(&g, &m, AssignConfig::default()).unwrap();
        assert_eq!(asg.copy_count(), 0);
        validate_assignment(&g, &m, &asg).unwrap();
    }

    mod clasp_loopgen_free {
        use clasp_ddg::{Ddg, OpKind};

        pub fn recurrence_loops() -> Vec<Ddg> {
            let mut out = Vec::new();
            for (n, dist) in [(3usize, 1u32), (4, 1), (5, 2)] {
                let mut g = Ddg::new(format!("rec-{n}-{dist}"));
                let ids: Vec<_> = (0..n).map(|_| g.add(OpKind::IntAlu)).collect();
                for w in ids.windows(2) {
                    g.add_dep(w[0], w[1]);
                }
                g.add_dep_carried(ids[n - 1], ids[0], dist);
                // Some parallel filler.
                for _ in 0..4 {
                    let l = g.add(OpKind::Load);
                    let s = g.add(OpKind::Store);
                    g.add_dep(l, s);
                }
                out.push(g);
            }
            out
        }
    }
}
