//! Mutable assignment state: the counting MRT, the cluster map, the copy
//! manager, and per-edge use bookkeeping.
//!
//! The assigner brackets every tentative placement with
//! [`AssignState::mark`] / [`AssignState::rollback_to`]: the copy manager
//! and this state keep undo journals, each owning what its reservations
//! took from the counting MRT (copies there, op slots and the map/edge
//! bookkeeping here), so a failed tentative is unwound action by action
//! instead of restored from a whole-state clone.

use crate::copies::{CopyManager, CopyMark};
use clasp_ddg::{Ddg, EdgeId, NodeId};
use clasp_machine::{ClusterId, MachineSpec};
use clasp_mrt::{ClusterMap, CountMrt, Full};

/// Whether a dependence edge carries a register value that must be copied
/// when its endpoints land on different clusters. Stores and branches
/// produce no register result, and self edges never cross clusters.
pub fn edge_needs_copy(g: &Ddg, eid: EdgeId) -> bool {
    let e = g.edge(eid);
    e.src != e.dst && g.op(e.src).kind.produces_value()
}

/// One reversible step in the state's own mutation journal (the copy
/// manager journals its copies itself).
#[derive(Debug, Clone)]
enum StateUndo {
    /// `try_assign` reserved an FU slot for this node on this cluster.
    OpReserved(NodeId, ClusterId),
    /// `try_assign` recorded a delivery use for this edge.
    EdgeUseSet(EdgeId),
    /// `unassign` cleared this edge's delivery use.
    EdgeUseCleared(EdgeId, (NodeId, ClusterId)),
    /// `try_assign` completed for this node (undo decrements `seq`).
    Assigned(NodeId),
    /// `unassign` removed this node (and its FU slot) from `cluster` at
    /// sequence `seq`.
    Unassigned(NodeId, ClusterId, u64),
}

/// A snapshot of both mutation journals; see [`AssignState::mark`].
#[derive(Debug, Clone, Copy)]
pub struct StateMark {
    cpm: CopyMark,
    journal: usize,
}

/// The assigner's working state at one initiation interval.
#[derive(Debug, Clone)]
pub struct AssignState<'g> {
    g: &'g Ddg,
    machine: &'g MachineSpec,
    /// Counting reservation table (FUs, ports, buses, links).
    pub mrt: CountMrt<'g>,
    /// Cluster of every assigned node.
    pub map: ClusterMap,
    /// Live copies and value availability.
    pub cpm: CopyManager,
    /// Per crossing edge: the (producer, target-cluster) delivery use it
    /// holds. Dense (indexed by edge id), like every table a tentative
    /// placement touches.
    edge_uses: Vec<Option<(NodeId, ClusterId)>>,
    seq: u64,
    /// Assignment sequence number per original node; 0 = unassigned.
    seq_of: Vec<u64>,
    /// Undo log of op-slot, edge-use and map mutations since the last
    /// commit.
    journal: Vec<StateUndo>,
}

impl<'g> AssignState<'g> {
    /// Fresh state for assigning `g` onto `machine` at `ii`.
    pub fn new(g: &'g Ddg, machine: &'g MachineSpec, ii: u32) -> Self {
        AssignState {
            g,
            machine,
            mrt: CountMrt::new(machine, ii),
            map: ClusterMap::new(),
            cpm: CopyManager::new(machine, g.node_count() as u32),
            edge_uses: vec![None; g.edge_count()],
            seq: 0,
            seq_of: vec![0; g.node_count()],
            journal: Vec::new(),
        }
    }

    /// Empty the state and rebase it to a new initiation interval, keeping
    /// every buffer's capacity so a warmed state resets cheaply.
    pub fn reset(&mut self, ii: u32) {
        self.mrt.reset(ii);
        self.map.clear();
        self.cpm.reset();
        for u in &mut self.edge_uses {
            *u = None;
        }
        self.seq = 0;
        for s in &mut self.seq_of {
            *s = 0;
        }
        self.journal.clear();
    }

    /// Snapshot both mutation journals; [`AssignState::rollback_to`]
    /// restores the state to exactly this point.
    pub fn mark(&self) -> StateMark {
        StateMark {
            cpm: self.cpm.mark(),
            journal: self.journal.len(),
        }
    }

    /// Undo every mutation made since `mark`, across the MRT, the copy
    /// manager, and the map/edge bookkeeping. The two journals draw on
    /// disjoint MRT counts (FU slots here, ports, buses and links in the
    /// copy manager), so they unwind one after the other.
    pub fn rollback_to(&mut self, mark: StateMark) {
        while self.journal.len() > mark.journal {
            match self.journal.pop().expect("journal entry") {
                StateUndo::OpReserved(n, c) => {
                    self.mrt.release_op(c, self.g.op(n).kind);
                }
                StateUndo::EdgeUseSet(eid) => {
                    self.edge_uses[eid.index()] = None;
                }
                StateUndo::EdgeUseCleared(eid, val) => {
                    self.edge_uses[eid.index()] = Some(val);
                }
                StateUndo::Assigned(n) => {
                    self.map.unassign(n);
                    self.seq_of[n.index()] = 0;
                    // LIFO rollback: this was the most recent increment.
                    self.seq -= 1;
                }
                StateUndo::Unassigned(n, c, seq) => {
                    self.mrt
                        .reserve_op(c, self.g.op(n).kind)
                        .expect("a restored op fits");
                    self.map.assign(n, c);
                    self.seq_of[n.index()] = seq;
                }
            }
        }
        self.cpm.rollback_to(mark.cpm, &mut self.mrt);
    }

    /// Discard both undo logs: everything done so far becomes permanent
    /// and earlier marks become invalid.
    pub fn commit(&mut self) {
        self.journal.clear();
        self.cpm.commit();
    }

    /// The graph being assigned.
    pub fn graph(&self) -> &'g Ddg {
        self.g
    }

    /// The target machine.
    pub fn machine(&self) -> &'g MachineSpec {
        self.machine
    }

    /// The II this state was built for.
    pub fn ii(&self) -> u32 {
        self.mrt.ii()
    }

    /// Cluster of `n`, if assigned.
    pub fn cluster_of(&self, n: NodeId) -> Option<ClusterId> {
        self.map.cluster_of(n)
    }

    /// Number of assigned original nodes.
    pub fn assigned_count(&self) -> usize {
        self.map.len()
    }

    /// Monotonic sequence number of `n`'s assignment (later = larger);
    /// used to pick most-recently-assigned victims.
    pub fn assign_seq(&self, n: NodeId) -> Option<u64> {
        match self.seq_of.get(n.index()) {
            Some(0) | None => None,
            Some(&s) => Some(s),
        }
    }

    /// Try to assign `n` to cluster `c`: reserve a function-unit slot and
    /// every *required copy* — a delivery for each already-assigned
    /// value-carrying neighbour on another cluster. Returns the number of
    /// new copy operations created.
    ///
    /// # Errors
    ///
    /// [`Full`] when the operation or any required copy does not fit. The
    /// state is left partially modified — callers bracket the call with
    /// [`AssignState::mark`] / [`AssignState::rollback_to`] (tentative-
    /// assignment discipline).
    ///
    /// # Panics
    ///
    /// Panics if `n` is already assigned.
    pub fn try_assign(&mut self, n: NodeId, c: ClusterId) -> Result<u32, Full> {
        assert!(!self.map.is_assigned(n), "{n} already assigned");
        let kind = self.g.op(n).kind;
        if !self.machine.cluster(c).can_execute(kind) {
            return Err(Full);
        }
        self.mrt.reserve_op(c, kind)?;
        self.journal.push(StateUndo::OpReserved(n, c));
        let mut created = 0u32;
        // `g` is a shared borrow independent of `self`, so the edge
        // iterators run directly against the graph while the state
        // mutates — no per-call collection.
        let g = self.g;
        // Required copies from assigned producers into `c`.
        for (eid, e) in g.pred_edges(n) {
            let src = e.src;
            if !edge_needs_copy(g, eid) {
                continue;
            }
            if let Some(home) = self.map.cluster_of(src) {
                if home != c {
                    created += self.cpm.ensure_value_at(&mut self.mrt, src, home, c)?;
                    self.edge_uses[eid.index()] = Some((src, c));
                    self.journal.push(StateUndo::EdgeUseSet(eid));
                }
            }
        }
        // Required copies of `n`'s value to assigned consumers elsewhere.
        for (eid, e) in g.succ_edges(n) {
            let dst = e.dst;
            if !edge_needs_copy(g, eid) {
                continue;
            }
            if let Some(tc) = self.map.cluster_of(dst) {
                if tc != c {
                    created += self.cpm.ensure_value_at(&mut self.mrt, n, c, tc)?;
                    self.edge_uses[eid.index()] = Some((n, tc));
                    self.journal.push(StateUndo::EdgeUseSet(eid));
                }
            }
        }
        self.map.assign(n, c);
        self.seq += 1;
        self.seq_of[n.index()] = self.seq;
        self.journal.push(StateUndo::Assigned(n));
        Ok(created)
    }

    /// Remove `n`'s assignment, releasing its function-unit slot and every
    /// copy use held by its incident edges (cascading frees unused
    /// copies).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not assigned.
    pub fn unassign(&mut self, n: NodeId) {
        assert!(self.map.is_assigned(n), "{n} not assigned");
        let g = self.g;
        let incident = g
            .pred_edges(n)
            .map(|(eid, _)| eid)
            .chain(g.succ_edges(n).map(|(eid, _)| eid));
        for eid in incident {
            if let Some((producer, target)) = self.edge_uses[eid.index()].take() {
                self.journal
                    .push(StateUndo::EdgeUseCleared(eid, (producer, target)));
                let home = self
                    .map
                    .cluster_of(producer)
                    .expect("producer of a live use is assigned");
                self.cpm
                    .release_value_use(&mut self.mrt, producer, home, target);
            }
        }
        let c = self.map.cluster_of(n).expect("assigned");
        self.mrt.release_op(c, g.op(n).kind);
        self.map.unassign(n);
        let seq = std::mem::replace(&mut self.seq_of[n.index()], 0);
        self.journal.push(StateUndo::Unassigned(n, c, seq));
    }

    /// Distinct value-consuming successors of `n` that are not yet
    /// assigned (the paper's `UnassignedSuccessors(N)`).
    pub fn unassigned_value_succs(&self, n: NodeId) -> u32 {
        self.unassigned_value_succs_upto(n, u32::MAX)
    }

    /// [`AssignState::unassigned_value_succs`], counting no further than
    /// `cap`.
    fn unassigned_value_succs_upto(&self, n: NodeId, cap: u32) -> u32 {
        if !self.g.op(n).kind.produces_value() {
            return 0;
        }
        // Whether an edge counts depends only on its consumer (every edge
        // here leaves `n`), so a consumer is counted at its first edge.
        let counts = |eid, dst| edge_needs_copy(self.g, eid) && !self.map.is_assigned(dst);
        let mut distinct = 0u32;
        for (i, (eid, e)) in self.g.succ_edges(n).enumerate() {
            if distinct == cap {
                break;
            }
            if counts(eid, e.dst) && !self.g.succ_edges(n).take(i).any(|(_, p)| p.dst == e.dst) {
                distinct += 1;
            }
        }
        distinct
    }

    /// The paper's `UpperBound(N)`: the worst-case number of *additional*
    /// copies `n`'s value could still require. At most one total on
    /// broadcast buses; at most `ClusterCount - 1` total otherwise.
    pub fn upper_bound(&self, n: NodeId) -> u32 {
        if !self.g.op(n).kind.produces_value() {
            return 0;
        }
        let rc = self.cpm.rc(n);
        if self.machine.interconnect().is_broadcast() {
            1u32.saturating_sub(rc)
        } else {
            (self.machine.cluster_count() as u32 - 1).saturating_sub(rc)
        }
    }

    /// The paper's *predicted copy requests* for cluster `c` (§4.2):
    /// `sum over assigned N on c of min(UpperBound(N),
    /// UnassignedSuccessors(N))`.
    pub fn pcr(&self, c: ClusterId) -> u32 {
        self.map
            .iter()
            .filter(|&(_, cl)| cl == c)
            .map(|(n, _)| self.upper_bound(n).min(self.unassigned_value_succs(n)))
            .sum()
    }

    /// Fig. 10 line 6's test, `PCR(c) <= MRC(c)`. Each node's term and
    /// the sum stop as soon as the sum exceeds `MRC(c)`, so the answer is
    /// [`AssignState::pcr`]`(c) <= MRC(c)` without the whole sum.
    pub fn pcr_within_mrc(&self, c: ClusterId) -> bool {
        let mrc = self.mrt.mrc(c);
        let mut pcr = 0u32;
        for (n, cl) in self.map.iter() {
            if cl != c {
                continue;
            }
            let cap = self.upper_bound(n).min(mrc + 1 - pcr);
            pcr += self.unassigned_value_succs_upto(n, cap);
            if pcr > mrc {
                return false;
            }
        }
        true
    }

    /// Nodes currently assigned to cluster `c`, most recent first,
    /// collected into `buf` (cleared first). Allocation-free once `buf`
    /// has capacity — use this in hot loops.
    pub fn assigned_on_into(&self, c: ClusterId, buf: &mut Vec<NodeId>) {
        buf.clear();
        buf.extend(self.map.iter().filter(|&(_, cl)| cl == c).map(|(n, _)| n));
        buf.sort_unstable_by_key(|n| std::cmp::Reverse(self.assign_seq(*n).unwrap_or(0)));
    }

    /// Nodes currently assigned to cluster `c`, most recent first.
    ///
    /// Allocates a fresh `Vec`; hot paths use
    /// [`AssignState::assigned_on_into`] or
    /// [`AssignState::most_recent_on`] instead.
    pub fn assigned_on(&self, c: ClusterId) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.assigned_on_into(c, &mut v);
        v
    }

    /// The most recently assigned node on cluster `c`, if any —
    /// `assigned_on(c).first()` without the allocation.
    pub fn most_recent_on(&self, c: ClusterId) -> Option<NodeId> {
        self.map
            .iter()
            .filter(|&(_, cl)| cl == c)
            .map(|(n, _)| n)
            .max_by_key(|n| self.assign_seq(*n).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copies::tests::mrt_counts;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    fn cross_pair() -> Ddg {
        let mut g = Ddg::new("pair");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g
    }

    #[test]
    fn same_cluster_needs_no_copy() {
        let g = cross_pair();
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 4);
        st.try_assign(NodeId(0), ClusterId(0)).unwrap();
        let created = st.try_assign(NodeId(1), ClusterId(0)).unwrap();
        assert_eq!(created, 0);
        assert_eq!(st.cpm.live_count(), 0);
    }

    #[test]
    fn crossing_edge_creates_copy_either_order() {
        let m = presets::two_cluster_gp(2, 1);
        // Producer first.
        let g = cross_pair();
        let mut st = AssignState::new(&g, &m, 4);
        st.try_assign(NodeId(0), ClusterId(0)).unwrap();
        assert_eq!(st.try_assign(NodeId(1), ClusterId(1)).unwrap(), 1);
        assert_eq!(st.cpm.live_count(), 1);
        // Consumer first.
        let mut st2 = AssignState::new(&g, &m, 4);
        st2.try_assign(NodeId(1), ClusterId(1)).unwrap();
        assert_eq!(st2.try_assign(NodeId(0), ClusterId(0)).unwrap(), 1);
        assert_eq!(st2.cpm.live_count(), 1);
    }

    #[test]
    fn unassign_releases_everything() {
        let g = cross_pair();
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(NodeId(0), ClusterId(0)).unwrap();
        st.try_assign(NodeId(1), ClusterId(1)).unwrap();
        let free_before = st.mrt.free_bus_slots();
        st.unassign(NodeId(1));
        assert_eq!(st.cpm.live_count(), 0);
        assert_eq!(st.mrt.free_bus_slots(), free_before + 1);
        assert!(!st.map.is_assigned(NodeId(1)));
        assert!(st.map.is_assigned(NodeId(0)));
        // Reassign on the same cluster: no copy needed this time.
        assert_eq!(st.try_assign(NodeId(1), ClusterId(0)).unwrap(), 0);
    }

    #[test]
    fn unassign_producer_frees_copies_of_its_value() {
        let mut g = Ddg::new("fan");
        let p = g.add(OpKind::Load);
        let c1 = g.add(OpKind::IntAlu);
        let c2 = g.add(OpKind::IntAlu);
        g.add_dep(p, c1);
        g.add_dep(p, c2);
        let m = presets::four_cluster_gp(4, 2);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(p, ClusterId(0)).unwrap();
        st.try_assign(c1, ClusterId(1)).unwrap();
        st.try_assign(c2, ClusterId(2)).unwrap();
        assert_eq!(st.cpm.live_count(), 1); // broadcast, 2 targets
        st.unassign(p);
        assert_eq!(st.cpm.live_count(), 0);
    }

    #[test]
    fn store_edges_need_no_copy() {
        let mut g = Ddg::new("st");
        let s = g.add(OpKind::Store);
        let l = g.add(OpKind::Load);
        g.add_dep(s, l); // memory-order dependence, no value
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(s, ClusterId(0)).unwrap();
        assert_eq!(st.try_assign(l, ClusterId(1)).unwrap(), 0);
        assert_eq!(st.cpm.live_count(), 0);
    }

    #[test]
    fn pcr_and_upper_bound() {
        let mut g = Ddg::new("fan");
        let p = g.add(OpKind::Load);
        let c1 = g.add(OpKind::IntAlu);
        let c2 = g.add(OpKind::IntAlu);
        g.add_dep(p, c1);
        g.add_dep(p, c2);
        let m = presets::four_cluster_gp(4, 2);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(p, ClusterId(0)).unwrap();
        // Broadcast: at most 1 copy ever; 2 unassigned consumers.
        assert_eq!(st.upper_bound(p), 1);
        assert_eq!(st.unassigned_value_succs(p), 2);
        assert_eq!(st.pcr(ClusterId(0)), 1);
        st.try_assign(c1, ClusterId(1)).unwrap(); // copy now exists
        assert_eq!(st.upper_bound(p), 0);
        assert_eq!(st.pcr(ClusterId(0)), 0);
    }

    #[test]
    fn pcr_p2p_upper_bound_scales_with_clusters() {
        let mut g = Ddg::new("fan");
        let p = g.add(OpKind::Load);
        let c1 = g.add(OpKind::IntAlu);
        g.add_dep(p, c1);
        let m = presets::four_cluster_grid(2);
        let mut st = AssignState::new(&g, &m, 4);
        st.try_assign(p, ClusterId(0)).unwrap();
        assert_eq!(st.upper_bound(p), 3); // ClusterCount - 1
        assert_eq!(st.pcr(ClusterId(0)), 1); // min(3, 1 unassigned succ)
    }

    #[test]
    fn pcr_within_mrc_agrees_with_the_full_sum() {
        // Two producers fanning out to six consumers, placed one by one
        // on bused and point-to-point machines at a tight II: after every
        // placement the early-exit test equals `PCR <= MRC` everywhere.
        let mut g = Ddg::new("fans");
        let p = [g.add(OpKind::Load), g.add(OpKind::Load)];
        let mut consumers = Vec::new();
        for i in 0..6 {
            let c = g.add(OpKind::IntAlu);
            g.add_dep(p[i % 2], c);
            g.add_dep(p[(i + 1) % 2], c);
            consumers.push(c);
        }
        for m in [presets::four_cluster_gp(1, 1), presets::mesh(3, 3)] {
            let mut st = AssignState::new(&g, &m, 2);
            let k = m.cluster_count() as u32;
            for (i, n) in p.iter().chain(&consumers).enumerate() {
                let mark = st.mark();
                if st.try_assign(*n, ClusterId((i as u32 * 5) % k)).is_err() {
                    st.rollback_to(mark);
                }
                for c in m.cluster_ids() {
                    assert_eq!(
                        st.pcr_within_mrc(c),
                        st.pcr(c) <= st.mrt.mrc(c),
                        "{} after {i} placements, {c}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_cluster_class_rejected() {
        let mut g = Ddg::new("fp");
        let f = g.add(OpKind::FpAdd);
        let m = clasp_machine::MachineSpec::new(
            "het",
            vec![
                clasp_machine::ClusterSpec::specialized(1, 2, 0), // no FP
                clasp_machine::ClusterSpec::specialized(1, 2, 1),
            ],
            clasp_machine::Interconnect::Bus {
                buses: 1,
                read_ports: 1,
                write_ports: 1,
            },
        );
        let mut st = AssignState::new(&g, &m, 2);
        assert_eq!(st.try_assign(f, ClusterId(0)), Err(Full));
        // State untouched enough to use the other cluster.
        assert!(st.try_assign(f, ClusterId(1)).is_ok());
    }

    #[test]
    fn rollback_restores_assignments_and_copies() {
        let g = cross_pair();
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(NodeId(0), ClusterId(0)).unwrap();
        st.commit();
        let counts = mrt_counts(&st.mrt);

        let mark = st.mark();
        st.try_assign(NodeId(1), ClusterId(1)).unwrap();
        assert_eq!(st.cpm.live_count(), 1);
        st.unassign(NodeId(0));
        assert_ne!(mrt_counts(&st.mrt), counts);
        st.rollback_to(mark);

        assert_eq!(st.cluster_of(NodeId(0)), Some(ClusterId(0)));
        assert_eq!(st.cluster_of(NodeId(1)), None);
        assert_eq!(st.cpm.live_count(), 0);
        assert_eq!(mrt_counts(&st.mrt), counts);
        // Sequence counter rewound: a replay yields identical seq numbers.
        st.try_assign(NodeId(1), ClusterId(1)).unwrap();
        assert_eq!(st.assign_seq(NodeId(1)), Some(2));
    }

    #[test]
    fn rollback_after_failed_tentative_cleans_partial_state() {
        // One bus slot: the second crossing edge cannot reserve its copy,
        // leaving try_assign partially applied; rollback must clean it.
        let mut g = Ddg::new("vee");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        let c = g.add(OpKind::IntAlu);
        g.add_dep(a, c);
        g.add_dep(b, c);
        let m = presets::two_cluster_gp(1, 1);
        let mut st = AssignState::new(&g, &m, 1);
        st.try_assign(a, ClusterId(0)).unwrap();
        st.try_assign(b, ClusterId(0)).unwrap();
        st.commit();
        let counts = mrt_counts(&st.mrt);
        let mark = st.mark();
        assert_eq!(st.try_assign(c, ClusterId(1)), Err(Full));
        assert_ne!(mrt_counts(&st.mrt), counts);
        st.rollback_to(mark);
        assert_eq!(st.cpm.live_count(), 0);
        assert_eq!(st.mrt.free_bus_slots(), 1);
        assert_eq!(mrt_counts(&st.mrt), counts);
        assert!(!st.map.is_assigned(c));
        // The same cluster as the producers still works.
        assert_eq!(st.try_assign(c, ClusterId(0)).unwrap(), 0);
    }

    #[test]
    fn reset_rebases_state_to_new_ii() {
        let g = cross_pair();
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(NodeId(0), ClusterId(0)).unwrap();
        st.try_assign(NodeId(1), ClusterId(1)).unwrap();
        st.reset(3);
        assert_eq!(st.ii(), 3);
        assert_eq!(st.assigned_count(), 0);
        assert_eq!(st.cpm.live_count(), 0);
        assert_eq!(st.assign_seq(NodeId(0)), None);
        // Fully usable after reset, ids allocated from the graph size.
        st.try_assign(NodeId(0), ClusterId(0)).unwrap();
        assert_eq!(st.try_assign(NodeId(1), ClusterId(1)).unwrap(), 1);
        assert_eq!(st.assign_seq(NodeId(0)), Some(1));
    }

    #[test]
    fn most_recent_on_matches_assigned_on_head() {
        let mut g = Ddg::new("three");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 2);
        assert_eq!(st.most_recent_on(ClusterId(0)), None);
        st.try_assign(a, ClusterId(0)).unwrap();
        st.try_assign(b, ClusterId(0)).unwrap();
        assert_eq!(st.most_recent_on(ClusterId(0)), Some(b));
        assert_eq!(
            st.most_recent_on(ClusterId(0)),
            st.assigned_on(ClusterId(0)).first().copied()
        );
        let mut buf = Vec::new();
        st.assigned_on_into(ClusterId(0), &mut buf);
        assert_eq!(buf, vec![b, a]);
    }

    #[test]
    fn assigned_on_orders_most_recent_first() {
        let mut g = Ddg::new("three");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        let c = g.add(OpKind::IntAlu);
        let m = presets::two_cluster_gp(2, 1);
        let mut st = AssignState::new(&g, &m, 2);
        st.try_assign(a, ClusterId(0)).unwrap();
        st.try_assign(b, ClusterId(0)).unwrap();
        st.try_assign(c, ClusterId(1)).unwrap();
        assert_eq!(st.assigned_on(ClusterId(0)), vec![b, a]);
        assert_eq!(st.assigned_on(ClusterId(1)), vec![c]);
    }
}
