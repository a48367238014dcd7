//! The counting modulo reservation table used during cluster assignment.
//!
//! During assignment no operation has a concrete issue cycle yet, so "is
//! there a free MRT slot" reduces to capacity counting: a cluster offers
//! `units x II` slots per function-unit class, each cluster `ports x II`
//! bus/link port slots, the machine `buses x II` bus slots and `II` slots
//! per point-to-point link. Reservations are keyed by node id so the
//! iterative assigner can release them when it removes a node (§4.3).

use crate::map::{CopyMeta, CopyTargets};
use clasp_ddg::{FuClass, NodeId, OpKind};
use clasp_machine::{ClusterId, Interconnect, LinkId, MachineSpec};

/// Error returned when a reservation does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full;

impl std::fmt::Display for Full {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "insufficient modulo reservation table capacity")
    }
}

impl std::error::Error for Full {}

#[derive(Debug, Clone)]
enum Reservation {
    Op {
        cluster: ClusterId,
        class: FuClass,
    },
    Copy {
        src: ClusterId,
        targets: CopyTargets,
        link: Option<LinkId>,
    },
}

/// One reversible step in the table's mutation journal.
#[derive(Debug, Clone)]
enum CountUndo {
    /// `reserve_op`/`reserve_copy` succeeded for this node.
    Reserved(NodeId),
    /// `release` took this reservation out of the table.
    Released(NodeId, Reservation),
    /// `add_copy_target` appended one target to this copy.
    TargetAdded(NodeId),
    /// `remove_copy_target` removed `ClusterId` at this target position.
    TargetRemoved(NodeId, ClusterId, usize),
}

/// A position in the mutation journal; see [`CountMrt::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountMark(usize);

#[derive(Debug, Clone, Default)]
struct ClusterCounts {
    /// Operations placed per FU class.
    used: [u32; 3],
    read_used: u32,
    write_used: u32,
}

/// Counting MRT over a whole machine at a fixed II.
///
/// # Examples
///
/// ```
/// use clasp_mrt::CountMrt;
/// use clasp_machine::{presets, ClusterId};
/// use clasp_ddg::{NodeId, OpKind};
///
/// let m = presets::two_cluster_gp(2, 1);
/// let mut mrt = CountMrt::new(&m, 2); // II = 2: 8 slots per cluster
/// let c0 = ClusterId(0);
/// for i in 0..8 {
///     mrt.reserve_op(NodeId(i), c0, OpKind::IntAlu).unwrap();
/// }
/// assert!(!mrt.can_reserve_op(c0, OpKind::IntAlu));
/// mrt.release(NodeId(0));
/// assert!(mrt.can_reserve_op(c0, OpKind::IntAlu));
/// ```
#[derive(Debug, Clone)]
pub struct CountMrt<'m> {
    ii: u32,
    /// Borrowed, not owned: a table is built per assigner workspace, and
    /// the machine outlives every one of them.
    machine: &'m MachineSpec,
    clusters: Vec<ClusterCounts>,
    bus_used: u32,
    link_used: Vec<u32>,
    /// Dense, indexed by node id (original nodes and copy ids alike).
    reservations: Vec<Option<Reservation>>,
    reserved: usize,
    /// Undo log of every mutation since the last [`CountMrt::commit`];
    /// lets a tentative placement be rolled back instead of cloning the
    /// whole table.
    journal: Vec<CountUndo>,
}

impl<'m> CountMrt<'m> {
    /// Create an empty table for `machine` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(machine: &'m MachineSpec, ii: u32) -> Self {
        assert!(ii > 0, "II must be positive");
        CountMrt {
            ii,
            machine,
            clusters: vec![ClusterCounts::default(); machine.cluster_count()],
            bus_used: 0,
            link_used: vec![0; machine.interconnect().links().len()],
            reservations: Vec::new(),
            reserved: 0,
            journal: Vec::new(),
        }
    }

    /// Empty the table and rebase it to a new initiation interval, keeping
    /// every buffer's capacity so a warmed table resets without touching
    /// the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, ii: u32) {
        assert!(ii > 0, "II must be positive");
        self.ii = ii;
        for c in &mut self.clusters {
            c.used = [0; 3];
            c.read_used = 0;
            c.write_used = 0;
        }
        self.bus_used = 0;
        for l in &mut self.link_used {
            *l = 0;
        }
        for r in &mut self.reservations {
            *r = None;
        }
        self.reserved = 0;
        self.journal.clear();
    }

    // ---- mutation journal ----------------------------------------------

    /// Snapshot the journal position; [`CountMrt::rollback_to`] restores
    /// the table to exactly this state.
    pub fn mark(&self) -> CountMark {
        CountMark(self.journal.len())
    }

    /// Undo every mutation made since `mark`, in reverse order.
    pub fn rollback_to(&mut self, mark: CountMark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal entry") {
                CountUndo::Reserved(n) => {
                    let _ = self.take_reservation(n);
                }
                CountUndo::Released(n, r) => self.restore_reservation(n, r),
                CountUndo::TargetAdded(n) => {
                    let r = self
                        .reservations
                        .get_mut(n.index())
                        .and_then(|r| r.as_mut())
                        .expect("journaled copy present");
                    match r {
                        Reservation::Copy { targets, .. } => {
                            let t = targets.remove(targets.len() - 1);
                            self.clusters[t.index()].write_used -= 1;
                        }
                        Reservation::Op { .. } => unreachable!("journaled node is a copy"),
                    }
                }
                CountUndo::TargetRemoved(n, t, pos) => {
                    let r = self
                        .reservations
                        .get_mut(n.index())
                        .and_then(|r| r.as_mut())
                        .expect("journaled copy present");
                    match r {
                        Reservation::Copy { targets, .. } => targets.insert(pos, t),
                        Reservation::Op { .. } => unreachable!("journaled node is a copy"),
                    }
                    self.clusters[t.index()].write_used += 1;
                }
            }
        }
    }

    /// Discard the undo log: everything done so far becomes permanent and
    /// earlier marks become invalid.
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    fn restore_reservation(&mut self, node: NodeId, r: Reservation) {
        match &r {
            Reservation::Op { cluster, class } => {
                self.clusters[cluster.index()].used[class.index()] += 1;
            }
            Reservation::Copy { src, targets, link } => {
                self.clusters[src.index()].read_used += 1;
                for t in targets.as_slice() {
                    self.clusters[t.index()].write_used += 1;
                }
                match link {
                    Some(l) => self.link_used[l.index()] += 1,
                    None => self.bus_used += 1,
                }
            }
        }
        self.set_reservation(node, r);
    }

    fn take_reservation(&mut self, node: NodeId) -> Option<Reservation> {
        let taken = self
            .reservations
            .get_mut(node.index())
            .and_then(|r| r.take());
        if taken.is_some() {
            self.reserved -= 1;
        }
        match &taken {
            None => {}
            Some(Reservation::Op { cluster, class }) => {
                self.clusters[cluster.index()].used[class.index()] -= 1;
            }
            Some(Reservation::Copy { src, targets, link }) => {
                self.clusters[src.index()].read_used -= 1;
                for t in targets.as_slice() {
                    self.clusters[t.index()].write_used -= 1;
                }
                match link {
                    Some(l) => self.link_used[l.index()] -= 1,
                    None => self.bus_used -= 1,
                }
            }
        }
        taken
    }

    fn reservation(&self, node: NodeId) -> Option<&Reservation> {
        self.reservations.get(node.index()).and_then(|r| r.as_ref())
    }

    fn set_reservation(&mut self, node: NodeId, r: Reservation) {
        let i = node.index();
        if i >= self.reservations.len() {
            self.reservations.resize(i + 1, None);
        }
        if self.reservations[i].replace(r).is_none() {
            self.reserved += 1;
        }
    }

    /// The initiation interval this table was sized for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The machine this table models.
    pub fn machine(&self) -> &'m MachineSpec {
        self.machine
    }

    // ---- function-unit capacity ---------------------------------------

    /// GP-pool slack of cluster `c` given its current per-class usage:
    /// `gp*II - sum_class overflow(class)`.
    fn gp_free(&self, c: ClusterId) -> u32 {
        let spec = self.machine.cluster(c);
        let counts = &self.clusters[c.index()];
        let gp_cap = spec.general * self.ii;
        let mut overflow = 0u32;
        for class in FuClass::ALL {
            let ded_cap = spec.dedicated(class) * self.ii;
            overflow += counts.used[class.index()].saturating_sub(ded_cap);
        }
        gp_cap.saturating_sub(overflow)
    }

    /// Free slots available to operations of `class` on cluster `c`
    /// (dedicated headroom plus the GP pool slack).
    pub fn free_class_slots(&self, c: ClusterId, class: FuClass) -> u32 {
        let spec = self.machine.cluster(c);
        let counts = &self.clusters[c.index()];
        let ded_cap = spec.dedicated(class) * self.ii;
        let ded_free = ded_cap.saturating_sub(counts.used[class.index()]);
        ded_free + self.gp_free(c)
    }

    /// Total free FU slots on cluster `c` (an upper bound across classes;
    /// used as the paper's "free resources" tie-breaker, Fig. 10 line 8).
    pub fn free_fu_slots(&self, c: ClusterId) -> u32 {
        let spec = self.machine.cluster(c);
        let counts = &self.clusters[c.index()];
        let mut ded_free = 0u32;
        for class in FuClass::ALL {
            let ded_cap = spec.dedicated(class) * self.ii;
            ded_free += ded_cap.saturating_sub(counts.used[class.index()]);
        }
        ded_free + self.gp_free(c)
    }

    /// Whether an operation of `kind` fits on cluster `c`.
    pub fn can_reserve_op(&self, c: ClusterId, kind: OpKind) -> bool {
        match kind.fu_class() {
            None => true, // copies use ports, not FUs
            Some(class) => self.free_class_slots(c, class) > 0,
        }
    }

    /// Reserve an FU slot for `node` (of `kind`) on cluster `c`.
    ///
    /// Copies must use [`CountMrt::reserve_copy`] instead.
    ///
    /// # Errors
    ///
    /// [`Full`] if no slot is available; the table is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `node` already holds a reservation, or `kind` is a copy.
    pub fn reserve_op(&mut self, node: NodeId, c: ClusterId, kind: OpKind) -> Result<(), Full> {
        assert!(self.reservation(node).is_none(), "{node} already reserved");
        let class = kind.fu_class().expect("copies use reserve_copy");
        if self.free_class_slots(c, class) == 0 {
            return Err(Full);
        }
        self.clusters[c.index()].used[class.index()] += 1;
        self.set_reservation(node, Reservation::Op { cluster: c, class });
        self.journal.push(CountUndo::Reserved(node));
        Ok(())
    }

    // ---- interconnect capacity -----------------------------------------

    /// Free bus slots machine-wide.
    pub fn free_bus_slots(&self) -> u32 {
        (self.machine.interconnect().bus_count() * self.ii).saturating_sub(self.bus_used)
    }

    /// Free slots on one point-to-point link.
    pub fn free_link_slots(&self, l: LinkId) -> u32 {
        self.ii.saturating_sub(self.link_used[l.index()])
    }

    /// Free read-port slots on cluster `c`.
    pub fn free_read_slots(&self, c: ClusterId) -> u32 {
        (self.machine.interconnect().read_ports() * self.ii)
            .saturating_sub(self.clusters[c.index()].read_used)
    }

    /// Free write-port slots on cluster `c`.
    pub fn free_write_slots(&self, c: ClusterId) -> u32 {
        (self.machine.interconnect().write_ports() * self.ii)
            .saturating_sub(self.clusters[c.index()].write_used)
    }

    /// The paper's *maximum reservable copies* for cluster `c` (§4.2):
    /// how many additional copies sourced at `c` still have room — limited
    /// by `c`'s free read ports and by transport (free bus slots, or the
    /// free slots of the links touching `c`).
    pub fn mrc(&self, c: ClusterId) -> u32 {
        let read = self.free_read_slots(c);
        match self.machine.interconnect() {
            Interconnect::None => 0,
            Interconnect::Bus { .. } => read.min(self.free_bus_slots()),
            Interconnect::PointToPoint { links, .. } => {
                let transport: u32 = links
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.touches(c))
                    .map(|(i, _)| self.free_link_slots(LinkId(i as u32)))
                    .sum();
                read.min(transport)
            }
        }
    }

    /// Whether a copy `src -> targets` over `link` fits.
    pub fn can_reserve_copy(
        &self,
        src: ClusterId,
        targets: &[ClusterId],
        link: Option<LinkId>,
    ) -> bool {
        if self.free_read_slots(src) == 0 {
            return false;
        }
        if targets.iter().any(|&t| self.free_write_slots(t) == 0) {
            return false;
        }
        match link {
            Some(l) => self.free_link_slots(l) > 0,
            None => self.free_bus_slots() > 0,
        }
    }

    /// Reserve a copy for `node`: one read port on `src`, one write port on
    /// each target, and one bus slot (`link == None`) or one slot on
    /// `link`. A single target is held inline, so reserving a
    /// point-to-point hop never allocates.
    ///
    /// # Errors
    ///
    /// [`Full`] if any resource is exhausted; the table is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `node` already holds a reservation, if `targets` is
    /// empty or contains duplicates or `src`.
    pub fn reserve_copy(
        &mut self,
        node: NodeId,
        src: ClusterId,
        targets: &[ClusterId],
        link: Option<LinkId>,
    ) -> Result<(), Full> {
        assert!(self.reservation(node).is_none(), "{node} already reserved");
        assert!(!targets.is_empty(), "a copy needs a target");
        for (i, t) in targets.iter().enumerate() {
            assert!(*t != src, "copy target equals source");
            assert!(!targets[..i].contains(t), "duplicate copy target");
        }
        if !self.can_reserve_copy(src, targets, link) {
            return Err(Full);
        }
        self.clusters[src.index()].read_used += 1;
        for &t in targets {
            self.clusters[t.index()].write_used += 1;
        }
        match link {
            Some(l) => self.link_used[l.index()] += 1,
            None => self.bus_used += 1,
        }
        let targets = match targets {
            [t] => CopyTargets::One(*t),
            _ => CopyTargets::Many(targets.to_vec()),
        };
        self.set_reservation(node, Reservation::Copy { src, targets, link });
        self.journal.push(CountUndo::Reserved(node));
        Ok(())
    }

    /// Extend an existing broadcast copy with one more destination cluster
    /// (one extra write port; the bus slot is already paid for).
    ///
    /// # Errors
    ///
    /// [`Full`] if `target` has no free write port.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a reserved copy, already targets `target`,
    /// targets its own source, or uses a point-to-point link (p2p copies
    /// reach exactly one cluster).
    pub fn add_copy_target(&mut self, node: NodeId, target: ClusterId) -> Result<(), Full> {
        // Check capacity before mutating the reservation.
        if self.free_write_slots(target) == 0 {
            return Err(Full);
        }
        let r = self
            .reservations
            .get_mut(node.index())
            .and_then(|r| r.as_mut())
            .expect("copy not reserved");
        match r {
            Reservation::Copy { src, targets, link } => {
                assert!(link.is_none(), "p2p copies cannot broadcast");
                assert!(*src != target, "copy target equals source");
                assert!(
                    !targets.as_slice().contains(&target),
                    "target already present"
                );
                targets.push(target);
            }
            Reservation::Op { .. } => panic!("{node} is not a copy"),
        }
        self.clusters[target.index()].write_used += 1;
        self.journal.push(CountUndo::TargetAdded(node));
        Ok(())
    }

    /// Drop one destination from a broadcast copy, freeing its write port.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a reserved copy or does not target
    /// `target`, or if removing `target` would leave the copy targetless
    /// (release the whole copy instead).
    pub fn remove_copy_target(&mut self, node: NodeId, target: ClusterId) {
        let r = self
            .reservations
            .get_mut(node.index())
            .and_then(|r| r.as_mut())
            .expect("copy not reserved");
        let pos = match r {
            Reservation::Copy { targets, .. } => {
                let pos = targets
                    .as_slice()
                    .iter()
                    .position(|&t| t == target)
                    .expect("target not present");
                assert!(targets.len() > 1, "cannot remove last target");
                targets.remove(pos);
                pos
            }
            Reservation::Op { .. } => panic!("{node} is not a copy"),
        };
        self.clusters[target.index()].write_used -= 1;
        self.journal
            .push(CountUndo::TargetRemoved(node, target, pos));
    }

    /// Release whatever `node` holds (no-op if it holds nothing).
    pub fn release(&mut self, node: NodeId) {
        if let Some(r) = self.take_reservation(node) {
            self.journal.push(CountUndo::Released(node, r));
        }
    }

    /// Whether `node` currently holds a reservation.
    pub fn is_reserved(&self, node: NodeId) -> bool {
        self.reservation(node).is_some()
    }

    /// The copy metadata currently reserved for `node`, if it is a copy.
    pub fn reserved_copy(&self, node: NodeId) -> Option<CopyMeta> {
        match self.reservation(node) {
            Some(Reservation::Copy { src, targets, link }) => Some(CopyMeta {
                src: *src,
                targets: targets.as_slice().to_vec(),
                link: *link,
            }),
            _ => None,
        }
    }

    /// Number of nodes holding reservations.
    pub fn reserved_count(&self) -> usize {
        self.reserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_machine::presets;

    #[test]
    fn gp_capacity_counts() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 3); // 12 slots per cluster
        let c = ClusterId(0);
        for i in 0..12 {
            assert!(mrt.reserve_op(NodeId(i), c, OpKind::Load).is_ok());
        }
        assert_eq!(mrt.reserve_op(NodeId(12), c, OpKind::Load), Err(Full));
        assert_eq!(mrt.free_fu_slots(c), 0);
        assert_eq!(mrt.free_fu_slots(ClusterId(1)), 12);
    }

    #[test]
    fn fs_classes_are_separate() {
        let m = presets::two_cluster_fs(2, 1); // 1 mem, 2 int, 1 fp per cluster
        let mut mrt = CountMrt::new(&m, 2);
        let c = ClusterId(0);
        // Memory capacity = 1 * 2 = 2.
        assert!(mrt.reserve_op(NodeId(0), c, OpKind::Load).is_ok());
        assert!(mrt.reserve_op(NodeId(1), c, OpKind::Store).is_ok());
        assert_eq!(mrt.reserve_op(NodeId(2), c, OpKind::Load), Err(Full));
        // Integer capacity 4 untouched.
        assert_eq!(mrt.free_class_slots(c, FuClass::Integer), 4);
        assert!(mrt.can_reserve_op(c, OpKind::IntAlu));
        assert!(!mrt.can_reserve_op(c, OpKind::Load));
    }

    #[test]
    fn gp_pool_absorbs_overflow() {
        use clasp_machine::{ClusterSpec, Interconnect, MachineSpec};
        let m = MachineSpec::new(
            "mix",
            vec![ClusterSpec {
                general: 1,
                memory: 1,
                integer: 0,
                float: 0,
            }],
            Interconnect::None,
        );
        let mut mrt = CountMrt::new(&m, 2);
        let c = ClusterId(0);
        // 2 dedicated memory slots + 2 GP slots.
        for i in 0..4 {
            assert!(mrt.reserve_op(NodeId(i), c, OpKind::Load).is_ok(), "{i}");
        }
        assert_eq!(mrt.reserve_op(NodeId(4), c, OpKind::Load), Err(Full));
        // GP pool exhausted by memory overflow: integer ops no longer fit.
        assert!(!mrt.can_reserve_op(c, OpKind::IntAlu));
    }

    #[test]
    fn copy_consumes_ports_and_bus() {
        let m = presets::two_cluster_gp(1, 1); // 1 bus, 1 port
        let mut mrt = CountMrt::new(&m, 2); // 2 bus slots, 2 port slots/cluster
        let (c0, c1) = (ClusterId(0), ClusterId(1));
        assert!(mrt.reserve_copy(NodeId(0), c0, &[c1], None).is_ok());
        assert_eq!(mrt.free_bus_slots(), 1);
        assert_eq!(mrt.free_read_slots(c0), 1);
        assert_eq!(mrt.free_write_slots(c1), 1);
        assert!(mrt.reserve_copy(NodeId(1), c1, &[c0], None).is_ok());
        assert_eq!(mrt.free_bus_slots(), 0);
        // Bus exhausted.
        assert_eq!(mrt.reserve_copy(NodeId(2), c0, &[c1], None), Err(Full));
        mrt.release(NodeId(0));
        assert!(mrt.reserve_copy(NodeId(2), c0, &[c1], None).is_ok());
    }

    #[test]
    fn broadcast_copy_multiple_targets() {
        let m = presets::four_cluster_gp(4, 2);
        let mut mrt = CountMrt::new(&m, 1);
        let targets = [ClusterId(1), ClusterId(2), ClusterId(3)];
        assert!(mrt
            .reserve_copy(NodeId(0), ClusterId(0), &targets, None)
            .is_ok());
        // One bus slot, three write ports.
        assert_eq!(mrt.free_bus_slots(), 3);
        for &t in &targets {
            assert_eq!(mrt.free_write_slots(t), 1);
        }
        mrt.release(NodeId(0));
        assert_eq!(mrt.free_bus_slots(), 4);
    }

    #[test]
    fn extend_and_shrink_broadcast() {
        let m = presets::four_cluster_gp(4, 1);
        let mut mrt = CountMrt::new(&m, 1);
        mrt.reserve_copy(NodeId(0), ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        assert!(mrt.add_copy_target(NodeId(0), ClusterId(2)).is_ok());
        assert_eq!(mrt.free_write_slots(ClusterId(2)), 0);
        // Write port on C2 now exhausted for another copy.
        assert!(!mrt.can_reserve_copy(ClusterId(1), &[ClusterId(2)], None));
        mrt.remove_copy_target(NodeId(0), ClusterId(2));
        assert_eq!(mrt.free_write_slots(ClusterId(2)), 1);
        let meta = mrt.reserved_copy(NodeId(0)).unwrap();
        assert_eq!(meta.targets, vec![ClusterId(1)]);
    }

    #[test]
    fn p2p_link_capacity() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 1);
        let link01 = m
            .interconnect()
            .link_between(ClusterId(0), ClusterId(1))
            .unwrap();
        assert!(mrt
            .reserve_copy(NodeId(0), ClusterId(0), &[ClusterId(1)], Some(link01))
            .is_ok());
        assert_eq!(mrt.free_link_slots(link01), 0);
        assert!(!mrt.can_reserve_copy(ClusterId(1), &[ClusterId(0)], Some(link01)));
        // The other link out of C0 is free.
        let link02 = m
            .interconnect()
            .link_between(ClusterId(0), ClusterId(2))
            .unwrap();
        assert!(mrt.can_reserve_copy(ClusterId(0), &[ClusterId(2)], Some(link02)));
    }

    #[test]
    fn mrc_bused() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 2); // 4 bus slots, 2 read slots/cluster
        assert_eq!(mrt.mrc(ClusterId(0)), 2); // limited by read ports
        mrt.reserve_copy(NodeId(0), ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        assert_eq!(mrt.mrc(ClusterId(0)), 1);
        mrt.reserve_copy(NodeId(1), ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        assert_eq!(mrt.mrc(ClusterId(0)), 0);
    }

    #[test]
    fn mrc_p2p_sums_links() {
        let m = presets::four_cluster_grid(4); // 4 read slots at II=1
        let mrt = CountMrt::new(&m, 1);
        // Two links touch C0, each with 1 slot; read ports allow 4.
        assert_eq!(mrt.mrc(ClusterId(0)), 2);
    }

    #[test]
    fn unified_machine_has_zero_mrc() {
        let m = presets::unified_gp(8);
        let mrt = CountMrt::new(&m, 4);
        assert_eq!(mrt.mrc(ClusterId(0)), 0);
        assert_eq!(mrt.free_bus_slots(), 0);
    }

    #[test]
    #[should_panic(expected = "already reserved")]
    fn double_reserve_panics() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 2);
        mrt.reserve_op(NodeId(0), ClusterId(0), OpKind::Load)
            .unwrap();
        let _ = mrt.reserve_op(NodeId(0), ClusterId(0), OpKind::Load);
    }

    #[test]
    fn release_is_idempotent_for_missing() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 2);
        mrt.release(NodeId(42)); // no-op
        assert_eq!(mrt.reserved_count(), 0);
    }

    type Snapshot = (Vec<(u32, u32, u32)>, u32, Vec<u32>, usize);

    fn snapshot(mrt: &CountMrt<'_>) -> Snapshot {
        (
            mrt.clusters
                .iter()
                .map(|c| (c.used.iter().sum(), c.read_used, c.write_used))
                .collect(),
            mrt.bus_used,
            mrt.link_used.clone(),
            mrt.reserved,
        )
    }

    #[test]
    fn rollback_undoes_reserve_release_and_target_edits() {
        let m = presets::four_cluster_gp(4, 2);
        let mut mrt = CountMrt::new(&m, 2);
        let (c0, c1, c2) = (ClusterId(0), ClusterId(1), ClusterId(2));
        mrt.reserve_op(NodeId(0), c0, OpKind::IntAlu).unwrap();
        mrt.reserve_copy(NodeId(1), c0, &[c1], None).unwrap();
        mrt.commit();
        let before = snapshot(&mrt);

        let mark = mrt.mark();
        mrt.reserve_op(NodeId(2), c1, OpKind::Load).unwrap();
        mrt.add_copy_target(NodeId(1), c2).unwrap();
        mrt.remove_copy_target(NodeId(1), c2);
        mrt.release(NodeId(0));
        mrt.reserve_copy(NodeId(3), c2, &[c0], None).unwrap();
        mrt.rollback_to(mark);

        assert_eq!(snapshot(&mrt), before);
        assert!(mrt.is_reserved(NodeId(0)));
        assert!(!mrt.is_reserved(NodeId(2)));
        assert!(!mrt.is_reserved(NodeId(3)));
        assert_eq!(mrt.reserved_copy(NodeId(1)).unwrap().targets, vec![c1]);
    }

    #[test]
    fn nested_marks_rollback_in_order() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 2);
        let c0 = ClusterId(0);
        let outer = mrt.mark();
        mrt.reserve_op(NodeId(0), c0, OpKind::IntAlu).unwrap();
        let inner = mrt.mark();
        mrt.reserve_op(NodeId(1), c0, OpKind::IntAlu).unwrap();
        mrt.rollback_to(inner);
        assert!(mrt.is_reserved(NodeId(0)));
        assert!(!mrt.is_reserved(NodeId(1)));
        mrt.rollback_to(outer);
        assert_eq!(mrt.reserved_count(), 0);
    }

    #[test]
    fn reset_rebases_ii_and_clears_reservations() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 1);
        let c0 = ClusterId(0);
        mrt.reserve_op(NodeId(0), c0, OpKind::IntAlu).unwrap();
        mrt.reserve_copy(NodeId(1), c0, &[ClusterId(1)], None)
            .unwrap();
        mrt.reset(3);
        assert_eq!(mrt.ii(), 3);
        assert_eq!(mrt.reserved_count(), 0);
        assert!(!mrt.is_reserved(NodeId(0)));
        assert_eq!(mrt.free_fu_slots(c0), 4 * 3);
        assert_eq!(mrt.free_bus_slots(), 2 * 3);
    }

    #[test]
    fn failed_reserve_leaves_table_unchanged() {
        let m = presets::two_cluster_gp(1, 1);
        let mut mrt = CountMrt::new(&m, 1);
        mrt.reserve_copy(NodeId(0), ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        // Bus is full; write port on C0 untouched by failed attempt.
        let before_write = mrt.free_write_slots(ClusterId(0));
        assert_eq!(
            mrt.reserve_copy(NodeId(1), ClusterId(1), &[ClusterId(0)], None),
            Err(Full)
        );
        assert_eq!(mrt.free_write_slots(ClusterId(0)), before_write);
        assert!(!mrt.is_reserved(NodeId(1)));
    }
}
