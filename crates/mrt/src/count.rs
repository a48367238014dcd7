//! The counting modulo reservation table used during cluster assignment.
//!
//! During assignment no operation has a concrete issue cycle yet, so "is
//! there a free MRT slot" reduces to capacity counting: a cluster offers
//! `units x II` slots per function-unit class, each cluster `ports x II`
//! bus/link port slots, the machine `buses x II` bus slots and `II` slots
//! per point-to-point link. The table holds nothing but those counts: the
//! caller owns what each reservation was (an op's cluster, a copy's
//! source, targets and link) and hands it back to release it, so undoing a
//! tentative placement is the owner's journal replaying its own calls.

use clasp_ddg::{FuClass, OpKind};
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
/// use clasp_ddg::OpKind;
///
/// let m = presets::two_cluster_gp(2, 1);
/// let mut mrt = CountMrt::new(&m, 2); // II = 2: 8 slots per cluster
/// let c0 = ClusterId(0);
/// for _ in 0..8 {
///     mrt.reserve_op(c0, OpKind::IntAlu).unwrap();
/// }
/// assert!(!mrt.can_reserve_op(c0, OpKind::IntAlu));
/// mrt.release_op(c0, OpKind::IntAlu);
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
        self.clusters.fill(ClusterCounts::default());
        self.bus_used = 0;
        self.link_used.fill(0);
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

    /// Reserve an FU slot for an operation of `kind` on cluster `c`.
    ///
    /// Copies must use [`CountMrt::reserve_copy`] instead.
    ///
    /// # Errors
    ///
    /// [`Full`] if no slot is available; the table is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a copy.
    pub fn reserve_op(&mut self, c: ClusterId, kind: OpKind) -> Result<(), Full> {
        let class = kind.fu_class().expect("copies use reserve_copy");
        if self.free_class_slots(c, class) == 0 {
            return Err(Full);
        }
        self.clusters[c.index()].used[class.index()] += 1;
        Ok(())
    }

    /// Give back the FU slot an earlier [`CountMrt::reserve_op`]`(c, kind)`
    /// took.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a copy, and (in debug builds) if no operation
    /// of `kind`'s class holds a slot on `c`: the table cannot tell one
    /// holder from another, so a release must match a reservation.
    pub fn release_op(&mut self, c: ClusterId, kind: OpKind) {
        let class = kind.fu_class().expect("copies use release_copy");
        self.clusters[c.index()].used[class.index()] -= 1;
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

    /// Reserve a copy: one read port on `src`, one write port on each
    /// target, and one bus slot (`link == None`) or one slot on `link`.
    ///
    /// # Errors
    ///
    /// [`Full`] if any resource is exhausted; the table is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or contains duplicates or `src`.
    pub fn reserve_copy(
        &mut self,
        src: ClusterId,
        targets: &[ClusterId],
        link: Option<LinkId>,
    ) -> Result<(), Full> {
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
        *self.transport_used(link) += 1;
        Ok(())
    }

    /// Give back everything an earlier
    /// [`CountMrt::reserve_copy`]`(src, targets, link)` took, with
    /// `targets` as the copy holds them now (after any
    /// [`CountMrt::add_copy_target`] / [`CountMrt::remove_copy_target`]).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a count would drop below zero.
    pub fn release_copy(&mut self, src: ClusterId, targets: &[ClusterId], link: Option<LinkId>) {
        self.clusters[src.index()].read_used -= 1;
        for &t in targets {
            self.clusters[t.index()].write_used -= 1;
        }
        *self.transport_used(link) -= 1;
    }

    /// The slot count a copy over `link` (a bus when `None`) draws on.
    fn transport_used(&mut self, link: Option<LinkId>) -> &mut u32 {
        match link {
            Some(l) => &mut self.link_used[l.index()],
            None => &mut self.bus_used,
        }
    }

    /// Extend a reserved broadcast copy with one more destination cluster
    /// (one extra write port; the bus slot is already paid for). The
    /// caller guarantees `target` is neither the copy's source nor one of
    /// its targets, and that the copy rides a bus.
    ///
    /// # Errors
    ///
    /// [`Full`] if `target` has no free write port; the table is
    /// unchanged.
    pub fn add_copy_target(&mut self, target: ClusterId) -> Result<(), Full> {
        if self.free_write_slots(target) == 0 {
            return Err(Full);
        }
        self.clusters[target.index()].write_used += 1;
        Ok(())
    }

    /// Drop one destination from a broadcast copy, freeing its write port.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if no write port on `target` is held.
    pub fn remove_copy_target(&mut self, target: ClusterId) {
        self.clusters[target.index()].write_used -= 1;
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
        for _ in 0..12 {
            assert!(mrt.reserve_op(c, OpKind::Load).is_ok());
        }
        assert_eq!(mrt.reserve_op(c, OpKind::Load), Err(Full));
        assert_eq!(mrt.free_fu_slots(c), 0);
        assert_eq!(mrt.free_fu_slots(ClusterId(1)), 12);
    }

    #[test]
    fn fs_classes_are_separate() {
        let m = presets::two_cluster_fs(2, 1); // 1 mem, 2 int, 1 fp per cluster
        let mut mrt = CountMrt::new(&m, 2);
        let c = ClusterId(0);
        // Memory capacity = 1 * 2 = 2.
        assert!(mrt.reserve_op(c, OpKind::Load).is_ok());
        assert!(mrt.reserve_op(c, OpKind::Store).is_ok());
        assert_eq!(mrt.reserve_op(c, OpKind::Load), Err(Full));
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
            assert!(mrt.reserve_op(c, OpKind::Load).is_ok(), "{i}");
        }
        assert_eq!(mrt.reserve_op(c, OpKind::Load), Err(Full));
        // GP pool exhausted by memory overflow: integer ops no longer fit.
        assert!(!mrt.can_reserve_op(c, OpKind::IntAlu));
    }

    #[test]
    fn copy_consumes_ports_and_bus() {
        let m = presets::two_cluster_gp(1, 1); // 1 bus, 1 port
        let mut mrt = CountMrt::new(&m, 2); // 2 bus slots, 2 port slots/cluster
        let (c0, c1) = (ClusterId(0), ClusterId(1));
        assert!(mrt.reserve_copy(c0, &[c1], None).is_ok());
        assert_eq!(mrt.free_bus_slots(), 1);
        assert_eq!(mrt.free_read_slots(c0), 1);
        assert_eq!(mrt.free_write_slots(c1), 1);
        assert!(mrt.reserve_copy(c1, &[c0], None).is_ok());
        assert_eq!(mrt.free_bus_slots(), 0);
        // Bus exhausted.
        assert_eq!(mrt.reserve_copy(c0, &[c1], None), Err(Full));
        mrt.release_copy(c0, &[c1], None);
        assert!(mrt.reserve_copy(c0, &[c1], None).is_ok());
    }

    #[test]
    fn broadcast_copy_multiple_targets() {
        let m = presets::four_cluster_gp(4, 2);
        let mut mrt = CountMrt::new(&m, 1);
        let targets = [ClusterId(1), ClusterId(2), ClusterId(3)];
        assert!(mrt.reserve_copy(ClusterId(0), &targets, None).is_ok());
        // One bus slot, three write ports.
        assert_eq!(mrt.free_bus_slots(), 3);
        for &t in &targets {
            assert_eq!(mrt.free_write_slots(t), 1);
        }
        mrt.release_copy(ClusterId(0), &targets, None);
        assert_eq!(mrt.free_bus_slots(), 4);
    }

    #[test]
    fn extend_and_shrink_broadcast() {
        let m = presets::four_cluster_gp(4, 1);
        let mut mrt = CountMrt::new(&m, 1);
        mrt.reserve_copy(ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        assert!(mrt.add_copy_target(ClusterId(2)).is_ok());
        assert_eq!(mrt.free_write_slots(ClusterId(2)), 0);
        // Write port on C2 now exhausted for another copy.
        assert!(!mrt.can_reserve_copy(ClusterId(1), &[ClusterId(2)], None));
        mrt.remove_copy_target(ClusterId(2));
        assert_eq!(mrt.free_write_slots(ClusterId(2)), 1);
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
            .reserve_copy(ClusterId(0), &[ClusterId(1)], Some(link01))
            .is_ok());
        assert_eq!(mrt.free_link_slots(link01), 0);
        assert!(!mrt.can_reserve_copy(ClusterId(1), &[ClusterId(0)], Some(link01)));
        // The other link out of C0 is free.
        let link02 = m
            .interconnect()
            .link_between(ClusterId(0), ClusterId(2))
            .unwrap();
        assert!(mrt.can_reserve_copy(ClusterId(0), &[ClusterId(2)], Some(link02)));
        mrt.release_copy(ClusterId(0), &[ClusterId(1)], Some(link01));
        assert_eq!(mrt.free_link_slots(link01), 1);
    }

    #[test]
    fn mrc_bused() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 2); // 4 bus slots, 2 read slots/cluster
        assert_eq!(mrt.mrc(ClusterId(0)), 2); // limited by read ports
        mrt.reserve_copy(ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        assert_eq!(mrt.mrc(ClusterId(0)), 1);
        mrt.reserve_copy(ClusterId(0), &[ClusterId(1)], None)
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
    fn reset_rebases_ii_and_clears_reservations() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, 1);
        let c0 = ClusterId(0);
        mrt.reserve_op(c0, OpKind::IntAlu).unwrap();
        mrt.reserve_copy(c0, &[ClusterId(1)], None).unwrap();
        mrt.reset(3);
        assert_eq!(mrt.ii(), 3);
        assert_eq!(mrt.free_fu_slots(c0), 4 * 3);
        assert_eq!(mrt.free_bus_slots(), 2 * 3);
        assert_eq!(mrt.free_read_slots(c0), 3);
        assert_eq!(mrt.free_write_slots(ClusterId(1)), 3);
    }

    #[test]
    fn failed_reserve_leaves_table_unchanged() {
        let m = presets::two_cluster_gp(1, 1);
        let mut mrt = CountMrt::new(&m, 1);
        mrt.reserve_copy(ClusterId(0), &[ClusterId(1)], None)
            .unwrap();
        // Bus is full; write port on C0 untouched by failed attempt.
        let before_write = mrt.free_write_slots(ClusterId(0));
        let before_read = mrt.free_read_slots(ClusterId(1));
        assert_eq!(
            mrt.reserve_copy(ClusterId(1), &[ClusterId(0)], None),
            Err(Full)
        );
        assert_eq!(mrt.free_write_slots(ClusterId(0)), before_write);
        assert_eq!(mrt.free_read_slots(ClusterId(1)), before_read);
    }
}
