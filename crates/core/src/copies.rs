//! Copy management: creating, sharing, routing, and releasing the explicit
//! inter-cluster copy operations the assignment phase inserts.
//!
//! Copies are identified by synthetic [`NodeId`]s allocated past the
//! original graph's node range (they become real graph nodes only when the
//! final assignment is materialized). Three invariants drive the design:
//!
//! - **Sharing.** On broadcast buses, one copy per produced value serves
//!   every destination cluster (extra destinations cost one write port
//!   each). On point-to-point fabrics each hop is its own copy.
//! - **Routing.** A value needed on a cluster with no direct link is
//!   routed as a chain of copies along a shortest available path; interior
//!   hops make the value available for later consumers too.
//! - **Reference counting.** Every consumer edge holds one *use* of the
//!   delivery at its cluster; chains hold uses of their upstream hop.
//!   Releasing the last use frees the copy's MRT resources recursively, so
//!   the iterative assigner can cleanly undo decisions (§4.3).
//!
//! All bookkeeping is dense: live copies sit in a vector indexed by id,
//! deliveries in a `producer x cluster` table, and routes come from a
//! [`RouteTable`] built once per manager. Trying a placement therefore
//! never hashes and, once the buffers are warm, never allocates.

use clasp_ddg::NodeId;
use clasp_machine::{ClusterId, Interconnect, LinkId, MachineSpec, RouteTable};
use clasp_mrt::{CopyTargets, CountMrt, Full};

/// One live copy operation (not yet a graph node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyRecord {
    /// The original operation whose value this copy transports.
    pub producer: NodeId,
    /// Cluster the copy reads from (the producer's cluster, or an
    /// intermediate hop).
    pub src: ClusterId,
    /// Destination clusters (several only on broadcast buses).
    pub targets: CopyTargets,
    /// Dedicated link (point-to-point fabrics only).
    pub link: Option<LinkId>,
}

/// One slot of the delivery table: the copy delivering a producer's value
/// to one cluster, and how many uses (consumer edges and chained hops)
/// hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delivery {
    /// Delivering copy id, or [`Delivery::NONE`].
    copy: u32,
    /// Uses held; 0 only for an interior hop whose next hop is not yet
    /// reserved.
    uses: u32,
}

impl Delivery {
    const NONE: u32 = u32::MAX;
    const EMPTY: Delivery = Delivery {
        copy: Delivery::NONE,
        uses: 0,
    };

    fn is_some(self) -> bool {
        self.copy != Delivery::NONE
    }
}

/// One reversible step in the manager's mutation journal.
#[derive(Debug, Clone)]
enum CopyUndo {
    /// The use count of `producer`'s delivery at this cluster rose by one.
    UseBumped(NodeId, ClusterId),
    /// The use count of `producer`'s delivery at this cluster fell by one
    /// (without reaching zero).
    UseDropped(NodeId, ClusterId),
    /// An existing broadcast copy gained `target` (pushed last).
    TargetExtended {
        producer: NodeId,
        copy: NodeId,
        target: ClusterId,
    },
    /// A brand-new copy was created delivering `producer` to `target`.
    /// Undone in LIFO order, so `next_id -= 1` restores the id counter.
    Created {
        producer: NodeId,
        copy: NodeId,
        target: ClusterId,
    },
    /// A broadcast copy lost `target` (its last use released) at
    /// position `pos` of its target list.
    TargetCut {
        producer: NodeId,
        copy: NodeId,
        target: ClusterId,
        pos: usize,
    },
    /// A whole copy was freed (its last use released).
    Freed {
        copy: NodeId,
        target: ClusterId,
        record: CopyRecord,
    },
}

/// A position in the mutation journal; see [`CopyManager::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyMark(usize);

/// Tracks all live copies, value availability, and per-target use counts.
///
/// All resource effects go through the [`CountMrt`] passed to each call.
/// The manager owns what each copy reserved (its [`CopyRecord`]), so
/// [`CopyManager::mark`] / [`CopyManager::rollback_to`] undo tentative
/// work in the manager and in the MRT's counts alike.
#[derive(Debug, Clone)]
pub struct CopyManager {
    first_id: u32,
    next_id: u32,
    /// Clusters per delivery row.
    clusters: usize,
    /// Copy `id` lives at `copies[id - first_id]`; `None` once freed.
    /// Its length is always `next_id - first_id`.
    copies: Vec<Option<CopyRecord>>,
    /// `deliveries[producer * clusters + cluster]`: the copy delivering
    /// `producer`'s value to `cluster` (never the producer's own) and its
    /// use count.
    deliveries: Vec<Delivery>,
    /// Live copies per producer (the paper's `RC(N)`).
    rc: Vec<u32>,
    /// Shortest routes over the machine's point-to-point links (empty on
    /// other fabrics); rows persist across [`CopyManager::reset`].
    routes: RouteTable,
    /// Undo log of every mutation since the last [`CopyManager::commit`];
    /// lets tentative work be rolled back instead of cloning the manager.
    journal: Vec<CopyUndo>,
}

impl CopyManager {
    /// Create a manager for `machine`, allocating copy ids from
    /// `first_copy_id` upward (pass the original graph's node count:
    /// producers are the ids below it).
    pub fn new(machine: &MachineSpec, first_copy_id: u32) -> Self {
        let clusters = machine.cluster_count();
        CopyManager {
            first_id: first_copy_id,
            next_id: first_copy_id,
            clusters,
            copies: Vec::new(),
            deliveries: vec![Delivery::EMPTY; first_copy_id as usize * clusters],
            rc: vec![0; first_copy_id as usize],
            routes: RouteTable::new(machine.interconnect().links(), clusters),
            journal: Vec::new(),
        }
    }

    /// Drop every live copy and restart id allocation at the first copy
    /// id, retaining every buffer's capacity (and the filled route rows)
    /// for reuse.
    pub fn reset(&mut self) {
        self.next_id = self.first_id;
        self.copies.clear();
        self.deliveries.fill(Delivery::EMPTY);
        self.rc.fill(0);
        self.journal.clear();
    }

    /// Snapshot the journal position; [`CopyManager::rollback_to`]
    /// restores the manager to exactly this state.
    pub fn mark(&self) -> CopyMark {
        CopyMark(self.journal.len())
    }

    /// Undo every mutation made since `mark`, in reverse order, giving
    /// back (or retaking) in `mrt` the port, bus and link slots each step
    /// took (or freed). `mrt` must be the table the steps reserved in.
    pub fn rollback_to(&mut self, mark: CopyMark, mrt: &mut CountMrt) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal entry") {
                CopyUndo::UseBumped(producer, c) => {
                    let at = self.slot(producer, c);
                    self.deliveries[at].uses -= 1;
                }
                CopyUndo::UseDropped(producer, c) => {
                    let at = self.slot(producer, c);
                    self.deliveries[at].uses += 1;
                }
                CopyUndo::TargetExtended {
                    producer,
                    copy,
                    target,
                } => {
                    let targets = &mut self.record_mut(copy).targets;
                    let popped = targets.remove(targets.len() - 1);
                    debug_assert_eq!(popped, target);
                    mrt.remove_copy_target(target);
                    let at = self.slot(producer, target);
                    self.deliveries[at] = Delivery::EMPTY;
                }
                CopyUndo::Created {
                    producer,
                    copy,
                    target,
                } => {
                    // LIFO rollback: `copy` was the most recent allocation.
                    debug_assert_eq!(copy.0 + 1, self.next_id);
                    self.next_id = copy.0;
                    let record = self.copies.pop().flatten().expect("created copy is live");
                    mrt.release_copy(record.src, record.targets.as_slice(), record.link);
                    self.rc[producer.index()] -= 1;
                    let at = self.slot(producer, target);
                    self.deliveries[at] = Delivery::EMPTY;
                }
                CopyUndo::TargetCut {
                    producer,
                    copy,
                    target,
                    pos,
                } => {
                    mrt.add_copy_target(target).expect("a restored target fits");
                    self.record_mut(copy).targets.insert(pos, target);
                    let at = self.slot(producer, target);
                    self.deliveries[at] = Delivery {
                        copy: copy.0,
                        uses: 1,
                    };
                }
                CopyUndo::Freed {
                    copy,
                    target,
                    record,
                } => {
                    mrt.reserve_copy(record.src, record.targets.as_slice(), record.link)
                        .expect("a restored copy fits");
                    let at = self.slot(record.producer, target);
                    self.deliveries[at] = Delivery {
                        copy: copy.0,
                        uses: 1,
                    };
                    self.rc[record.producer.index()] += 1;
                    let i = (copy.0 - self.first_id) as usize;
                    self.copies[i] = Some(record);
                }
            }
        }
    }

    /// Discard the undo log: everything done so far becomes permanent and
    /// earlier marks become invalid.
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    /// Number of live copy operations.
    pub fn live_count(&self) -> usize {
        self.copies.iter().flatten().count()
    }

    /// Number of live copies transporting `producer`'s value (the paper's
    /// `RC(N)`).
    pub fn rc(&self, producer: NodeId) -> u32 {
        self.rc[producer.index()]
    }

    /// Iterate over live copies in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &CopyRecord)> + '_ {
        let first = self.first_id;
        self.copies
            .iter()
            .enumerate()
            .filter_map(move |(i, r)| r.as_ref().map(|r| (NodeId(first + i as u32), r)))
    }

    /// The copy delivering `producer`'s value to `cluster`, if the value
    /// has been copied there.
    pub fn delivery(&self, producer: NodeId, cluster: ClusterId) -> Option<NodeId> {
        let d = self.deliveries[self.slot(producer, cluster)];
        d.is_some().then_some(NodeId(d.copy))
    }

    /// The copy record for `id`.
    pub fn record(&self, id: NodeId) -> Option<&CopyRecord> {
        let i = id.0.checked_sub(self.first_id)? as usize;
        self.copies.get(i)?.as_ref()
    }

    fn record_mut(&mut self, id: NodeId) -> &mut CopyRecord {
        self.copies[(id.0 - self.first_id) as usize]
            .as_mut()
            .expect("live copy")
    }

    /// Index of `(producer, cluster)` in the delivery table.
    fn slot(&self, producer: NodeId, cluster: ClusterId) -> usize {
        producer.index() * self.clusters + cluster.index()
    }

    /// Allocate the next copy id for a copy already reserved in the MRT,
    /// record it, and make it the delivery of `producer` at `target` with
    /// `uses` uses. Reserving first means a copy that does not fit never
    /// consumes an id, so a rolled back attempt allocates the same ids as
    /// a from-scratch replay.
    fn create(
        &mut self,
        producer: NodeId,
        src: ClusterId,
        target: ClusterId,
        link: Option<LinkId>,
        uses: u32,
    ) {
        let copy = NodeId(self.next_id);
        self.next_id += 1;
        self.copies.push(Some(CopyRecord {
            producer,
            src,
            targets: CopyTargets::One(target),
            link,
        }));
        self.rc[producer.index()] += 1;
        let at = self.slot(producer, target);
        self.deliveries[at] = Delivery { copy: copy.0, uses };
        self.journal.push(CopyUndo::Created {
            producer,
            copy,
            target,
        });
    }

    /// Register one more use of `producer`'s existing delivery at `c`.
    fn bump(&mut self, producer: NodeId, c: ClusterId) {
        let at = self.slot(producer, c);
        debug_assert!(self.deliveries[at].is_some(), "bumped delivery exists");
        self.deliveries[at].uses += 1;
        self.journal.push(CopyUndo::UseBumped(producer, c));
    }

    /// Make `producer`'s value (whose home cluster is `home`) available on
    /// `target`, reserving any new resources in `mrt` (whose machine this
    /// manager was built for), and register one use. Returns the number of
    /// new copy operations created (0 when an existing delivery or
    /// broadcast extension sufficed).
    ///
    /// # Errors
    ///
    /// [`Full`] if the needed ports/bus/link slots are not available. The
    /// MRT may be left with partial chain reservations on error — callers
    /// bracket tentative work with marks, per the assigner's design.
    ///
    /// # Panics
    ///
    /// Panics if `target == home`.
    pub fn ensure_value_at(
        &mut self,
        mrt: &mut CountMrt,
        producer: NodeId,
        home: ClusterId,
        target: ClusterId,
    ) -> Result<u32, Full> {
        assert_ne!(target, home, "value already lives on {target}");
        if self.deliveries[self.slot(producer, target)].is_some() {
            self.bump(producer, target);
            return Ok(0);
        }
        match mrt.machine().interconnect() {
            Interconnect::None => Err(Full),
            Interconnect::Bus { .. } => {
                // Reuse the producer's broadcast copy when one exists:
                // every live copy delivers to at least one cluster, so it
                // shows up in the producer's delivery row.
                debug_assert!(self.rc(producer) <= 1, "one bus copy per producer");
                let row = self.slot(producer, ClusterId(0));
                let existing = self.deliveries[row..row + self.clusters]
                    .iter()
                    .find(|d| d.is_some())
                    .map(|d| NodeId(d.copy));
                match existing {
                    Some(id) => {
                        mrt.add_copy_target(target)?;
                        self.record_mut(id).targets.push(target);
                        let at = self.slot(producer, target);
                        self.deliveries[at] = Delivery {
                            copy: id.0,
                            uses: 1,
                        };
                        self.journal.push(CopyUndo::TargetExtended {
                            producer,
                            copy: id,
                            target,
                        });
                        Ok(0)
                    }
                    None => {
                        mrt.reserve_copy(home, &[target], None)?;
                        self.create(producer, home, target, None, 1);
                        Ok(1)
                    }
                }
            }
            Interconnect::PointToPoint { .. } => self.route_p2p(mrt, producer, home, target),
        }
    }

    /// Point-to-point delivery: hop-by-hop copies along the shortest path
    /// from the nearest cluster already holding the value.
    fn route_p2p(
        &mut self,
        mrt: &mut CountMrt,
        producer: NodeId,
        home: ClusterId,
        target: ClusterId,
    ) -> Result<u32, Full> {
        // Candidate sources: home first, then every cluster with a
        // delivery in ascending id. Strictly shorter routes win, so ties
        // go to home, then to the lowest cluster already holding the value.
        let row = self.slot(producer, ClusterId(0));
        let mut best = self.routes.hops(home, target).map(|h| (home, h));
        for i in 0..self.clusters {
            if !self.deliveries[row + i].is_some() {
                continue;
            }
            let c = ClusterId(i as u32);
            if let Some(h) = self.routes.hops(c, target) {
                if best.is_none_or(|(_, b)| h < b) {
                    best = Some((c, h));
                }
            }
        }
        let (mut u, _) = best.ok_or(Full)?;
        let mut created = 0u32;
        while let Some((v, link)) = self.routes.next_hop(u, target) {
            // Interior clusters of the path may coincidentally already
            // hold the value (only when the path started at `home` but an
            // interior delivery exists); reuse it.
            if self.deliveries[row + v.index()].is_some() {
                u = v;
                continue;
            }
            mrt.reserve_copy(u, &[v], Some(link))?;
            // Interior hops start with zero uses; the next hop (or the
            // final consumer, below) registers the actual use.
            self.create(producer, u, v, Some(link), 0);
            created += 1;
            // The hop reads the value at `u`: that is a use of u's
            // delivery (unless u is the home cluster).
            if u != home && self.deliveries[row + u.index()].is_some() {
                self.bump(producer, u);
            }
            u = v;
        }
        // Register the final consumer's use at the target.
        self.bump(producer, target);
        Ok(created)
    }

    /// Release one use of `producer`'s delivery at `target`; frees copies
    /// (and upstream chain hops) whose use count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if no delivery of `producer` at `target` exists.
    pub fn release_value_use(
        &mut self,
        mrt: &mut CountMrt,
        producer: NodeId,
        home: ClusterId,
        target: ClusterId,
    ) {
        let at = self.slot(producer, target);
        let d = &mut self.deliveries[at];
        assert!(d.is_some(), "no delivery to release");
        let id = NodeId(d.copy);
        d.uses -= 1;
        if d.uses > 0 {
            self.journal.push(CopyUndo::UseDropped(producer, target));
            return;
        }
        *d = Delivery::EMPTY;
        let targets = &mut self.record_mut(id).targets;
        if targets.len() > 1 {
            // Broadcast copy still serving other clusters: drop one target.
            let pos = targets
                .as_slice()
                .iter()
                .position(|&t| t == target)
                .expect("target present");
            targets.remove(pos);
            mrt.remove_copy_target(target);
            self.journal.push(CopyUndo::TargetCut {
                producer,
                copy: id,
                target,
                pos,
            });
        } else {
            let record = self.copies[(id.0 - self.first_id) as usize]
                .take()
                .expect("live copy");
            self.rc[producer.index()] -= 1;
            let src = record.src;
            mrt.release_copy(src, record.targets.as_slice(), record.link);
            self.journal.push(CopyUndo::Freed {
                copy: id,
                target,
                record,
            });
            // A chain hop read the value at `src`: release that use too.
            // Its journal entries land after `Freed`, so LIFO rollback
            // restores upstream state first, then this copy.
            if src != home && self.deliveries[self.slot(producer, src)].is_some() {
                self.release_value_use(mrt, producer, home, src);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use clasp_ddg::FuClass;
    use clasp_machine::presets;

    /// Every count `mrt` answers from, as free slots: per cluster the FU
    /// slots of each class and the read and write ports, then the bus
    /// slots and the slots of every link.
    pub(crate) fn mrt_counts(mrt: &CountMrt) -> Vec<u32> {
        let m = mrt.machine();
        let mut counts = Vec::new();
        for c in m.cluster_ids() {
            counts.extend(FuClass::ALL.map(|class| mrt.free_class_slots(c, class)));
            counts.push(mrt.free_read_slots(c));
            counts.push(mrt.free_write_slots(c));
        }
        counts.push(mrt.free_bus_slots());
        let links = m.interconnect().links().len() as u32;
        counts.extend((0..links).map(|l| mrt.free_link_slots(LinkId(l))));
        counts
    }

    fn setup_bus(m: &MachineSpec) -> (CountMrt<'_>, CopyManager) {
        (CountMrt::new(m, 2), CopyManager::new(m, 100))
    }

    #[test]
    fn bused_copy_created_once_and_shared() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        let p = NodeId(0);
        let home = ClusterId(0);
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, p, home, ClusterId(1))
                .unwrap(),
            1
        );
        assert_eq!(cpm.live_count(), 1);
        assert_eq!(cpm.rc(p), 1);
        // Second target: extend, no new copy.
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, p, home, ClusterId(2))
                .unwrap(),
            0
        );
        assert_eq!(cpm.live_count(), 1);
        let id = cpm.delivery(p, ClusterId(1)).unwrap();
        assert_eq!(cpm.record(id).unwrap().targets.len(), 2);
        // Same target twice: just a use.
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, p, home, ClusterId(1))
                .unwrap(),
            0
        );
    }

    #[test]
    fn release_frees_in_reverse() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        let p = NodeId(0);
        let home = ClusterId(0);
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(2))
            .unwrap();
        let free_bus_before = mrt.free_bus_slots();
        // Two uses at C1: first release keeps everything.
        cpm.release_value_use(&mut mrt, p, home, ClusterId(1));
        assert_eq!(cpm.live_count(), 1);
        assert_eq!(mrt.free_bus_slots(), free_bus_before);
        // Second release drops the C1 target but keeps the copy (C2 left).
        cpm.release_value_use(&mut mrt, p, home, ClusterId(1));
        assert_eq!(cpm.live_count(), 1);
        assert_eq!(cpm.delivery(p, ClusterId(1)), None);
        // Releasing C2 frees the copy and its bus slot.
        cpm.release_value_use(&mut mrt, p, home, ClusterId(2));
        assert_eq!(cpm.live_count(), 0);
        assert_eq!(mrt.free_bus_slots(), free_bus_before + 1);
        assert_eq!(cpm.rc(p), 0);
    }

    #[test]
    fn p2p_direct_hop() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 2);
        let mut cpm = CopyManager::new(&m, 100);
        let p = NodeId(0);
        let created = cpm
            .ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(1))
            .unwrap();
        assert_eq!(created, 1);
        let id = cpm.delivery(p, ClusterId(1)).unwrap();
        assert!(cpm.record(id).unwrap().link.is_some());
    }

    #[test]
    fn p2p_diagonal_builds_chain_and_shares_interior() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(&m, 100);
        let p = NodeId(0);
        // C0 -> C3 is two hops.
        let created = cpm
            .ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(created, 2);
        assert_eq!(cpm.live_count(), 2);
        // The interior hop (C1 or C2) now holds the value: a consumer
        // there reuses it.
        let interior = if cpm.delivery(p, ClusterId(1)).is_some() {
            ClusterId(1)
        } else {
            ClusterId(2)
        };
        let created2 = cpm
            .ensure_value_at(&mut mrt, p, ClusterId(0), interior)
            .unwrap();
        assert_eq!(created2, 0);
        // Releasing the diagonal consumer frees only the last hop.
        cpm.release_value_use(&mut mrt, p, ClusterId(0), ClusterId(3));
        assert_eq!(cpm.live_count(), 1);
        // Releasing the interior consumer frees the rest.
        cpm.release_value_use(&mut mrt, p, ClusterId(0), interior);
        assert_eq!(cpm.live_count(), 0);
    }

    #[test]
    fn chain_release_cascades() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(&m, 100);
        let p = NodeId(0);
        cpm.ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(cpm.live_count(), 2);
        // Single release cascades through the whole chain.
        cpm.release_value_use(&mut mrt, p, ClusterId(0), ClusterId(3));
        assert_eq!(cpm.live_count(), 0);
        // All link slots returned.
        for i in 0..4 {
            assert_eq!(mrt.free_link_slots(clasp_machine::LinkId(i)), 4);
        }
    }

    #[test]
    fn exhausted_bus_reports_full() {
        let m = presets::two_cluster_gp(1, 1);
        let mut mrt = CountMrt::new(&m, 1); // 1 bus slot total
        let mut cpm = CopyManager::new(&m, 100);
        cpm.ensure_value_at(&mut mrt, NodeId(0), ClusterId(0), ClusterId(1))
            .unwrap();
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, NodeId(1), ClusterId(0), ClusterId(1)),
            Err(Full)
        );
    }

    #[test]
    fn no_interconnect_is_full() {
        // Unified machines have one cluster; fabricate a two-cluster
        // machine with no fabric to check the guard.
        let m2 = clasp_machine::MachineSpec::new(
            "2c-nofabric",
            vec![
                clasp_machine::ClusterSpec::general(2),
                clasp_machine::ClusterSpec::general(2),
            ],
            clasp_machine::Interconnect::None,
        );
        let mut mrt2 = CountMrt::new(&m2, 4);
        let mut cpm = CopyManager::new(&m2, 10);
        assert_eq!(
            cpm.ensure_value_at(&mut mrt2, NodeId(0), ClusterId(0), ClusterId(1)),
            Err(Full)
        );
    }

    #[test]
    fn rc_counts_p2p_copies_individually() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(&m, 100);
        let p = NodeId(0);
        cpm.ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(2))
            .unwrap();
        assert_eq!(cpm.rc(p), 2);
    }

    type StateKey = (u32, Vec<(NodeId, CopyRecord)>, Vec<Delivery>, Vec<u32>);

    fn state_key(cpm: &CopyManager) -> StateKey {
        let copies: Vec<_> = cpm.iter().map(|(id, r)| (id, r.clone())).collect();
        (cpm.next_id, copies, cpm.deliveries.clone(), cpm.rc.clone())
    }

    #[test]
    fn rollback_undoes_bus_copy_lifecycle() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        let p = NodeId(0);
        let home = ClusterId(0);
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(1))
            .unwrap();
        cpm.commit();
        let before = state_key(&cpm);
        let counts = mrt_counts(&mrt);

        let mark = cpm.mark();
        // Exercise every journal arm: bump, extend, create, drop, cut, free.
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(1))
            .unwrap(); // bump
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(2))
            .unwrap(); // extend
        cpm.ensure_value_at(&mut mrt, NodeId(1), ClusterId(3), ClusterId(0))
            .unwrap(); // create
        cpm.release_value_use(&mut mrt, p, home, ClusterId(1)); // drop
        cpm.release_value_use(&mut mrt, p, home, ClusterId(2)); // cut
        cpm.release_value_use(&mut mrt, NodeId(1), ClusterId(3), ClusterId(0)); // free
        cpm.ensure_value_at(&mut mrt, p, home, ClusterId(3))
            .unwrap(); // extend, left live
        assert_ne!(mrt_counts(&mrt), counts);
        cpm.rollback_to(mark, &mut mrt);

        assert_eq!(state_key(&cpm), before);
        assert_eq!(mrt_counts(&mrt), counts);
    }

    #[test]
    fn rollback_undoes_p2p_chain_and_restores_ids() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(&m, 100);
        let p = NodeId(0);
        let before = state_key(&cpm);
        let counts = mrt_counts(&mrt);
        let mark = cpm.mark();
        cpm.ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(cpm.live_count(), 2);
        cpm.rollback_to(mark, &mut mrt);
        assert_eq!(state_key(&cpm), before);
        assert_eq!(mrt_counts(&mrt), counts);
        // Ids fully recycled: a replay allocates the same ones.
        cpm.ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(cpm.next_id, 102);
    }

    #[test]
    fn rollback_undoes_cascading_release() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(&m, 100);
        let p = NodeId(0);
        cpm.ensure_value_at(&mut mrt, p, ClusterId(0), ClusterId(3))
            .unwrap();
        cpm.commit();
        let before = state_key(&cpm);
        let counts = mrt_counts(&mrt);
        let mark = cpm.mark();
        cpm.release_value_use(&mut mrt, p, ClusterId(0), ClusterId(3));
        assert_eq!(cpm.live_count(), 0);
        cpm.rollback_to(mark, &mut mrt);
        assert_eq!(state_key(&cpm), before);
        assert_eq!(cpm.live_count(), 2);
        assert_eq!(mrt_counts(&mrt), counts);
    }

    #[test]
    fn reset_recycles_ids() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        cpm.ensure_value_at(&mut mrt, NodeId(0), ClusterId(0), ClusterId(1))
            .unwrap();
        cpm.reset();
        assert_eq!(cpm.live_count(), 0);
        assert_eq!(cpm.next_id, 100);
        assert_eq!(cpm.delivery(NodeId(0), ClusterId(1)), None);
    }

    #[test]
    fn iter_is_sorted_by_id() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        cpm.ensure_value_at(&mut mrt, NodeId(0), ClusterId(0), ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, NodeId(1), ClusterId(2), ClusterId(3))
            .unwrap();
        let ids: Vec<u32> = cpm.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![100, 101]);
    }
}
