//! Modulo-schedule result type and validation.

use clasp_ddg::{Ddg, NodeId, OpKind};
use clasp_machine::{ClusterId, MachineSpec};
use clasp_mrt::{ClusterMap, PlaceOutcome, SlotRequest, TimeMrt};

/// A complete modulo schedule: an issue cycle for every node of the
/// working graph at a fixed initiation interval.
///
/// Cycle `t` maps to kernel row `t mod II` and stage `t / II`.
///
/// Dense storage: one optional cycle per node id, up to the largest id
/// scheduled, so a lookup is an index and two schedules are equal exactly
/// when they have the same II and the same `(node, cycle)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    ii: u32,
    time: Vec<Option<i64>>,
    len: usize,
}

impl Schedule {
    /// Build a schedule from `(node, cycle)` pairs (used by schedulers;
    /// prefer reading schedules produced by [`crate::iterative_schedule`]).
    /// Any pair iterator passes, a `HashMap<NodeId, i64>` included; when
    /// a node repeats, its last cycle wins.
    ///
    /// The table is sized by the largest node id given, so the caller
    /// bounds the ids: every producer in this workspace passes ids of one
    /// graph, and the artifact codec checks each id against its graph's
    /// node count before it builds a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is 0.
    pub fn new(ii: u32, time: impl IntoIterator<Item = (NodeId, i64)>) -> Self {
        assert!(ii > 0, "II must be positive");
        let time = time.into_iter();
        let mut table = Vec::with_capacity(time.size_hint().0);
        let mut len = 0;
        for (n, t) in time {
            let i = n.index();
            if i >= table.len() {
                table.resize(i + 1, None);
            }
            if table[i].replace(t).is_none() {
                len += 1;
            }
        }
        Schedule {
            ii,
            time: table,
            len,
        }
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Issue cycle of `n`, if scheduled.
    pub fn start(&self, n: NodeId) -> Option<i64> {
        self.time.get(n.index()).copied().flatten()
    }

    /// Kernel row (`start mod II`) of `n`.
    pub fn kernel_row(&self, n: NodeId) -> Option<u32> {
        self.start(n)
            .map(|t| (t.rem_euclid(i64::from(self.ii))) as u32)
    }

    /// Pipeline stage (`start div II`) of `n`.
    pub fn stage(&self, n: NodeId) -> Option<i64> {
        self.start(n).map(|t| t.div_euclid(i64::from(self.ii)))
    }

    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pipeline stages (max stage - min stage + 1); 0 if empty.
    pub fn stage_count(&self) -> i64 {
        let stage = |(_, t): (NodeId, i64)| t.div_euclid(i64::from(self.ii));
        match (self.iter().map(stage).min(), self.iter().map(stage).max()) {
            (Some(lo), Some(hi)) => hi - lo + 1,
            _ => 0,
        }
    }

    /// Iterate over `(node, cycle)` pairs in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, i64)> + '_ {
        self.time
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (NodeId(i as u32), t)))
    }
}

/// Errors found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A node has no scheduled cycle.
    Unscheduled {
        /// The unscheduled node.
        node: NodeId,
        /// Its operation kind.
        op: OpKind,
    },
    /// A dependence `src -> dst` is violated:
    /// `t(dst) < t(src) + latency - distance * II`.
    DependenceViolated {
        /// Producer.
        src: NodeId,
        /// The producer's operation kind.
        src_op: OpKind,
        /// Cycle the producer issues in.
        src_cycle: i64,
        /// Consumer.
        dst: NodeId,
        /// The consumer's operation kind.
        dst_op: OpKind,
        /// Cycle the consumer issues in.
        dst_cycle: i64,
        /// Slack (negative by how many cycles).
        slack: i64,
    },
    /// Two or more nodes overuse a resource in some kernel row.
    ResourceOveruse {
        /// The node that failed to place.
        node: NodeId,
        /// Its operation kind.
        op: OpKind,
        /// The kernel row (cycle mod II) it could not fit in.
        row: u32,
    },
    /// A node is assigned to no cluster in the map.
    MissingAssignment(NodeId),
    /// A copy node is missing its transport metadata.
    MissingCopyMeta(NodeId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Unscheduled { node, op } => {
                write!(f, "{op} {node} has no scheduled cycle")
            }
            ScheduleError::DependenceViolated {
                src,
                src_op,
                src_cycle,
                dst,
                dst_op,
                dst_cycle,
                slack,
            } => {
                write!(
                    f,
                    "dependence {src_op} {src} (cycle {src_cycle}) -> {dst_op} {dst} \
                     (cycle {dst_cycle}) violated by {} cycles",
                    -slack
                )
            }
            ScheduleError::ResourceOveruse { node, op, row } => {
                write!(f, "{op} {node} overuses a resource in kernel row {row}")
            }
            ScheduleError::MissingAssignment(n) => write!(f, "{n} has no cluster"),
            ScheduleError::MissingCopyMeta(n) => write!(f, "copy {n} has no metadata"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The resource request a node makes, derived from its kind and cluster
/// annotation; a copy's request borrows its metadata from `map`.
pub fn slot_request<'m>(
    g: &Ddg,
    map: &'m ClusterMap,
    n: NodeId,
) -> Result<SlotRequest<'m>, ScheduleError> {
    let kind = g.op(n).kind;
    if kind.is_copy() {
        let meta = map.copy_meta(n).ok_or(ScheduleError::MissingCopyMeta(n))?;
        Ok(SlotRequest::Copy(meta))
    } else {
        let cluster = map
            .cluster_of(n)
            .ok_or(ScheduleError::MissingAssignment(n))?;
        Ok(SlotRequest::Fu { cluster, kind })
    }
}

/// Check that `sched` is a valid modulo schedule of `g` on `machine` under
/// the cluster annotation `map`: every node scheduled, every dependence
/// satisfied at this II, and all kernel-row resource use within capacity.
///
/// # Errors
///
/// The first violation found, as a [`ScheduleError`].
pub fn validate_schedule(
    g: &Ddg,
    machine: &MachineSpec,
    map: &ClusterMap,
    sched: &Schedule,
) -> Result<(), ScheduleError> {
    let ii = i64::from(sched.ii());
    for n in g.node_ids() {
        if sched.start(n).is_none() {
            return Err(ScheduleError::Unscheduled {
                node: n,
                op: g.op(n).kind,
            });
        }
    }
    for (_, e) in g.edges() {
        let ts = sched.start(e.src).expect("checked above");
        let td = sched.start(e.dst).expect("checked above");
        let slack = td - (ts + i64::from(e.latency) - i64::from(e.distance) * ii);
        if slack < 0 {
            return Err(ScheduleError::DependenceViolated {
                src: e.src,
                src_op: g.op(e.src).kind,
                src_cycle: ts,
                dst: e.dst,
                dst_op: g.op(e.dst).kind,
                dst_cycle: td,
                slack,
            });
        }
    }
    // Replay all placements into a fresh MRT.
    let mut mrt = TimeMrt::new(machine, sched.ii());
    for n in g.node_ids() {
        let req = slot_request(g, map, n)?;
        let row = sched.kernel_row(n).expect("checked above");
        if mrt.try_place(n, row, &req) != PlaceOutcome::Placed {
            return Err(ScheduleError::ResourceOveruse {
                node: n,
                op: g.op(n).kind,
                row,
            });
        }
    }
    Ok(())
}

/// Build the trivial cluster map for a unified (single-cluster) machine:
/// every node on cluster 0, no copies.
///
/// # Panics
///
/// Panics if `g` contains copy nodes (a unified loop has none) or
/// `machine` is not unified.
pub fn unified_map(g: &Ddg, machine: &MachineSpec) -> ClusterMap {
    assert!(machine.is_unified(), "machine must be unified");
    let mut map = ClusterMap::new();
    for (n, op) in g.nodes() {
        assert!(
            !matches!(op.kind, OpKind::Copy),
            "unified loops contain no copies"
        );
        map.assign(n, ClusterId(0));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_machine::presets;
    use std::collections::HashMap;

    fn tiny() -> (Ddg, NodeId, NodeId) {
        let mut g = Ddg::new("tiny");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpAdd);
        g.add_dep(a, b);
        (g, a, b)
    }

    #[test]
    fn schedule_accessors() {
        let mut t = HashMap::new();
        t.insert(NodeId(0), 0i64);
        t.insert(NodeId(1), 5i64);
        let s = Schedule::new(2, t);
        assert_eq!(s.ii(), 2);
        assert_eq!(s.kernel_row(NodeId(1)), Some(1));
        assert_eq!(s.stage(NodeId(1)), Some(2));
        assert_eq!(s.stage_count(), 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn equal_pairs_make_equal_schedules_in_node_order() {
        let pairs = [(NodeId(3), 7i64), (NodeId(0), -2), (NodeId(1), 4)];
        let from_map = Schedule::new(2, pairs.into_iter().collect::<HashMap<_, _>>());
        let from_pairs = Schedule::new(2, pairs.into_iter().rev());
        assert_eq!(from_map, from_pairs);
        assert_eq!(from_map.len(), 3);
        assert_eq!(from_map.start(NodeId(2)), None);
        assert_eq!(from_map.start(NodeId(9)), None);
        let order: Vec<_> = from_map.iter().collect();
        assert_eq!(order, vec![(NodeId(0), -2), (NodeId(1), 4), (NodeId(3), 7)]);
        assert_ne!(from_map, Schedule::new(3, pairs));
        assert_ne!(from_map, Schedule::new(2, pairs.into_iter().take(2)));
    }

    #[test]
    fn validate_good_schedule() {
        let (g, a, b) = tiny();
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, 2i64);
        let s = Schedule::new(1, t);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn validate_catches_dependence_violation() {
        let (g, a, b) = tiny();
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, 1i64); // load latency is 2
        let s = Schedule::new(1, t);
        assert!(matches!(
            validate_schedule(&g, &m, &map, &s),
            Err(ScheduleError::DependenceViolated { .. })
        ));
    }

    #[test]
    fn validate_catches_resource_overuse() {
        let (g, a, b) = tiny();
        let m = presets::unified_gp(1); // one unit
        let map = unified_map(&g, &m);
        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, 2i64); // row 0 at II=2... use II=2: rows 0 and 0
        let s = Schedule::new(2, t);
        assert!(matches!(
            validate_schedule(&g, &m, &map, &s),
            Err(ScheduleError::ResourceOveruse { .. })
        ));
    }

    #[test]
    fn validate_catches_unscheduled() {
        let (g, a, _) = tiny();
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let mut t = HashMap::new();
        t.insert(a, 0i64);
        let s = Schedule::new(1, t);
        assert!(matches!(
            validate_schedule(&g, &m, &map, &s),
            Err(ScheduleError::Unscheduled { .. })
        ));
    }

    #[test]
    fn loop_carried_dependences_relax_with_ii() {
        // b -> a carried distance 1: t(a) >= t(b) + 1 - II.
        let mut g = Ddg::new("rec");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1);
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, 1i64);
        let ok = Schedule::new(2, t.clone());
        assert_eq!(validate_schedule(&g, &m, &map, &ok), Ok(()));
        let bad = Schedule::new(1, t); // t(a)=0 < 1 + 1 - 1 = 1
        assert!(matches!(
            validate_schedule(&g, &m, &map, &bad),
            Err(ScheduleError::DependenceViolated { .. })
        ));
    }

    #[test]
    fn negative_cycles_use_euclidean_rows() {
        let mut t = HashMap::new();
        t.insert(NodeId(0), -3i64);
        let s = Schedule::new(2, t);
        assert_eq!(s.kernel_row(NodeId(0)), Some(1));
        assert_eq!(s.stage(NodeId(0)), Some(-2));
    }

    #[test]
    fn distance_zero_carried_edge_slack_boundary() {
        // An explicitly carried edge at distance 0 is an ordinary
        // intra-iteration constraint: the II term vanishes, so the exact
        // latency boundary must be the accept/reject line at any II.
        let mut g = Ddg::new("d0");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::IntAlu);
        g.add_dep_carried(a, b, 0);
        let m = presets::unified_gp(4);
        let map = unified_map(&g, &m);
        let lat = i64::from(OpKind::Load.latency());

        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, lat); // exactly on time
        assert_eq!(
            validate_schedule(&g, &m, &map, &Schedule::new(7, t)),
            Ok(())
        );

        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, lat - 1); // one cycle early
        match validate_schedule(&g, &m, &map, &Schedule::new(7, t)) {
            Err(ScheduleError::DependenceViolated {
                src_op,
                src_cycle,
                dst_op,
                dst_cycle,
                slack,
                ..
            }) => {
                assert_eq!(src_op, OpKind::Load);
                assert_eq!(dst_op, OpKind::IntAlu);
                assert_eq!(src_cycle, 0);
                assert_eq!(dst_cycle, lat - 1);
                assert_eq!(slack, -1);
            }
            other => panic!("expected a dependence violation, got {other:?}"),
        }
    }

    #[test]
    fn single_cluster_zero_bus_machine_validates() {
        // A unified machine whose interconnect is a zero-width bus: legal
        // (nothing ever crosses clusters), and validation must not charge
        // bus bandwidth for ordinary operations.
        let m = MachineSpec::new(
            "solo-nobus",
            vec![clasp_machine::ClusterSpec::general(2)],
            clasp_machine::Interconnect::Bus {
                buses: 0,
                read_ports: 1,
                write_ports: 1,
            },
        );
        let (g, a, b) = tiny();
        let map = unified_map(&g, &m);
        let mut t = HashMap::new();
        t.insert(a, 0i64);
        t.insert(b, 2i64);
        assert_eq!(
            validate_schedule(&g, &m, &map, &Schedule::new(1, t)),
            Ok(())
        );
    }
}
