//! Assignment results: materializing the annotated working graph and
//! independently validating it.

use crate::state::{edge_needs_copy, AssignState};
use clasp_ddg::{Ddg, DepEdge, NodeId, OpKind, Operation};
use clasp_machine::{ClusterId, MachineSpec};
use clasp_mrt::{ClusterMap, CopyMeta, CountMrt};
use std::collections::HashMap;
use std::fmt;

/// Counters describing how hard the assigner worked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Number of II values attempted (1 = first try succeeded).
    pub ii_attempts: u32,
    /// Nodes removed by the iterative machinery (§4.3).
    pub removals: u64,
    /// Forced placements after an empty feasible list.
    pub forced: u64,
    /// Live copy operations in the final assignment.
    pub copies: usize,
}

/// The output of the assignment phase: the working graph (original
/// operations plus inserted copies), its cluster annotation, and the II at
/// which assignment succeeded.
///
/// Feed `graph` and `map` to any traditional modulo scheduler — e.g.
/// `clasp_sched::iterative_schedule` — starting at `ii`.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The working graph: original nodes (same ids) followed by copy nodes.
    pub graph: Ddg,
    /// Cluster of every node; copy nodes carry [`CopyMeta`].
    pub map: ClusterMap,
    /// The II the assignment fits in (>= the unified machine's MII).
    pub ii: u32,
    /// Work counters.
    pub stats: AssignStats,
}

impl Assignment {
    /// Number of copy operations inserted.
    pub fn copy_count(&self) -> usize {
        self.map.copy_count()
    }

    /// Nodes assigned to cluster `c` (originals and copies).
    pub fn nodes_on(&self, c: ClusterId) -> Vec<NodeId> {
        self.map
            .iter()
            .filter(|&(_, cl)| cl == c)
            .map(|(n, _)| n)
            .collect()
    }
}

/// Build the final [`Assignment`] from a completed assignment state:
/// append copy nodes to a fresh clone of the original graph and rewire
/// every cluster-crossing value edge through its delivery chain.
pub(crate) fn materialize(
    g: &Ddg,
    st: &AssignState<'_>,
    ii: u32,
    stats: AssignStats,
) -> Assignment {
    materialize_into(g, st, ii, stats, Ddg::default(), ClusterMap::new())
}

/// [`materialize`] into caller-supplied `out`/`map` buffers — typically
/// the graph and map of a discarded assignment handed back through
/// `Assigner::recycle` — so the escalation loop's rebuild is a buffer
/// refill, not a reallocation. Both are cleared here; any capacity they
/// carry is reused.
pub(crate) fn materialize_into(
    g: &Ddg,
    st: &AssignState<'_>,
    ii: u32,
    stats: AssignStats,
    mut out: Ddg,
    mut map: ClusterMap,
) -> Assignment {
    out.reset(g.name());
    map.clear();
    for (_, op) in g.nodes() {
        out.add_op(op.clone());
    }
    // Copy nodes, ascending synthetic id for determinism.
    let mut new_id: HashMap<NodeId, NodeId> = HashMap::new();
    for (cid, rec) in st.cpm.iter() {
        let label = format!("cp:{}", g.op(rec.producer).label());
        let id = out.add_op(Operation::named(OpKind::Copy, label));
        new_id.insert(cid, id);
    }

    for (n, c) in st.map.iter() {
        map.assign(n, c);
    }
    for (cid, rec) in st.cpm.iter() {
        let id = new_id[&cid];
        map.assign(id, rec.src);
        map.set_copy_meta(
            id,
            CopyMeta {
                src: rec.src,
                targets: rec.targets.as_slice().to_vec(),
                link: rec.link,
            },
        );
    }

    // Feed edge into each copy: from the producer directly (first hop) or
    // from the upstream chain copy.
    for (cid, rec) in st.cpm.iter() {
        let home = st
            .map
            .cluster_of(rec.producer)
            .expect("producer of live copy is assigned");
        if rec.src == home {
            out.add_edge(DepEdge {
                src: rec.producer,
                dst: new_id[&cid],
                latency: g.op(rec.producer).kind.latency(),
                distance: 0,
            });
        } else {
            let upstream = st
                .cpm
                .delivery(rec.producer, rec.src)
                .expect("chain upstream exists");
            out.add_edge(DepEdge {
                src: new_id[&upstream],
                dst: new_id[&cid],
                latency: OpKind::Copy.latency(),
                distance: 0,
            });
        }
    }

    // Original edges: crossing value edges consume the delivery at the
    // consumer's cluster; everything else is kept verbatim. The delivery
    // edge's latency is topped up so the chain's end-to-end latency is
    // never below the original edge's: feed edges carry the producer's
    // *kind* latency, but the edge itself may carry more (per-consumer
    // latencies), and silently shortening a carried dependence would let
    // the working graph's RecMII drop below the loop's true bound.
    for (eid, e) in g.edges() {
        let src_c = st.map.cluster_of(e.src);
        let dst_c = st.map.cluster_of(e.dst);
        let crossing = src_c.is_some() && dst_c.is_some() && src_c != dst_c;
        if crossing && edge_needs_copy(g, eid) {
            let delivery = st
                .cpm
                .delivery(e.src, dst_c.expect("assigned"))
                .expect("crossing edge has a delivery");
            let chain_lat = chain_input_latency(g, st, e.src, delivery);
            out.add_edge(DepEdge {
                src: new_id[&delivery],
                dst: e.dst,
                latency: OpKind::Copy
                    .latency()
                    .max(e.latency.saturating_sub(chain_lat)),
                distance: e.distance,
            });
        } else {
            out.add_edge(*e);
        }
    }

    Assignment {
        graph: out,
        map,
        ii,
        stats,
    }
}

/// Latency accumulated from `producer`'s issue to the issue of `copy`
/// (a delivery of its value): the feed edge's latency plus one copy
/// latency per interior chain hop. Mirrors the feed edges built above.
fn chain_input_latency(g: &Ddg, st: &AssignState<'_>, producer: NodeId, copy: NodeId) -> u32 {
    let home = st
        .map
        .cluster_of(producer)
        .expect("producer of live copy is assigned");
    let mut lat = 0u32;
    let mut cur = copy;
    loop {
        let rec = st.cpm.record(cur).expect("live copy");
        if rec.src == home {
            return lat + g.op(producer).kind.latency();
        }
        lat += OpKind::Copy.latency();
        cur = st
            .cpm
            .delivery(producer, rec.src)
            .expect("chain upstream exists");
    }
}

/// Violations reported by [`validate_assignment`]. Every variant names
/// the offending operation (mnemonic + node id), so a violation inside a
/// thousand-case fuzz report reads without the graph at hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignmentError {
    /// An original node is missing from the cluster map.
    Unassigned {
        /// The unassigned node.
        node: NodeId,
        /// Its operation kind.
        op: OpKind,
    },
    /// A node sits on a cluster that cannot execute its operation kind.
    WrongClusterClass {
        /// The misplaced node.
        node: NodeId,
        /// Its operation kind.
        op: OpKind,
        /// The cluster it was assigned to.
        cluster: ClusterId,
    },
    /// An edge crosses clusters without a legal copy transport.
    IllegalCrossing {
        /// Edge source.
        src: NodeId,
        /// The source's operation kind.
        src_op: OpKind,
        /// Edge destination.
        dst: NodeId,
        /// The destination's operation kind.
        dst_op: OpKind,
    },
    /// The working graph's resources exceed machine capacity at the II.
    OverCapacity {
        /// The node that failed to reserve a slot.
        node: NodeId,
        /// Its operation kind.
        op: OpKind,
    },
    /// The working graph is structurally invalid.
    BadGraph(clasp_ddg::GraphError),
    /// A point-to-point copy does not ride a link between its clusters.
    BadLink {
        /// The offending copy node.
        node: NodeId,
        /// Its operation kind (always a copy).
        op: OpKind,
    },
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::Unassigned { node, op } => write!(f, "{op} {node} is unassigned"),
            AssignmentError::WrongClusterClass { node, op, cluster } => {
                write!(f, "{op} {node} sits on {cluster}, which cannot execute it")
            }
            AssignmentError::IllegalCrossing {
                src,
                src_op,
                dst,
                dst_op,
            } => {
                write!(
                    f,
                    "edge {src_op} {src} -> {dst_op} {dst} crosses clusters without a copy"
                )
            }
            AssignmentError::OverCapacity { node, op } => {
                write!(
                    f,
                    "{op} {node} exceeds machine capacity at the assignment II"
                )
            }
            AssignmentError::BadGraph(e) => write!(f, "working graph invalid: {e}"),
            AssignmentError::BadLink { node, op } => {
                write!(f, "{op} {node} uses a link that does not join its clusters")
            }
        }
    }
}

impl std::error::Error for AssignmentError {}

/// Independently check an [`Assignment`] against the original graph and
/// machine:
///
/// - every original node is assigned to a cluster that can execute it;
/// - the working graph is valid (no zero-distance cycles) and contains the
///   original nodes unchanged;
/// - every cluster-crossing edge of the working graph is legal: its source
///   is a copy whose targets include the destination's cluster (value
///   transport), or it carries no register value (pure precedence);
/// - point-to-point copies ride an existing link between their clusters;
/// - total resource use (FU slots, ports, buses, links) fits the machine
///   at `assignment.ii`.
///
/// # Errors
///
/// The first violation found.
pub fn validate_assignment(
    original: &Ddg,
    machine: &MachineSpec,
    assignment: &Assignment,
) -> Result<(), AssignmentError> {
    let g = &assignment.graph;
    let map = &assignment.map;
    g.validate().map_err(AssignmentError::BadGraph)?;

    // Original nodes present and assigned.
    for (n, op) in original.nodes() {
        assert_eq!(
            g.op(n).kind,
            op.kind,
            "materialized graph must preserve original nodes"
        );
        let Some(c) = map.cluster_of(n) else {
            return Err(AssignmentError::Unassigned {
                node: n,
                op: op.kind,
            });
        };
        if !machine.cluster(c).can_execute(op.kind) {
            return Err(AssignmentError::WrongClusterClass {
                node: n,
                op: op.kind,
                cluster: c,
            });
        }
    }
    // Copies assigned and well-formed.
    for (n, op) in g.nodes() {
        if !op.kind.is_copy() {
            continue;
        }
        let Some(c) = map.cluster_of(n) else {
            return Err(AssignmentError::Unassigned {
                node: n,
                op: op.kind,
            });
        };
        let Some(meta) = map.copy_meta(n) else {
            return Err(AssignmentError::Unassigned {
                node: n,
                op: op.kind,
            });
        };
        let repeats = |i: usize| meta.targets[..i].contains(&meta.targets[i]);
        if meta.src != c
            || meta.targets.is_empty()
            || meta.targets.contains(&c)
            || (1..meta.targets.len()).any(repeats)
        {
            return Err(AssignmentError::IllegalCrossing {
                src: n,
                src_op: op.kind,
                dst: n,
                dst_op: op.kind,
            });
        }
        match meta.link {
            Some(l) => {
                let links = machine.interconnect().links();
                let ok = links
                    .get(l.index())
                    .is_some_and(|lk| lk.touches(c) && meta.targets.iter().all(|t| lk.touches(*t)));
                if !ok {
                    return Err(AssignmentError::BadLink {
                        node: n,
                        op: op.kind,
                    });
                }
            }
            None => {
                if machine.interconnect().bus_count() == 0 && !meta.targets.is_empty() {
                    return Err(AssignmentError::BadLink {
                        node: n,
                        op: op.kind,
                    });
                }
            }
        }
    }
    // Crossing edges are legal.
    for (eid, e) in g.edges() {
        let (Some(cs), Some(cd)) = (map.cluster_of(e.src), map.cluster_of(e.dst)) else {
            return Err(AssignmentError::Unassigned {
                node: e.src,
                op: g.op(e.src).kind,
            });
        };
        if cs == cd {
            continue;
        }
        if !g.op(e.src).kind.produces_value() {
            continue; // pure precedence may cross freely
        }
        let legal = match map.copy_meta(e.src) {
            Some(meta) => meta.targets.contains(&cd),
            None => false,
        };
        if !legal {
            return Err(AssignmentError::IllegalCrossing {
                src: e.src,
                src_op: g.op(e.src).kind,
                dst: e.dst,
                dst_op: g.op(e.dst).kind,
            });
        }
        let _ = eid;
    }
    // Capacity replay.
    let mut mrt = CountMrt::new(machine, assignment.ii);
    for (n, op) in g.nodes() {
        let c = map.cluster_of(n).expect("checked above");
        let fits = if op.kind.is_copy() {
            let meta = map.copy_meta(n).expect("checked above");
            mrt.reserve_copy(meta.src, &meta.targets, meta.link)
        } else {
            mrt.reserve_op(c, op.kind)
        };
        if fits.is_err() {
            return Err(AssignmentError::OverCapacity {
                node: n,
                op: op.kind,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::assign;
    use crate::config::AssignConfig;
    use clasp_machine::presets;

    #[test]
    fn materialized_graph_preserves_original_ids() {
        let mut g = Ddg::new("pair");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpAdd);
        g.add_dep(a, b);
        let m = presets::two_cluster_gp(2, 1);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        assert_eq!(asg.graph.op(a).kind, OpKind::Load);
        assert_eq!(asg.graph.op(b).kind, OpKind::FpAdd);
        validate_assignment(&g, &m, &asg).unwrap();
    }

    #[test]
    fn crossing_edge_routes_through_copy() {
        // Force a crossing by saturating one cluster.
        let mut g = Ddg::new("fan");
        let p = g.add(OpKind::Load);
        let mut sinks = Vec::new();
        for _ in 0..8 {
            let x = g.add(OpKind::IntAlu);
            g.add_dep(p, x);
            sinks.push(x);
        }
        let m = presets::two_cluster_gp(2, 1);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        validate_assignment(&g, &m, &asg).unwrap();
        // 9 ops on 2x4 machine at II=2: both clusters used, so at least
        // one consumer crosses -> at least one copy.
        if asg.copy_count() > 0 {
            // Copy edges: p -> copy with load latency; copy -> sink lat 1.
            let copy_node = asg
                .graph
                .nodes()
                .find(|(_, op)| op.kind.is_copy())
                .map(|(n, _)| n)
                .unwrap();
            let feed = asg
                .graph
                .pred_edges(copy_node)
                .next()
                .expect("copy has a feed edge");
            assert_eq!(feed.1.src, p);
            assert_eq!(feed.1.latency, OpKind::Load.latency());
        }
    }

    #[test]
    fn validator_rejects_missing_assignment() {
        let mut g = Ddg::new("one");
        let a = g.add(OpKind::IntAlu);
        let m = presets::two_cluster_gp(2, 1);
        let asg = Assignment {
            graph: g.clone(),
            map: ClusterMap::new(),
            ii: 1,
            stats: AssignStats::default(),
        };
        assert_eq!(
            validate_assignment(&g, &m, &asg),
            Err(AssignmentError::Unassigned {
                node: a,
                op: OpKind::IntAlu
            })
        );
    }

    #[test]
    fn validator_rejects_illegal_crossing() {
        let mut g = Ddg::new("pair");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        let m = presets::two_cluster_gp(2, 1);
        let mut map = ClusterMap::new();
        map.assign(a, ClusterId(0));
        map.assign(b, ClusterId(1)); // crossing with no copy
        let asg = Assignment {
            graph: g.clone(),
            map,
            ii: 2,
            stats: AssignStats::default(),
        };
        assert!(matches!(
            validate_assignment(&g, &m, &asg),
            Err(AssignmentError::IllegalCrossing { .. })
        ));
    }

    #[test]
    fn validator_rejects_a_copy_naming_one_target_twice() {
        // a on C0 feeds b on C1 through copy k, whose (tampered) metadata
        // names C1 twice: a typed error, not a panic in the capacity replay.
        let mut g = Ddg::new("pair");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        let mut wg = Ddg::new("pair");
        wg.add(OpKind::IntAlu);
        wg.add(OpKind::IntAlu);
        let k = wg.add(OpKind::Copy);
        wg.add_dep(a, k);
        wg.add_dep(k, b);
        let m = presets::two_cluster_gp(2, 1);
        let mut map = ClusterMap::new();
        map.assign(a, ClusterId(0));
        map.assign(b, ClusterId(1));
        map.assign(k, ClusterId(0));
        map.set_copy_meta(
            k,
            CopyMeta {
                src: ClusterId(0),
                targets: vec![ClusterId(1), ClusterId(1)],
                link: None,
            },
        );
        let asg = Assignment {
            graph: wg,
            map,
            ii: 2,
            stats: AssignStats::default(),
        };
        assert_eq!(
            validate_assignment(&g, &m, &asg),
            Err(AssignmentError::IllegalCrossing {
                src: k,
                src_op: OpKind::Copy,
                dst: k,
                dst_op: OpKind::Copy,
            })
        );
    }

    #[test]
    fn validator_rejects_over_capacity() {
        let mut g = Ddg::new("five");
        let ids: Vec<_> = (0..5).map(|_| g.add(OpKind::IntAlu)).collect();
        let m = presets::two_cluster_gp(2, 1);
        let mut map = ClusterMap::new();
        for &n in &ids {
            map.assign(n, ClusterId(0)); // 5 ops, capacity 4 at II=1
        }
        let asg = Assignment {
            graph: g.clone(),
            map,
            ii: 1,
            stats: AssignStats::default(),
        };
        assert!(matches!(
            validate_assignment(&g, &m, &asg),
            Err(AssignmentError::OverCapacity { .. })
        ));
    }
}
