//! The data-dependence graph (DDG) of a loop body.
//!
//! Nodes are operations; edges are data-flow dependences annotated with a
//! latency (defaulting to the producer's result latency) and a *dependence
//! distance*: the number of loop iterations the dependence spans (0 for an
//! intra-iteration dependence, >= 1 for a loop-carried recurrence edge).

use crate::op::OpKind;
use std::fmt;

/// Identifier of a node (operation) in a [`Ddg`].
///
/// Node ids are dense indices assigned in insertion order, so they can be
/// used directly to index side tables of length [`Ddg::node_count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge (dependence) in a [`Ddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An operation node in the dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// What the operation does (and hence its latency and FU class).
    pub kind: OpKind,
    /// An optional human-readable name used in dumps (`"A"`, `"x[i]"`, ...).
    pub name: Option<String>,
}

impl Operation {
    /// Create an unnamed operation of the given kind.
    pub fn new(kind: OpKind) -> Self {
        Operation { kind, name: None }
    }

    /// Create a named operation.
    pub fn named(kind: OpKind, name: impl Into<String>) -> Self {
        Operation {
            kind,
            name: Some(name.into()),
        }
    }

    /// The display label: the name if present, else the mnemonic.
    pub fn label(&self) -> &str {
        self.name.as_deref().unwrap_or_else(|| self.kind.mnemonic())
    }
}

/// A data dependence `src -> dst`.
///
/// Scheduling constraint: `t(dst) >= t(src) + latency - distance * II`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer operation.
    pub src: NodeId,
    /// Consumer operation.
    pub dst: NodeId,
    /// Dependence latency in cycles. For a data edge this is the result
    /// latency of `src`; anti/output dependences may use smaller values.
    pub latency: u32,
    /// Loop-iteration distance: 0 = same iteration, k >= 1 means `dst` of
    /// iteration `i + k` consumes the value `src` produces in iteration `i`.
    pub distance: u32,
}

/// A loop-body data-dependence graph.
///
/// # Examples
///
/// Build the introductory example of the paper (Figure 6): six unit-latency
/// operations (C has latency 2 via `FpMult`-style override) with a
/// loop-carried edge `D -> B`:
///
/// ```
/// use clasp_ddg::{Ddg, OpKind};
///
/// let mut g = Ddg::new("intro");
/// let a = g.add_named(OpKind::IntAlu, "A");
/// let b = g.add_named(OpKind::IntAlu, "B");
/// let c = g.add_named(OpKind::Load, "C"); // latency 2
/// let d = g.add_named(OpKind::IntAlu, "D");
/// let e = g.add_named(OpKind::IntAlu, "E");
/// let f = g.add_named(OpKind::IntAlu, "F");
/// g.add_dep(a, b);
/// g.add_dep(b, c);
/// g.add_dep(c, d);
/// g.add_dep(d, e);
/// g.add_dep(e, f);
/// g.add_dep_carried(d, b, 1); // recurrence with distance 1
/// assert_eq!(g.node_count(), 6);
/// assert_eq!(g.edge_count(), 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ddg {
    name: String,
    nodes: Vec<Operation>,
    edges: Vec<DepEdge>,
    /// Outgoing edge ids per node, rebuilt incrementally.
    succ: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    pred: Vec<Vec<EdgeId>>,
}

impl Ddg {
    /// Create an empty graph with a display name (e.g. the loop's origin).
    pub fn new(name: impl Into<String>) -> Self {
        Ddg {
            name: name.into(),
            ..Ddg::default()
        }
    }

    /// The graph's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependences.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add an unnamed operation, returning its id.
    pub fn add(&mut self, kind: OpKind) -> NodeId {
        self.add_op(Operation::new(kind))
    }

    /// Add a named operation, returning its id.
    pub fn add_named(&mut self, kind: OpKind, name: impl Into<String>) -> NodeId {
        self.add_op(Operation::named(kind, name))
    }

    /// Add a pre-built operation, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX` nodes.
    pub fn add_op(&mut self, op: Operation) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count overflow"));
        self.nodes.push(op);
        // After `reset` the adjacency vectors keep cleared slots around;
        // only grow them once the recycled capacity is used up.
        if self.succ.len() < self.nodes.len() {
            self.succ.push(Vec::new());
            self.pred.push(Vec::new());
        }
        id
    }

    /// Empty the graph and rename it, retaining every buffer — including
    /// each node's adjacency vector — so a recycled graph is refilled
    /// without touching the allocator. Trailing adjacency slots beyond the
    /// refilled node count are harmless: all indexing is bounded by live
    /// node ids.
    pub fn reset(&mut self, name: impl Into<String>) {
        self.name = name.into();
        self.nodes.clear();
        self.edges.clear();
        for v in &mut self.succ {
            v.clear();
        }
        for v in &mut self.pred {
            v.clear();
        }
    }

    /// Add an intra-iteration data dependence with the producer's result
    /// latency.
    pub fn add_dep(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        let lat = self.op(src).kind.latency();
        self.add_edge(DepEdge {
            src,
            dst,
            latency: lat,
            distance: 0,
        })
    }

    /// Add a loop-carried data dependence of the given distance with the
    /// producer's result latency.
    pub fn add_dep_carried(&mut self, src: NodeId, dst: NodeId, distance: u32) -> EdgeId {
        let lat = self.op(src).kind.latency();
        self.add_edge(DepEdge {
            src,
            dst,
            latency: lat,
            distance,
        })
    }

    /// Add an arbitrary dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, e: DepEdge) -> EdgeId {
        assert!(e.src.index() < self.nodes.len(), "src out of bounds");
        assert!(e.dst.index() < self.nodes.len(), "dst out of bounds");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count overflow"));
        self.succ[e.src.index()].push(id);
        self.pred[e.dst.index()].push(id);
        self.edges.push(e);
        id
    }

    /// The operation for a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn op(&self, id: NodeId) -> &Operation {
        &self.nodes[id.index()]
    }

    /// The edge for an edge id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &DepEdge {
        &self.edges[id.index()]
    }

    /// Iterate over `(NodeId, &Operation)` in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Operation)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, op)| (NodeId(i as u32), op))
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over `(EdgeId, &DepEdge)` in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Outgoing edges of `n`.
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.succ[n.index()].iter().map(|&id| (id, self.edge(id)))
    }

    /// Incoming edges of `n`.
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.pred[n.index()].iter().map(|&id| (id, self.edge(id)))
    }

    /// Successor node ids of `n` (with multiplicity, in edge order).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succ_edges(n).map(|(_, e)| e.dst)
    }

    /// Predecessor node ids of `n` (with multiplicity, in edge order).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred_edges(n).map(|(_, e)| e.src)
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.succ[n.index()].len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.pred[n.index()].len()
    }

    /// Render the graph in Graphviz DOT format (loop-carried edges dashed,
    /// labelled with `latency[,distance]`).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        for (id, op) in self.nodes() {
            let _ = writeln!(
                s,
                "  {} [label=\"{} ({})\"];",
                id,
                op.label(),
                op.kind.mnemonic()
            );
        }
        for (_, e) in self.edges() {
            if e.distance == 0 {
                let _ = writeln!(s, "  {} -> {} [label=\"{}\"];", e.src, e.dst, e.latency);
            } else {
                let _ = writeln!(
                    s,
                    "  {} -> {} [label=\"{},d{}\" style=dashed];",
                    e.src, e.dst, e.latency, e.distance
                );
            }
        }
        s.push_str("}\n");
        s
    }

    /// Structural validation: every edge endpoint in bounds, adjacency
    /// lists consistent with the edge table, and intra-iteration edges
    /// acyclic (any cycle must carry distance >= 1, otherwise the loop
    /// body is not executable).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] describing the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (id, e) in self.edges() {
            if e.src.index() >= self.node_count() || e.dst.index() >= self.node_count() {
                return Err(GraphError::DanglingEdge(id));
            }
        }
        // Kahn's algorithm over distance-0 edges only.
        let n = self.node_count();
        let mut indeg = vec![0usize; n];
        for (_, e) in self.edges() {
            if e.distance == 0 {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = stack.pop() {
            seen += 1;
            for (_, e) in self.succ_edges(NodeId(i as u32)) {
                if e.distance == 0 {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        stack.push(e.dst.index());
                    }
                }
            }
        }
        if seen != n {
            return Err(GraphError::IntraIterationCycle);
        }
        Ok(())
    }
}

/// Errors produced by [`Ddg::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node id that does not exist.
    DanglingEdge(EdgeId),
    /// A dependence cycle with total distance 0 exists; such a loop body
    /// cannot execute.
    IntraIterationCycle,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingEdge(e) => write!(f, "edge {e} references a missing node"),
            GraphError::IntraIterationCycle => {
                write!(f, "dependence cycle with zero total distance")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Ddg, [NodeId; 4]) {
        let mut g = Ddg::new("diamond");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::IntAlu);
        let c = g.add(OpKind::FpAdd);
        let d = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(a, c);
        g.add_dep(b, d);
        g.add_dep(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn default_latency_is_producer_latency() {
        let (g, [a, ..]) = diamond();
        for (_, e) in g.succ_edges(a) {
            assert_eq!(e.latency, OpKind::Load.latency());
        }
    }

    #[test]
    fn carried_edges_have_distance() {
        let mut g = Ddg::new("rec");
        let x = g.add(OpKind::FpAdd);
        let e = g.add_dep_carried(x, x, 1);
        assert_eq!(g.edge(e).distance, 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn intra_iteration_cycle_is_invalid() {
        let mut g = Ddg::new("bad");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep(b, a);
        assert_eq!(g.validate(), Err(GraphError::IntraIterationCycle));
    }

    #[test]
    fn named_nodes_label() {
        let mut g = Ddg::new("n");
        let a = g.add_named(OpKind::Load, "x[i]");
        let b = g.add(OpKind::Store);
        assert_eq!(g.op(a).label(), "x[i]");
        assert_eq!(g.op(b).label(), "st");
    }

    #[test]
    fn dot_output_mentions_nodes_and_dashed_carried_edges() {
        let mut g = Ddg::new("dot");
        let a = g.add_named(OpKind::Load, "A");
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 2);
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("A (ld)"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("d2"));
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(7).to_string(), "e7");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_to_missing_node_panics() {
        let mut g = Ddg::new("x");
        let a = g.add(OpKind::IntAlu);
        g.add_edge(DepEdge {
            src: a,
            dst: NodeId(99),
            latency: 1,
            distance: 0,
        });
    }

    #[test]
    fn self_loop_with_distance_zero_detected() {
        let mut g = Ddg::new("self");
        let a = g.add(OpKind::IntAlu);
        g.add_edge(DepEdge {
            src: a,
            dst: a,
            latency: 1,
            distance: 0,
        });
        assert_eq!(g.validate(), Err(GraphError::IntraIterationCycle));
    }
}
