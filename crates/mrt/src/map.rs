//! The cluster-annotation layer shared by the assigner and the scheduler.
//!
//! The assignment phase outputs a working graph (the original operations
//! plus inserted copy nodes) together with a [`ClusterMap`] that records
//! which cluster every node lives on and, for copy nodes, their transport
//! metadata ([`CopyMeta`]). The modulo scheduler consumes both without any
//! knowledge of how the assignment was made.

use clasp_ddg::NodeId;
use clasp_machine::{ClusterId, LinkId};

/// Transport metadata for one copy node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyMeta {
    /// Cluster the value is read from (one read port).
    pub src: ClusterId,
    /// Clusters the value is written to (one write port each). On bused
    /// machines a broadcast copy may have several targets; on
    /// point-to-point machines exactly one.
    pub targets: Vec<ClusterId>,
    /// The dedicated link used, for point-to-point machines.
    pub link: Option<LinkId>,
}

/// The destination clusters of one live copy during assignment.
///
/// A copy starts with its single target held inline, so reserving one
/// never allocates; point-to-point copies always have exactly one. A
/// broadcast copy that gains a second target becomes a list, which keeps
/// insertion order ([`CopyMeta::targets`] and everything encoded from it
/// depend on that order) and keeps its capacity when it shrinks again.
#[derive(Debug, Clone, Eq)]
pub enum CopyTargets {
    /// Exactly one target, inline.
    One(ClusterId),
    /// A broadcast copy's targets in insertion order.
    Many(Vec<ClusterId>),
}

impl CopyTargets {
    /// The targets in insertion order.
    pub fn as_slice(&self) -> &[ClusterId] {
        match self {
            CopyTargets::One(t) => std::slice::from_ref(t),
            CopyTargets::Many(ts) => ts,
        }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether there are no targets (never true of a reserved copy).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Append `t`, turning a single inline target into a list.
    pub fn push(&mut self, t: ClusterId) {
        match self {
            CopyTargets::One(first) => *self = CopyTargets::Many(vec![*first, t]),
            CopyTargets::Many(ts) => ts.push(t),
        }
    }

    /// Remove and return the target at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range or this is the last target.
    pub fn remove(&mut self, pos: usize) -> ClusterId {
        match self {
            CopyTargets::One(_) => panic!("cannot remove a copy's last target"),
            CopyTargets::Many(ts) => {
                assert!(ts.len() > 1, "cannot remove a copy's last target");
                ts.remove(pos)
            }
        }
    }

    /// Insert `t` at `pos` (the inverse of [`CopyTargets::remove`]).
    pub fn insert(&mut self, pos: usize, t: ClusterId) {
        match self {
            CopyTargets::One(first) => {
                let mut ts = vec![*first];
                ts.insert(pos, t);
                *self = CopyTargets::Many(ts);
            }
            CopyTargets::Many(ts) => ts.insert(pos, t),
        }
    }
}

impl PartialEq for CopyTargets {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Cluster assignment of every node of a working graph.
///
/// # Examples
///
/// ```
/// use clasp_mrt::ClusterMap;
/// use clasp_ddg::NodeId;
/// use clasp_machine::ClusterId;
///
/// let mut map = ClusterMap::new();
/// map.assign(NodeId(0), ClusterId(1));
/// assert_eq!(map.cluster_of(NodeId(0)), Some(ClusterId(1)));
/// assert_eq!(map.cluster_of(NodeId(9)), None);
/// ```
/// Dense storage: both tables are indexed by `NodeId`, so lookups and
/// clears are flat buffer operations and a cleared map refills without
/// touching the allocator. Iteration stays in ascending node order,
/// matching the previous `BTreeMap` representation exactly.
#[derive(Debug, Clone, Default, Eq)]
pub struct ClusterMap {
    cluster_of: Vec<Option<ClusterId>>,
    assigned: usize,
    copies: Vec<Option<CopyMeta>>,
    copy_len: usize,
}

impl PartialEq for ClusterMap {
    fn eq(&self, other: &Self) -> bool {
        // Trailing `None` slack from different growth histories must not
        // affect equality.
        self.assigned == other.assigned
            && self.copy_len == other.copy_len
            && self.iter().eq(other.iter())
            && self.copies().eq(other.copies())
    }
}

impl ClusterMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `n` lives on cluster `c` (overwrites any previous
    /// assignment).
    pub fn assign(&mut self, n: NodeId, c: ClusterId) {
        let i = n.index();
        if i >= self.cluster_of.len() {
            self.cluster_of.resize(i + 1, None);
        }
        if self.cluster_of[i].replace(c).is_none() {
            self.assigned += 1;
        }
    }

    /// Remove `n`'s assignment (and copy metadata if it was a copy).
    pub fn unassign(&mut self, n: NodeId) {
        let i = n.index();
        if let Some(slot) = self.cluster_of.get_mut(i) {
            if slot.take().is_some() {
                self.assigned -= 1;
            }
        }
        if let Some(slot) = self.copies.get_mut(i) {
            if slot.take().is_some() {
                self.copy_len -= 1;
            }
        }
    }

    /// The cluster `n` is assigned to, if any.
    pub fn cluster_of(&self, n: NodeId) -> Option<ClusterId> {
        self.cluster_of.get(n.index()).copied().flatten()
    }

    /// Whether `n` has been assigned.
    pub fn is_assigned(&self, n: NodeId) -> bool {
        self.cluster_of(n).is_some()
    }

    /// Attach copy metadata to a copy node (which must also be assigned a
    /// cluster — by convention its *source* cluster, where it consumes a
    /// read port).
    pub fn set_copy_meta(&mut self, n: NodeId, meta: CopyMeta) {
        let i = n.index();
        if i >= self.copies.len() {
            self.copies.resize(i + 1, None);
        }
        if self.copies[i].replace(meta).is_none() {
            self.copy_len += 1;
        }
    }

    /// Copy metadata for `n`, if `n` is a copy node.
    pub fn copy_meta(&self, n: NodeId) -> Option<&CopyMeta> {
        self.copies.get(n.index()).and_then(|m| m.as_ref())
    }

    /// Mutable copy metadata for `n`.
    pub fn copy_meta_mut(&mut self, n: NodeId) -> Option<&mut CopyMeta> {
        self.copies.get_mut(n.index()).and_then(|m| m.as_mut())
    }

    /// Iterate over all assigned `(node, cluster)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ClusterId)> + '_ {
        self.cluster_of
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (NodeId(i as u32), c)))
    }

    /// Iterate over all copy nodes and their metadata in node order.
    pub fn copies(&self) -> impl Iterator<Item = (NodeId, &CopyMeta)> + '_ {
        self.copies
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (NodeId(i as u32), m)))
    }

    /// Number of assigned nodes.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Whether no node is assigned.
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Number of copy nodes recorded.
    pub fn copy_count(&self) -> usize {
        self.copy_len
    }

    /// Remove every assignment and copy record, retaining both buffers'
    /// capacity so a warmed map clears without touching the allocator.
    pub fn clear(&mut self) {
        for c in &mut self.cluster_of {
            *c = None;
        }
        self.assigned = 0;
        for m in &mut self.copies {
            *m = None;
        }
        self.copy_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_unassign() {
        let mut m = ClusterMap::new();
        m.assign(NodeId(3), ClusterId(0));
        assert!(m.is_assigned(NodeId(3)));
        assert_eq!(m.len(), 1);
        m.unassign(NodeId(3));
        assert!(!m.is_assigned(NodeId(3)));
        assert!(m.is_empty());
    }

    #[test]
    fn copy_meta_roundtrip() {
        let mut m = ClusterMap::new();
        let meta = CopyMeta {
            src: ClusterId(0),
            targets: vec![ClusterId(1), ClusterId(2)],
            link: None,
        };
        m.assign(NodeId(5), ClusterId(0));
        m.set_copy_meta(NodeId(5), meta.clone());
        assert_eq!(m.copy_meta(NodeId(5)), Some(&meta));
        assert_eq!(m.copy_count(), 1);
        m.unassign(NodeId(5));
        assert_eq!(m.copy_meta(NodeId(5)), None);
        assert_eq!(m.copy_count(), 0);
    }

    #[test]
    fn overwrite_assignment() {
        let mut m = ClusterMap::new();
        m.assign(NodeId(1), ClusterId(0));
        m.assign(NodeId(1), ClusterId(2));
        assert_eq!(m.cluster_of(NodeId(1)), Some(ClusterId(2)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_ordered() {
        let mut m = ClusterMap::new();
        m.assign(NodeId(2), ClusterId(0));
        m.assign(NodeId(0), ClusterId(1));
        let order: Vec<_> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec![NodeId(0), NodeId(2)]);
    }
}
