//! Inter-cluster communication fabric (paper §2.1, Figures 2-4).
//!
//! A copy operation moves one value between clusters. It always consumes
//! one *read port* on the source cluster's register file and one *write
//! port* on each destination cluster, plus transport:
//!
//! - on a **bused** machine, one bus for one cycle; the value is broadcast,
//!   so a single copy can be written into several clusters at once (each
//!   destination needing its own write port);
//! - on a **point-to-point** machine, the entire link between the two
//!   clusters for one cycle; data reaches exactly the linked cluster.

use crate::cluster::ClusterId;
use std::fmt;

/// Identifier of a point-to-point link (dense index into the machine's
/// link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A bidirectional dedicated connection between two clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// One endpoint.
    pub a: ClusterId,
    /// The other endpoint.
    pub b: ClusterId,
}

impl Link {
    /// Whether the link touches cluster `c`.
    pub fn touches(&self, c: ClusterId) -> bool {
        self.a == c || self.b == c
    }

    /// The endpoint opposite to `c`, if `c` is an endpoint.
    pub fn other(&self, c: ClusterId) -> Option<ClusterId> {
        if self.a == c {
            Some(self.b)
        } else if self.b == c {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Why no route could be produced between two clusters.
///
/// Returned by [`Interconnect::route`]; callers that only care about
/// feasibility can `.ok()` the result, while diagnostics keep the precise
/// cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The machine has no inter-cluster fabric at all (no links and no
    /// usable bus), so no distinct pair of clusters can communicate.
    NoFabric,
    /// An endpoint lies outside the range of clusters the fabric spans.
    OutOfRange {
        /// The offending endpoint.
        cluster: ClusterId,
    },
    /// The fabric exists but no sequence of links joins the pair.
    Unreachable {
        /// Source cluster of the failed query.
        from: ClusterId,
        /// Destination cluster of the failed query.
        to: ClusterId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoFabric => write!(f, "machine has no inter-cluster fabric"),
            RouteError::OutOfRange { cluster } => {
                write!(f, "cluster {cluster} lies outside the fabric")
            }
            RouteError::Unreachable { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The communication fabric of a clustered machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interconnect {
    /// No inter-cluster communication (unified, single-cluster machines).
    None,
    /// `buses` broadcast buses shared by all clusters; each cluster owns
    /// `read_ports` register-file read ports and `write_ports` write ports
    /// feeding/draining the buses.
    Bus {
        /// Number of shared broadcast buses.
        buses: u32,
        /// Bus read ports per cluster (source side of a copy).
        read_ports: u32,
        /// Bus write ports per cluster (destination side of a copy).
        write_ports: u32,
    },
    /// Dedicated point-to-point connections; each cluster owns `read_ports`
    /// / `write_ports` shared across its links.
    PointToPoint {
        /// The link table.
        links: Vec<Link>,
        /// Link read ports per cluster.
        read_ports: u32,
        /// Link write ports per cluster.
        write_ports: u32,
    },
}

impl Interconnect {
    /// Whether copies broadcast (one copy may serve several destination
    /// clusters). True for buses, false for point-to-point and `None`.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Interconnect::Bus { .. })
    }

    /// Number of shared buses (0 for non-bused fabrics).
    pub fn bus_count(&self) -> u32 {
        match self {
            Interconnect::Bus { buses, .. } => *buses,
            _ => 0,
        }
    }

    /// The point-to-point link table (empty for other fabrics).
    pub fn links(&self) -> &[Link] {
        match self {
            Interconnect::PointToPoint { links, .. } => links,
            _ => &[],
        }
    }

    /// Read ports per cluster (0 when there is no fabric).
    pub fn read_ports(&self) -> u32 {
        match self {
            Interconnect::None => 0,
            Interconnect::Bus { read_ports, .. }
            | Interconnect::PointToPoint { read_ports, .. } => *read_ports,
        }
    }

    /// Write ports per cluster (0 when there is no fabric).
    pub fn write_ports(&self) -> u32 {
        match self {
            Interconnect::None => 0,
            Interconnect::Bus { write_ports, .. }
            | Interconnect::PointToPoint { write_ports, .. } => *write_ports,
        }
    }

    /// For point-to-point fabrics: the lowest-numbered link connecting
    /// `from` and `to`, if one exists. One linear scan of the link table.
    pub fn link_between(&self, from: ClusterId, to: ClusterId) -> Option<LinkId> {
        self.links()
            .iter()
            .position(|l| (l.a == from && l.b == to) || (l.a == to && l.b == from))
            .map(|i| LinkId(i as u32))
    }

    /// For point-to-point fabrics: the neighbours of cluster `c`.
    pub fn neighbors(&self, c: ClusterId) -> Vec<ClusterId> {
        self.links().iter().filter_map(|l| l.other(c)).collect()
    }

    /// Whether any value can move from `from` to `to` in one hop.
    ///
    /// On bused machines every pair is one hop apart; point-to-point needs
    /// a direct link.
    pub fn directly_connected(&self, from: ClusterId, to: ClusterId) -> bool {
        match self {
            Interconnect::None => false,
            Interconnect::Bus { buses, .. } => *buses > 0 && from != to,
            Interconnect::PointToPoint { .. } => self.link_between(from, to).is_some(),
        }
    }

    /// Shortest hop path `from -> to` over the fabric, inclusive of both
    /// endpoints. On bused machines every distinct pair is `[from, to]`.
    ///
    /// Point-to-point routes are the walk of a [`RouteTable`] built for
    /// this one query: tied shortest paths resolve by (hop count, lowest
    /// link id), so at every hop the route takes the lowest-numbered link
    /// leading one hop closer to `to`. Callers routing many pairs on the
    /// same fabric should keep a [`RouteTable`] instead.
    ///
    /// # Errors
    ///
    /// A typed [`RouteError`] when the pair cannot communicate: no fabric,
    /// an endpoint out of range, or an unreachable destination.
    pub fn route(
        &self,
        from: ClusterId,
        to: ClusterId,
        cluster_count: usize,
    ) -> Result<Vec<ClusterId>, RouteError> {
        if from == to {
            return Ok(vec![from]);
        }
        match self {
            Interconnect::None => Err(RouteError::NoFabric),
            Interconnect::Bus { buses, .. } => {
                if *buses > 0 {
                    Ok(vec![from, to])
                } else {
                    Err(RouteError::NoFabric)
                }
            }
            Interconnect::PointToPoint { links, .. } => {
                RouteTable::new(links, cluster_count).path(from, to)
            }
        }
    }
}

/// A CSR adjacency index over a point-to-point link table: for each
/// cluster, its `(neighbour, link)` pairs in link-table order.
#[derive(Debug, Clone)]
struct Adjacency {
    /// `offsets[c] .. offsets[c + 1]` indexes `entries` for cluster `c`.
    offsets: Vec<usize>,
    /// Flattened `(neighbour, link)` pairs.
    entries: Vec<(ClusterId, LinkId)>,
}

impl Adjacency {
    /// Index `links` over `cluster_count` clusters.
    fn build(links: &[Link], cluster_count: usize) -> Adjacency {
        let mut degree = vec![0usize; cluster_count];
        for l in links {
            degree[l.a.index()] += 1;
            if l.b != l.a {
                degree[l.b.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(cluster_count + 1);
        let mut total = 0usize;
        offsets.push(0);
        for d in &degree {
            total += d;
            offsets.push(total);
        }
        let mut cursor = offsets[..cluster_count].to_vec();
        let mut entries = vec![(ClusterId(0), LinkId(0)); total];
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            entries[cursor[l.a.index()]] = (l.b, id);
            cursor[l.a.index()] += 1;
            if l.b != l.a {
                entries[cursor[l.b.index()]] = (l.a, id);
                cursor[l.b.index()] += 1;
            }
        }
        Adjacency { offsets, entries }
    }

    /// The `(neighbour, link)` pairs of cluster `c`, in link-table order.
    fn neighbors(&self, c: ClusterId) -> &[(ClusterId, LinkId)] {
        &self.entries[self.offsets[c.index()]..self.offsets[c.index() + 1]]
    }
}

/// Precomputed shortest routes over a point-to-point fabric: for every
/// `(from, to)` pair, the hop count and the first hop `(cluster, link)`.
///
/// A destination's row is one BFS from that destination, filled on its
/// first request, so a caller pays only for the destinations it routes
/// to. The first hop is the neighbour one hop closer to `to` with the
/// lowest `(link id, cluster)`: walking first hops yields the
/// (hop count, lowest link id) route, a pure function of the link table.
///
/// # Examples
///
/// ```
/// use clasp_machine::{presets, ClusterId, RouteTable};
///
/// let m = presets::mesh(3, 3);
/// let mut routes = RouteTable::new(m.interconnect().links(), m.cluster_count());
/// assert_eq!(routes.hops(ClusterId(0), ClusterId(8)), Some(4));
/// let (c, _link) = routes.next_hop(ClusterId(0), ClusterId(8)).unwrap();
/// assert_eq!(c, ClusterId(1));
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    adj: Adjacency,
    /// Row index of each destination in `hops` / `next`, `u32::MAX`
    /// until the destination's first request.
    row_of: Vec<u32>,
    /// `hops[row * k + from]`: hops from `from` to the row's destination,
    /// `u32::MAX` when unreachable.
    hops: Vec<u32>,
    /// `next[row * k + from]`: the first hop from `from` toward the row's
    /// destination (meaningless where `hops` is 0 or unreachable).
    next: Vec<(ClusterId, LinkId)>,
    /// BFS queue scratch, reused across rows.
    queue: Vec<ClusterId>,
}

impl RouteTable {
    /// An empty table over `links` spanning `cluster_count` clusters.
    ///
    /// # Panics
    ///
    /// Panics if a link endpoint lies outside `cluster_count`.
    pub fn new(links: &[Link], cluster_count: usize) -> RouteTable {
        RouteTable {
            adj: Adjacency::build(links, cluster_count),
            row_of: vec![u32::MAX; cluster_count],
            hops: Vec::new(),
            next: Vec::new(),
            queue: Vec::with_capacity(cluster_count),
        }
    }

    /// Number of clusters the table spans.
    fn cluster_count(&self) -> usize {
        self.row_of.len()
    }

    /// Hop count of the shortest route `from -> to` (0 when equal), or
    /// `None` when `to` is unreachable from `from`.
    ///
    /// # Panics
    ///
    /// Panics if either cluster lies outside the table.
    pub fn hops(&mut self, from: ClusterId, to: ClusterId) -> Option<u32> {
        let at = self.slot(from, to);
        match self.hops[at] {
            u32::MAX => None,
            h => Some(h),
        }
    }

    /// The first hop `(cluster, link)` of the route `from -> to`, or
    /// `None` when `from == to` or `to` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either cluster lies outside the table.
    pub fn next_hop(&mut self, from: ClusterId, to: ClusterId) -> Option<(ClusterId, LinkId)> {
        let at = self.slot(from, to);
        match self.hops[at] {
            0 | u32::MAX => None,
            _ => Some(self.next[at]),
        }
    }

    /// The whole route `from -> to`, inclusive of both endpoints.
    ///
    /// # Errors
    ///
    /// [`RouteError::OutOfRange`] for an endpoint outside the table,
    /// [`RouteError::Unreachable`] when no sequence of links joins them.
    pub(crate) fn path(
        &mut self,
        from: ClusterId,
        to: ClusterId,
    ) -> Result<Vec<ClusterId>, RouteError> {
        for c in [from, to] {
            if c.index() >= self.cluster_count() {
                return Err(RouteError::OutOfRange { cluster: c });
            }
        }
        let hops = self
            .hops(from, to)
            .ok_or(RouteError::Unreachable { from, to })?;
        let mut path = Vec::with_capacity(hops as usize + 1);
        let mut cur = from;
        path.push(cur);
        while let Some((next, _)) = self.next_hop(cur, to) {
            path.push(next);
            cur = next;
        }
        Ok(path)
    }

    /// Index of `(from, to)` in the flat tables, filling `to`'s row first
    /// if this is its first request.
    fn slot(&mut self, from: ClusterId, to: ClusterId) -> usize {
        let k = self.cluster_count();
        assert!(from.index() < k, "cluster {from} lies outside the table");
        let row = match self.row_of[to.index()] {
            u32::MAX => self.fill(to),
            row => row as usize,
        };
        row * k + from.index()
    }

    /// One BFS from `to` gives every cluster's distance to it; each
    /// cluster's first hop is then its closer neighbour with the lowest
    /// `(link id, cluster)`.
    fn fill(&mut self, to: ClusterId) -> usize {
        let k = self.cluster_count();
        let row = self.hops.len() / k;
        let base = row * k;
        self.hops.resize(base + k, u32::MAX);
        self.next.resize(base + k, (to, LinkId(0)));
        let dist = &mut self.hops[base..];
        dist[to.index()] = 0;
        self.queue.clear();
        self.queue.push(to);
        let mut head = 0;
        while let Some(&c) = self.queue.get(head) {
            head += 1;
            for &(nb, _) in self.adj.neighbors(c) {
                if dist[nb.index()] == u32::MAX {
                    dist[nb.index()] = dist[c.index()] + 1;
                    self.queue.push(nb);
                }
            }
        }
        for from in 0..k {
            let d = dist[from];
            if d == 0 || d == u32::MAX {
                continue;
            }
            self.next[base + from] = self
                .adj
                .neighbors(ClusterId(from as u32))
                .iter()
                .filter(|&&(nb, _)| dist[nb.index()] == d - 1)
                .min_by_key(|&&(nb, l)| (l, nb))
                .copied()
                .expect("a reachable cluster has a closer neighbour");
        }
        self.row_of[to.index()] = row as u32;
        row
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interconnect::None => write!(f, "no interconnect"),
            Interconnect::Bus {
                buses,
                read_ports,
                write_ports,
            } => write!(f, "{buses} bus(es), {read_ports}R/{write_ports}W ports"),
            Interconnect::PointToPoint {
                links,
                read_ports,
                write_ports,
            } => write!(
                f,
                "{} p2p link(s), {read_ports}R/{write_ports}W ports",
                links.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Interconnect {
        // 2x2 grid: 0-1, 0-2, 1-3, 2-3 (no diagonal).
        Interconnect::PointToPoint {
            links: vec![
                Link {
                    a: ClusterId(0),
                    b: ClusterId(1),
                },
                Link {
                    a: ClusterId(0),
                    b: ClusterId(2),
                },
                Link {
                    a: ClusterId(1),
                    b: ClusterId(3),
                },
                Link {
                    a: ClusterId(2),
                    b: ClusterId(3),
                },
            ],
            read_ports: 2,
            write_ports: 2,
        }
    }

    #[test]
    fn bus_is_broadcast() {
        let b = Interconnect::Bus {
            buses: 2,
            read_ports: 1,
            write_ports: 1,
        };
        assert!(b.is_broadcast());
        assert!(b.directly_connected(ClusterId(0), ClusterId(1)));
        assert_eq!(
            b.route(ClusterId(0), ClusterId(1), 2),
            Ok(vec![ClusterId(0), ClusterId(1)])
        );
    }

    #[test]
    fn grid_neighbors() {
        let g = grid();
        let mut n0 = g.neighbors(ClusterId(0));
        n0.sort();
        assert_eq!(n0, vec![ClusterId(1), ClusterId(2)]);
        assert!(g.directly_connected(ClusterId(0), ClusterId(1)));
        assert!(!g.directly_connected(ClusterId(0), ClusterId(3)));
    }

    #[test]
    fn grid_diagonal_routes_in_two_hops() {
        let g = grid();
        let path = g.route(ClusterId(0), ClusterId(3), 4).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], ClusterId(0));
        assert_eq!(path[2], ClusterId(3));
        assert!(g.directly_connected(path[0], path[1]));
        assert!(g.directly_connected(path[1], path[2]));
    }

    #[test]
    fn link_lookup() {
        let g = grid();
        assert_eq!(g.link_between(ClusterId(0), ClusterId(1)), Some(LinkId(0)));
        assert_eq!(g.link_between(ClusterId(1), ClusterId(0)), Some(LinkId(0)));
        assert_eq!(g.link_between(ClusterId(0), ClusterId(3)), None);
    }

    #[test]
    fn none_has_no_connectivity() {
        let n = Interconnect::None;
        assert!(!n.directly_connected(ClusterId(0), ClusterId(1)));
        assert_eq!(
            n.route(ClusterId(0), ClusterId(1), 2),
            Err(RouteError::NoFabric)
        );
        assert_eq!(
            n.route(ClusterId(0), ClusterId(0), 1),
            Ok(vec![ClusterId(0)])
        );
        assert_eq!(n.bus_count(), 0);
        assert_eq!(n.read_ports(), 0);
    }

    #[test]
    fn zero_bus_fabric_routes_nothing() {
        let b = Interconnect::Bus {
            buses: 0,
            read_ports: 1,
            write_ports: 1,
        };
        assert_eq!(
            b.route(ClusterId(0), ClusterId(1), 2),
            Err(RouteError::NoFabric)
        );
    }

    #[test]
    fn unreachable_route() {
        let g = Interconnect::PointToPoint {
            links: vec![Link {
                a: ClusterId(0),
                b: ClusterId(1),
            }],
            read_ports: 1,
            write_ports: 1,
        };
        assert_eq!(
            g.route(ClusterId(0), ClusterId(2), 3),
            Err(RouteError::Unreachable {
                from: ClusterId(0),
                to: ClusterId(2),
            })
        );
        assert_eq!(
            g.route(ClusterId(7), ClusterId(1), 3),
            Err(RouteError::OutOfRange {
                cluster: ClusterId(7),
            })
        );
        let mut t = RouteTable::new(g.links(), 3);
        assert_eq!(t.hops(ClusterId(0), ClusterId(2)), None);
        assert_eq!(t.next_hop(ClusterId(0), ClusterId(2)), None);
        assert_eq!(t.hops(ClusterId(1), ClusterId(0)), Some(1));
        assert_eq!(t.hops(ClusterId(2), ClusterId(2)), Some(0));
        assert_eq!(t.next_hop(ClusterId(2), ClusterId(2)), None);
        assert_eq!(
            t.path(ClusterId(0), ClusterId(9)),
            Err(RouteError::OutOfRange {
                cluster: ClusterId(9),
            })
        );
    }

    /// The original `route` implementation, verbatim: `neighbors()`
    /// allocating a fresh `Vec` per visited node inside a BFS from `from`.
    /// Kept as a reference; on the tie-free fabrics below (and on the 2x2
    /// grid, whose only tie resolves the same way) the table must match it
    /// path-for-path.
    fn route_old(
        ic: &Interconnect,
        from: ClusterId,
        to: ClusterId,
        cluster_count: usize,
    ) -> Option<Vec<ClusterId>> {
        if from == to {
            return Some(vec![from]);
        }
        match ic {
            Interconnect::None => None,
            Interconnect::Bus { buses, .. } => {
                if *buses > 0 {
                    Some(vec![from, to])
                } else {
                    None
                }
            }
            Interconnect::PointToPoint { .. } => {
                let mut prev: Vec<Option<ClusterId>> = vec![None; cluster_count];
                let mut seen = vec![false; cluster_count];
                let mut queue = std::collections::VecDeque::new();
                seen[from.index()] = true;
                queue.push_back(from);
                while let Some(c) = queue.pop_front() {
                    if c == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while let Some(p) = prev[cur.index()] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    for nb in ic.neighbors(c) {
                        if !seen[nb.index()] {
                            seen[nb.index()] = true;
                            prev[nb.index()] = Some(c);
                            queue.push_back(nb);
                        }
                    }
                }
                None
            }
        }
    }

    /// The per-query two-phase router the table replaced, verbatim apart
    /// from building its own neighbour lists: a BFS from `to` (stopping
    /// once `from` is reached) gives distances, then a forward walk takes
    /// the lowest-numbered link one hop closer at every step. The
    /// reference for the (hop count, lowest link id) rule.
    fn route_two_phase(
        links: &[Link],
        cluster_count: usize,
        from: ClusterId,
        to: ClusterId,
    ) -> Option<Vec<ClusterId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut adj: Vec<Vec<(ClusterId, LinkId)>> = vec![Vec::new(); cluster_count];
        for (i, l) in links.iter().enumerate() {
            adj[l.a.index()].push((l.b, LinkId(i as u32)));
            if l.b != l.a {
                adj[l.b.index()].push((l.a, LinkId(i as u32)));
            }
        }
        let mut dist: Vec<u32> = vec![u32::MAX; cluster_count];
        let mut queue = std::collections::VecDeque::new();
        dist[to.index()] = 0;
        queue.push_back(to);
        while let Some(c) = queue.pop_front() {
            if c == from {
                break;
            }
            for &(nb, _) in &adj[c.index()] {
                if dist[nb.index()] == u32::MAX {
                    dist[nb.index()] = dist[c.index()] + 1;
                    queue.push_back(nb);
                }
            }
        }
        if dist[from.index()] == u32::MAX {
            return None;
        }
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let d = dist[cur.index()];
            let (next, _) = adj[cur.index()]
                .iter()
                .filter(|&&(nb, _)| dist[nb.index()] == d - 1)
                .min_by_key(|&&(nb, l)| (l, nb))
                .copied()
                .expect("a cluster on a shortest path has a closer neighbour");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// Every pair's table walk, route, hop count and first-hop link
    /// checked against both references.
    fn assert_table_matches_references(ic: &Interconnect, k: usize, check_old: bool) {
        let links = ic.links();
        let mut table = RouteTable::new(links, k);
        // Fill rows in reverse destination order: results must not depend
        // on which row was requested first.
        for b in (0..k).rev() {
            for a in 0..k {
                let (a, b) = (ClusterId(a as u32), ClusterId(b as u32));
                let reference = route_two_phase(links, k, a, b);
                let walked = table.path(a, b).ok();
                assert_eq!(walked, reference, "table walk {a} -> {b} diverged");
                assert_eq!(ic.route(a, b, k).ok(), reference, "route {a} -> {b}");
                if check_old {
                    assert_eq!(walked, route_old(ic, a, b, k), "old route {a} -> {b}");
                }
                assert_eq!(
                    table.hops(a, b),
                    reference.as_ref().map(|p| p.len() as u32 - 1),
                    "hops {a} -> {b}"
                );
                if let Some((next, link)) = table.next_hop(a, b) {
                    assert_eq!(Some(link), ic.link_between(a, next), "link {a} -> {next}");
                }
            }
        }
    }

    #[test]
    fn table_route_equals_old_route_on_generated_grid() {
        let g = crate::presets::four_cluster_grid(2);
        assert_table_matches_references(g.interconnect(), g.cluster_count(), true);
    }

    #[test]
    fn table_route_equals_old_route_on_irregular_fabrics() {
        // Beyond the grid: a line, a star, a fabric with an unreachable
        // island, and parallel links between the same pair.
        let fabrics = [
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
            vec![(0, 1), (0, 2), (0, 3), (0, 4)],
            vec![(0, 1), (2, 3)],
            vec![(0, 1), (0, 1), (1, 2)],
        ];
        for links in fabrics {
            let ic = Interconnect::PointToPoint {
                links: links
                    .iter()
                    .map(|&(a, b)| Link {
                        a: ClusterId(a),
                        b: ClusterId(b),
                    })
                    .collect(),
                read_ports: 1,
                write_ports: 1,
            };
            assert_table_matches_references(&ic, 5, true);
        }
    }

    #[test]
    fn table_walks_equal_two_phase_reference_on_preset_fabrics() {
        use crate::presets::{four_cluster_grid, mesh, pe_grid, torus};
        let machines = [
            four_cluster_grid(2),
            mesh(2, 2),
            mesh(3, 3),
            mesh(4, 4),
            torus(3, 3),
            torus(4, 4),
            pe_grid(2, 3),
            pe_grid(3, 3),
        ];
        for m in machines {
            assert_table_matches_references(m.interconnect(), m.cluster_count(), false);
        }
    }

    fn ids(path: &[u32]) -> Vec<ClusterId> {
        path.iter().map(|&c| ClusterId(c)).collect()
    }

    #[test]
    fn mesh_ties_take_the_lowest_link_id() {
        // 3x3 mesh, canonical row-major link table:
        //   C0 - C1 - C2      L0=(0,1)  L1=(0,3)  L2=(1,2)  L3=(1,4)
        //   |    |    |       L4=(2,5)  L5=(3,4)  L6=(3,6)  L7=(4,5)
        //   C3 - C4 - C5      L8=(4,7)  L9=(5,8)  L10=(6,7) L11=(7,8)
        //   |    |    |
        //   C6 - C7 - C8
        let m = crate::presets::mesh(3, 3);
        let mut t = RouteTable::new(m.interconnect().links(), 9);
        // 0 -> 4 ties between 0-1-4 and 0-3-4; L0 beats L1 at the first
        // hop, so the route goes through C1.
        assert_eq!(t.path(ClusterId(0), ClusterId(4)).unwrap(), ids(&[0, 1, 4]));
        assert_eq!(
            t.next_hop(ClusterId(0), ClusterId(4)),
            Some((ClusterId(1), LinkId(0)))
        );
        // 0 -> 8 has six tied 4-hop paths; greedy lowest-link-id picks the
        // top edge: L0 to C1, then L2 to C2, L4 to C5, L9 to C8.
        assert_eq!(
            t.path(ClusterId(0), ClusterId(8)).unwrap(),
            ids(&[0, 1, 2, 5, 8])
        );
        assert_eq!(
            t.next_hop(ClusterId(5), ClusterId(8)),
            Some((ClusterId(8), LinkId(9)))
        );
    }

    #[test]
    fn mesh_route_is_a_pure_function_of_the_link_table() {
        // Reversing the link table renumbers every link; the route must
        // still follow the (hop count, lowest link id) rule of the
        // *reversed* table — not whatever order BFS happens to visit in.
        let m = crate::presets::mesh(3, 3);
        let mut links: Vec<Link> = m.interconnect().links().to_vec();
        links.reverse();
        let mut t = RouteTable::new(&links, 9);
        // Reversed ids: L0=(7,8), L1=(6,7), L5=(3,6), L10=(0,3), L11=(0,1).
        // Forward from C0 the lowest link is now L10 to C3, then L5 to C6,
        // L1 to C7, L0 to C8.
        assert_eq!(
            t.path(ClusterId(0), ClusterId(8)).unwrap(),
            ids(&[0, 3, 6, 7, 8])
        );
        // Repeated queries are bit-identical.
        for _ in 0..4 {
            assert_eq!(
                t.path(ClusterId(0), ClusterId(8)).unwrap(),
                ids(&[0, 3, 6, 7, 8])
            );
        }
    }

    #[test]
    fn mesh_with_removed_link_reroutes_or_reports_unreachable() {
        // A 3x3 mesh with links removed. Dropping one link must reroute
        // around the hole; isolating a corner must yield a typed error,
        // not a panic or a loop.
        let m = crate::presets::mesh(3, 3);
        let full: Vec<Link> = m.interconnect().links().to_vec();

        // Remove L0 = (0,1): 0 -> 1 now goes around through C3/C4.
        let holed: Vec<Link> = full
            .iter()
            .copied()
            .filter(|l| !(l.a == ClusterId(0) && l.b == ClusterId(1)))
            .collect();
        let mut t = RouteTable::new(&holed, 9);
        assert_eq!(
            t.path(ClusterId(0), ClusterId(1)).unwrap(),
            ids(&[0, 3, 4, 1])
        );
        assert_eq!(t.hops(ClusterId(0), ClusterId(1)), Some(3));

        // Remove both links touching the C8 corner: 8 becomes an island.
        let isolated: Vec<Link> = full
            .iter()
            .copied()
            .filter(|l| !l.touches(ClusterId(8)))
            .collect();
        let mut t = RouteTable::new(&isolated, 9);
        assert_eq!(
            t.path(ClusterId(0), ClusterId(8)),
            Err(RouteError::Unreachable {
                from: ClusterId(0),
                to: ClusterId(8),
            })
        );
        assert_eq!(
            t.path(ClusterId(8), ClusterId(4)),
            Err(RouteError::Unreachable {
                from: ClusterId(8),
                to: ClusterId(4),
            })
        );
        assert_eq!(t.hops(ClusterId(8), ClusterId(4)), None);
    }

    #[test]
    fn route_error_displays() {
        assert_eq!(
            RouteError::NoFabric.to_string(),
            "machine has no inter-cluster fabric"
        );
        assert_eq!(
            RouteError::Unreachable {
                from: ClusterId(0),
                to: ClusterId(8),
            }
            .to_string(),
            "no route from C0 to C8"
        );
        assert_eq!(
            RouteError::OutOfRange {
                cluster: ClusterId(7),
            }
            .to_string(),
            "cluster C7 lies outside the fabric"
        );
    }

    #[test]
    fn display() {
        assert_eq!(
            Interconnect::Bus {
                buses: 2,
                read_ports: 1,
                write_ports: 1
            }
            .to_string(),
            "2 bus(es), 1R/1W ports"
        );
        assert!(grid().to_string().contains("4 p2p link(s)"));
    }
}
