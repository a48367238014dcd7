//! Minimum initiation interval bounds from recurrences.
//!
//! `RecMII` is the recurrence-constrained lower bound on II: the maximum
//! over all dependence cycles of `ceil(sum(latency) / sum(distance))`.
//! (The resource bound `ResMII` depends on a machine description and lives
//! in `clasp-machine`.)

use crate::graph::{Ddg, NodeId};
use crate::scc::{find_sccs, SccInfo};

/// Compute the recurrence-constrained MII of the whole graph.
///
/// Returns 1 for graphs without recurrences (every loop needs II >= 1).
///
/// # Examples
///
/// The paper's introductory example (Figure 6) has the critical cycle
/// `B -> C -> D -> B` with latencies 1 + 2 + 1 over distance 1, so
/// RecMII = 4:
///
/// ```
/// use clasp_ddg::{Ddg, OpKind, rec_mii};
///
/// let mut g = Ddg::new("fig6");
/// let b = g.add(OpKind::IntAlu);
/// let c = g.add(OpKind::Load); // latency 2
/// let d = g.add(OpKind::IntAlu);
/// g.add_dep(b, c);
/// g.add_dep(c, d);
/// g.add_dep_carried(d, b, 1);
/// assert_eq!(rec_mii(&g), 4);
/// ```
pub fn rec_mii(g: &Ddg) -> u32 {
    let sccs = find_sccs(g);
    rec_mii_with(g, &sccs)
}

/// As [`rec_mii`], reusing a precomputed SCC decomposition.
pub fn rec_mii_with(g: &Ddg, sccs: &SccInfo) -> u32 {
    sccs.non_trivial()
        .map(|(idx, _)| scc_rec_mii(g, sccs, idx))
        .max()
        .unwrap_or(1)
        .max(1)
}

/// The RecMII contributed by one (non-trivial) SCC: the maximum cycle
/// ratio `ceil(lat / dist)` over cycles inside that component.
///
/// Returns 0 for trivial components (they contain no cycle).
///
/// # Panics
///
/// Panics if `scc_index` is out of bounds for `sccs`.
pub fn scc_rec_mii(g: &Ddg, sccs: &SccInfo, scc_index: usize) -> u32 {
    let scc = &sccs.sccs[scc_index];
    if !scc.non_trivial {
        return 0;
    }
    // Local renumbering of the component's nodes.
    let mut local = vec![usize::MAX; g.node_count()];
    for (i, n) in scc.nodes.iter().enumerate() {
        local[n.index()] = i;
    }
    // Edges internal to the component.
    let mut edges: Vec<(usize, usize, i64, i64)> = Vec::new(); // (u, v, lat, dist)
    let mut lat_sum: i64 = 0;
    for &n in &scc.nodes {
        for (_, e) in g.succ_edges(n) {
            let li = local[e.dst.index()];
            if li != usize::MAX && sccs.component(e.dst) == scc_index {
                edges.push((
                    local[n.index()],
                    li,
                    i64::from(e.latency),
                    i64::from(e.distance),
                ));
                lat_sum += i64::from(e.latency);
            }
        }
    }
    // Smallest ii in [1, lat_sum] such that no cycle has lat > ii*dist.
    // Monotone in ii, so binary search with a positive-cycle oracle.
    let (mut lo, mut hi) = (1i64, lat_sum.max(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(scc.nodes.len(), &edges, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    u32::try_from(lo).expect("RecMII fits in u32")
}

/// Bellman-Ford positive-cycle test on weights `lat - ii * dist`.
fn has_positive_cycle(n: usize, edges: &[(usize, usize, i64, i64)], ii: i64) -> bool {
    // Longest-path relaxation from a virtual source connected to all nodes
    // with weight 0; a relaxation on pass n implies a positive cycle.
    let mut dist = vec![0i64; n];
    for pass in 0..n {
        let mut changed = false;
        for &(u, v, lat, d) in edges {
            let w = lat - ii * d;
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if pass == n - 1 {
            return true;
        }
    }
    false
}

/// An upper bound on the II search, from the sequential-schedule argument:
/// issuing the nodes one after another, each `max(1, max outgoing
/// latency)` cycles after the previous one, satisfies every dependence
/// (including loop-carried ones) once II reaches that total length, and
/// uses each resource instance at most once per row. So `MII + Σ_v max(1,
/// max outgoing latency of v)` always admits a schedule.
///
/// (The seed used `MII + Σ all edge latencies + node count`, which this
/// bound never exceeds; a tighter cap means exhaustion fails faster.)
pub fn max_ii_bound(g: &Ddg, mii: u32) -> u32 {
    let seq: u32 = g
        .node_ids()
        .map(|v| {
            g.succ_edges(v)
                .map(|(_, e)| e.latency)
                .max()
                .unwrap_or(0)
                .max(1)
        })
        .sum();
    mii.saturating_add(seq).max(mii.saturating_add(1))
}

/// Brute-force RecMII by enumerating all elementary cycles (Johnson-style
/// DFS). Exponential; only suitable for small graphs. Used to validate
/// [`rec_mii`] in tests.
pub fn rec_mii_bruteforce(g: &Ddg) -> u32 {
    let n = g.node_count();
    let mut best: u32 = 1;
    // DFS from each start node, only visiting nodes >= start to avoid
    // duplicate cycles.
    for start in 0..n {
        let mut on_path = vec![false; n];
        type Frame = (usize, Vec<(usize, u64, u64)>);
        let mut stack: Vec<Frame> = Vec::new();
        // state: (node, remaining successor list of (dst, lat, dist))
        let succs = |v: usize| -> Vec<(usize, u64, u64)> {
            g.succ_edges(NodeId(v as u32))
                .map(|(_, e)| (e.dst.index(), u64::from(e.latency), u64::from(e.distance)))
                .filter(|&(d, _, _)| d >= start)
                .collect()
        };
        let mut lat_path: Vec<u64> = vec![0];
        let mut dist_path: Vec<u64> = vec![0];
        stack.push((start, succs(start)));
        on_path[start] = true;
        while let Some((v, rest)) = stack.last_mut() {
            if let Some((w, lat, d)) = rest.pop() {
                let nl = lat_path.last().unwrap() + lat;
                let nd = dist_path.last().unwrap() + d;
                if w == start {
                    // Found a cycle back to start.
                    if nd > 0 {
                        let ratio = nl.div_ceil(nd);
                        best = best.max(u32::try_from(ratio).unwrap_or(u32::MAX));
                    }
                } else if !on_path[w] {
                    on_path[w] = true;
                    lat_path.push(nl);
                    dist_path.push(nd);
                    stack.push((w, succs(w)));
                }
            } else {
                on_path[*v] = false;
                stack.pop();
                lat_path.pop();
                dist_path.pop();
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn max_ii_bound_is_tighter_than_seed_formula() {
        let mut g = Ddg::new("chain");
        let a = g.add(OpKind::Load); // lat 2
        let b = g.add(OpKind::FpMult); // lat 3
        let c = g.add(OpKind::FpDiv); // lat 8
        let d = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep(c, d);
        // Sequential-length bound: 2 + 3 + 9 + 1 = 15, plus mii 1 = 16.
        assert_eq!(max_ii_bound(&g, 1), 16);
        // Seed formula was mii + total latency + node count = 1 + 14 + 4.
        let seed = 1 + 14 + 4;
        assert!(max_ii_bound(&g, 1) <= seed);
    }

    #[test]
    fn max_ii_bound_always_exceeds_mii() {
        let g = Ddg::new("empty");
        assert_eq!(max_ii_bound(&g, 7), 8);
    }

    #[test]
    fn no_recurrence_gives_one() {
        let mut g = Ddg::new("dag");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpMult);
        g.add_dep(a, b);
        assert_eq!(rec_mii(&g), 1);
    }

    #[test]
    fn figure6_recmii_is_four() {
        let mut g = Ddg::new("fig6");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        let c = g.add(OpKind::Load);
        let d = g.add(OpKind::IntAlu);
        let e = g.add(OpKind::IntAlu);
        let f = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep(c, d);
        g.add_dep(d, e);
        g.add_dep(e, f);
        g.add_dep_carried(d, b, 1);
        assert_eq!(rec_mii(&g), 4);
        assert_eq!(rec_mii_bruteforce(&g), 4);
    }

    #[test]
    fn self_loop_ratio() {
        let mut g = Ddg::new("self");
        let a = g.add(OpKind::FpDiv); // latency 9
        g.add_dep_carried(a, a, 1);
        assert_eq!(rec_mii(&g), 9);
        let mut g2 = Ddg::new("self2");
        let b = g2.add(OpKind::FpDiv);
        g2.add_dep_carried(b, b, 3); // 9/3 = 3
        assert_eq!(rec_mii(&g2), 3);
    }

    #[test]
    fn fractional_ratio_rounds_up() {
        // Cycle latency 5 over distance 2 -> ceil(2.5) = 3.
        let mut g = Ddg::new("frac");
        let a = g.add(OpKind::FpMult); // lat 3
        let b = g.add(OpKind::Load); // lat 2
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 2);
        assert_eq!(rec_mii(&g), 3);
        assert_eq!(rec_mii_bruteforce(&g), 3);
    }

    #[test]
    fn max_over_multiple_sccs() {
        let mut g = Ddg::new("multi");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1); // ratio 2
        let c = g.add(OpKind::FpDiv);
        g.add_dep_carried(c, c, 1); // ratio 9
        assert_eq!(rec_mii(&g), 9);
    }

    #[test]
    fn nested_cycles_take_worst() {
        // Two cycles sharing nodes: a->b->a (lat 2, dist 1, ratio 2) and
        // a->b->c->a (lat 3, dist 1, ratio 3).
        let mut g = Ddg::new("nest");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        let c = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1);
        g.add_dep(b, c);
        g.add_dep_carried(c, a, 1);
        assert_eq!(rec_mii(&g), 3);
        assert_eq!(rec_mii_bruteforce(&g), 3);
    }

    #[test]
    fn per_scc_values() {
        let mut g = Ddg::new("per");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1);
        let c = g.add(OpKind::Load);
        g.add_dep_carried(c, c, 1);
        let sccs = find_sccs(&g);
        let mut vals: Vec<u32> = sccs
            .non_trivial()
            .map(|(i, _)| scc_rec_mii(&g, &sccs, i))
            .collect();
        vals.sort();
        assert_eq!(vals, vec![2, 2]);
    }

    #[test]
    fn bruteforce_matches_on_dense_small_graph() {
        // Small handmade graph with several interleaved cycles.
        let mut g = Ddg::new("dense");
        let n: Vec<_> = (0..5).map(|_| g.add(OpKind::IntAlu)).collect();
        g.add_dep(n[0], n[1]);
        g.add_dep(n[1], n[2]);
        g.add_dep(n[2], n[3]);
        g.add_dep(n[3], n[4]);
        g.add_dep_carried(n[4], n[0], 2);
        g.add_dep_carried(n[2], n[1], 1);
        g.add_dep_carried(n[3], n[0], 1);
        assert_eq!(rec_mii(&g), rec_mii_bruteforce(&g));
    }
}
