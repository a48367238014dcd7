//! Lowering one clustered modulo-scheduling instance at a fixed II into
//! CNF, decoding a satisfying model back into an [`Assignment`] plus
//! [`Schedule`], and the reverse: pinning a given schedule's placement
//! and timing onto the encoding's primary literals (a *lift*). A lift
//! asserts each primary literal's value as the variable is made, so
//! every later clause the witness satisfies is dropped as it is added.
//!
//! # Variable schema
//!
//! For every original node `i`:
//!
//! - `C[i][c]` — `i` executes on cluster `c` (one per legal cluster,
//!   exactly-one);
//! - `T[i][t]` — `i` issues at cycle `t` of the flat horizon `0..H`
//!   (exactly-one); the kernel row is `t mod II`, so the modulo resource
//!   constraints below quantify over rows while the dependence
//!   constraints quantify over cycles;
//! - `P[i][t]` — prefix ladder, "`i` issues at or before `t`". Each
//!   dependence arc becomes **one** clause per consumer cycle instead of
//!   the `O(H^2)` pairwise forbidden-pair encoding.
//!
//! For every value-producing node `p` and destination cluster `d` a
//! consumer could live on:
//!
//! - `E[p][d]` — a copy of `p`'s value is delivered into `d`;
//! - `Tc[p][d][t]` — that copy issues at cycle `t` (at-most-one, and
//!   exactly-one when `E` holds).
//!
//! Resource exclusivity is counted per kernel row with Sinz sequential
//! at-most-k over auxiliary "claim" literals: FU claims per (cluster,
//! row, class) with general-purpose overflow selectors, bus/link claims,
//! and register-file read/write-port claims mirroring the shape the
//! heuristic's reservation table (`clasp_mrt`) charges — so a decoded
//! model always replays cleanly through the existing validators.
//!
//! # Routing model
//!
//! Copies are *single-hop*: a value moves straight from the producer's
//! cluster to the consumer's. On bused machines same-cycle deliveries of
//! one value merge into one broadcast (one bus, one read port, a write
//! port per destination), exactly the grouping `CopyMeta.targets`
//! expresses. Multi-hop copy *chains* (possible on any fabric, required
//! on sparse point-to-point topologies) are not encoded: UNSAT here means
//! "no single-hop-routed schedule", which is the exact bound for bused
//! machines whenever chains are not competitive, and a conservative
//! upper-bound certificate otherwise. A schedule that used a chain cannot
//! be lifted ([`LiftError::CopyChain`]).
//!
//! # Horizon
//!
//! Issue cycles live in the flat window `0..H` of [`horizon`], which is a
//! size, not a proven bound (see its docs): UNSAT at an II means "no
//! single-hop-routed schedule inside the window".

use crate::solver::{add_at_most_k, add_exactly_one, Lit, Solver};
use clasp_core::{AssignStats, Assignment};
use clasp_ddg::{Ddg, DepEdge, NodeId, OpKind, Operation};
use clasp_machine::{ClusterId, Interconnect, MachineSpec};
use clasp_mrt::{ClusterMap, CopyMeta};
use clasp_sched::{validate_schedule, Schedule};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Why a witness `(Assignment, Schedule)` could not be lifted into the
/// encoding at its II (see `lift_witness`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftError {
    /// The witness is not a valid schedule of the loop: the assignment or
    /// schedule validator refuses it, or a copy has no producer.
    Invalid {
        /// What is wrong with the witness (a validator's rendering).
        reason: String,
    },
    /// The witness routes a value through a copy chain (a copy feeding a
    /// copy); the encoding models single-hop copies only.
    CopyChain,
    /// A copy the encoding has no variable for: a second copy of
    /// `producer`'s value into `cluster`, a copy into a cluster no
    /// consumer of the value can execute on, or a point-to-point copy
    /// over a link other than the one the encoding routes.
    UnmodelledCopy {
        /// The original node whose value is copied.
        producer: NodeId,
        /// The destination cluster of the copy.
        cluster: ClusterId,
    },
    /// After least-stage normalization, working-graph node `node` issues
    /// at `cycle`, past the encoding's flat horizon.
    OutsideHorizon {
        /// The node (original or copy) of the witness's working graph.
        node: NodeId,
        /// Its normalized issue cycle.
        cycle: i64,
        /// The encoding's horizon `H` (cycles `0..H` are encoded).
        horizon: usize,
    },
    /// The encoding has no model that agrees with the witness: it rejects
    /// a valid schedule at `ii`, i.e. it over-constrains.
    Rejected {
        /// The witness's II.
        ii: u32,
    },
    /// The loop is over the node cap, or the conflict budget ran out
    /// before the solver found a model.
    Budget,
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::Invalid { reason } => write!(f, "witness is invalid: {reason}"),
            LiftError::CopyChain => f.write_str("witness routes a value through a copy chain"),
            LiftError::UnmodelledCopy { producer, cluster } => write!(
                f,
                "the encoding has no variable for the copy of {producer} into {cluster}"
            ),
            LiftError::OutsideHorizon {
                node,
                cycle,
                horizon,
            } => write!(
                f,
                "{node} issues at normalized cycle {cycle}, outside the horizon 0..{horizon}"
            ),
            LiftError::Rejected { ii } => {
                write!(f, "the encoding rejects a valid schedule at II = {ii}")
            }
            LiftError::Budget => f.write_str("node cap or conflict budget reached"),
        }
    }
}

impl std::error::Error for LiftError {}

/// A witness's values for the encoding's primary variables, checked
/// against the variables [`encode`] makes: for every original node its
/// cluster and issue cycle, and for every (producer, cluster) pair a copy
/// serves, that copy's issue cycle. Every other pair has no copy.
pub(crate) struct Pins {
    /// Per original node: `(cluster, issue cycle)`.
    nodes: Vec<(ClusterId, usize)>,
    /// Issue cycle of the copy serving each (producer, cluster) pair.
    copies: BTreeMap<(NodeId, ClusterId), usize>,
}

impl Pins {
    /// Pins for `witness` at the working-graph issue cycles `times`, all
    /// inside the horizon.
    ///
    /// The witness must pass `validate_assignment` and be chain-free.
    ///
    /// # Errors
    ///
    /// [`LiftError::UnmodelledCopy`] for a copy with no variable in the
    /// encoding (its pair is not modelled, its link is not the routed
    /// one, or another copy already serves its pair);
    /// [`LiftError::Invalid`] for a copy with no feed edge.
    pub(crate) fn new(
        g: &Ddg,
        machine: &MachineSpec,
        witness: &Assignment,
        times: &[i64],
    ) -> Result<Pins, LiftError> {
        let (wg, map) = (&witness.graph, &witness.map);
        let nodes = g
            .node_ids()
            .map(|i| {
                let c = map
                    .cluster_of(i)
                    .expect("validated: every original node is assigned");
                (c, times[i.index()] as usize)
            })
            .collect();
        let mut copies = BTreeMap::new();
        for (copy, meta) in map.copies() {
            let Some((_, feed)) = wg.pred_edges(copy).next() else {
                return Err(LiftError::Invalid {
                    reason: format!("copy {copy} has no feed edge"),
                });
            };
            let producer = feed.src;
            for &d in &meta.targets {
                let modelled = copy_dests(g, machine, producer).contains(&d);
                let routed = meta.link == machine.interconnect().link_between(meta.src, d);
                let cycle = times[copy.index()] as usize;
                if !modelled || !routed || copies.insert((producer, d), cycle).is_some() {
                    return Err(LiftError::UnmodelledCopy {
                        producer,
                        cluster: d,
                    });
                }
            }
        }
        Ok(Pins { nodes, copies })
    }
}

/// Assert the one-hot `lits` to select index `at` (or none) as units.
fn pin_one_hot(s: &mut Solver, lits: &[Lit], at: Option<usize>) {
    for (k, &l) in lits.iter().enumerate() {
        s.add_clause(&[if Some(k) == at { l } else { !l }]);
    }
}

/// The destination clusters the encoding gives copies of `p`'s value, in
/// ascending order: every cluster some consumer of the value can execute
/// on. Empty when `p` produces no value, is not a node of `g`, or the
/// fabric carries no copies.
fn copy_dests(g: &Ddg, machine: &MachineSpec, p: NodeId) -> Vec<ClusterId> {
    let mut dests: Vec<ClusterId> = Vec::new();
    if p.index() >= g.node_count()
        || !g.op(p).kind.produces_value()
        || !has_transport(machine.interconnect())
    {
        return dests;
    }
    for (_, e) in g.succ_edges(p) {
        if e.dst == p {
            continue;
        }
        for c in machine.executing_clusters(g.op(e.dst).kind) {
            if !dests.contains(&c) {
                dests.push(c);
            }
        }
    }
    dests.sort();
    dests
}

/// Lit lists for one potential copy `(producer, destination cluster)`.
struct CopyLits {
    /// The copy exists (some crossing consumer needs the value on `d`).
    exist: Lit,
    /// One-hot issue cycle (all-false when the copy does not exist).
    times: Vec<Lit>,
}

/// A fully-encoded instance: the solver holding the CNF plus the
/// variable tables needed to decode a model.
pub(crate) struct Encoding {
    pub(crate) solver: Solver,
    horizon: usize,
    /// Per node: `(cluster, selector)` for every legal cluster.
    cluster_lits: Vec<Vec<(ClusterId, Lit)>>,
    /// Per node: one-hot issue cycle over `0..horizon`.
    time_lits: Vec<Vec<Lit>>,
    /// Copy variables, keyed for deterministic decode order.
    copy_lits: BTreeMap<(NodeId, ClusterId), CopyLits>,
}

/// The flat time window `0..horizon(g, ii)` the encoding gives every
/// issue cycle (originals and copies): `ii` plus, per original edge,
/// `max(latency, producer latency) + 1` cycles.
///
/// Normal form: keep every node's kernel row and lower its stage to the
/// least solution `>= 0` of the dependence difference constraints
/// ([`least_stage_times`]). Rows are unchanged, so the normal form is
/// valid whenever the schedule is, and some node issues below `ii`. Every
/// other node issues at most `ii - 1` cycles after the earliest cycle its
/// binding predecessor allows, so a binding edge adds up to
/// `latency + ii - 1` cycles, and a copy adds a second such arc. The sum
/// above counts only `latency + 1` per edge, so this is a size, not a
/// bound: five chained single-cycle ops at II 5 in rows 0, 4, 3, 2, 1
/// need 17 cycles in normal form against a horizon of 13. UNSAT
/// therefore proves only that no schedule fits inside the window.
pub(crate) fn horizon(g: &Ddg, ii: u32) -> usize {
    let mut h = u64::from(ii);
    for (_, e) in g.edges() {
        h += u64::from(e.latency.max(g.op(e.src).kind.latency())) + 1;
    }
    h.max(1) as usize
}

/// Issue cycles of `wg`'s nodes (indexed by node) in the normal form of
/// [`horizon`]: each node keeps its kernel row under `sched` and takes
/// the least stage `>= 0` that satisfies every dependence.
///
/// `sched` must pass `validate_schedule` on `wg`: its cycles, shifted by
/// whole stages, are then a solution above the least one, which bounds
/// the raising loop. On an invalid schedule the loop may not terminate.
pub(crate) fn least_stage_times(wg: &Ddg, sched: &Schedule) -> Vec<i64> {
    let ii = i64::from(sched.ii());
    let mut t: Vec<i64> = wg
        .node_ids()
        .map(|n| {
            i64::from(
                sched
                    .kernel_row(n)
                    .expect("validated: every node is scheduled"),
            )
        })
        .collect();
    let mut raised = true;
    while raised {
        raised = false;
        for (_, e) in wg.edges() {
            let ready = t[e.src.index()] + i64::from(e.latency) - i64::from(e.distance) * ii;
            let dst = &mut t[e.dst.index()];
            if *dst < ready {
                *dst += (ready - *dst + ii - 1) / ii * ii;
                raised = true;
            }
        }
    }
    t
}

/// Whether the fabric can carry any copy at all. When it cannot, the
/// encoding simply omits copy variables: every value edge then forces
/// producer and consumer onto one cluster.
fn has_transport(ic: &Interconnect) -> bool {
    match ic {
        Interconnect::None => false,
        Interconnect::Bus {
            buses,
            read_ports,
            write_ports,
        } => *buses > 0 && *read_ports > 0 && *write_ports > 0,
        Interconnect::PointToPoint {
            links,
            read_ports,
            write_ports,
        } => !links.is_empty() && *read_ports > 0 && *write_ports > 0,
    }
}

/// Emit `t(dst) >= t(src) + shift` as one clause per destination cycle:
/// `guard... | !dst_time[t] | src_prefix[t - shift]`, clamping the prefix
/// index (below 0: the cycle is outright forbidden under the guard; at or
/// above `H-1`: the constraint is vacuous because the source always
/// issues somewhere in `0..H`).
fn add_precedence(s: &mut Solver, guard: &[Lit], dst_time: &[Lit], src_prefix: &[Lit], shift: i64) {
    let h = dst_time.len() as i64;
    let mut clause: Vec<Lit> = Vec::with_capacity(guard.len() + 2);
    for t in 0..h {
        let x = t - shift;
        if x >= h - 1 {
            continue;
        }
        clause.clear();
        clause.extend_from_slice(guard);
        clause.push(!dst_time[t as usize]);
        if x >= 0 {
            clause.push(src_prefix[x as usize]);
        }
        s.add_clause(&clause);
    }
}

/// Build the prefix ladder over a one-hot (or at-most-one) time vector.
/// Both directions are encoded: `time[t] -> prefix[t]`, `prefix[t-1] ->
/// prefix[t]` (monotone), and `prefix[t] -> time[t] | prefix[t-1]` — the
/// last is load-bearing because precedence clauses use prefix literals as
/// positive escapes, so a spuriously-true prefix would void them.
fn make_prefix(s: &mut Solver, times: &[Lit]) -> Vec<Lit> {
    let mut prefix: Vec<Lit> = Vec::with_capacity(times.len());
    for (t, &tl) in times.iter().enumerate() {
        let p = Lit::pos(s.new_var());
        s.add_clause(&[!tl, p]);
        if t > 0 {
            let prev = prefix[t - 1];
            s.add_clause(&[!prev, p]);
            s.add_clause(&[!p, tl, prev]);
        } else {
            s.add_clause(&[!p, tl]);
        }
        prefix.push(p);
    }
    prefix
}

/// Encode `(g, machine)` at a fixed `ii > 0` into CNF.
///
/// `g` must be a pure source graph: no pre-existing copy operations.
/// With `pins`, every primary variable (`C`, `T`, `E`, `Tc`) is asserted
/// to its pinned value as soon as it is made, so the solver drops each
/// later clause the pins satisfy; without, the search's formula is built.
pub(crate) fn encode(g: &Ddg, machine: &MachineSpec, ii: u32, pins: Option<&Pins>) -> Encoding {
    assert!(ii > 0, "II must be positive");
    let n = g.node_count();
    let h = horizon(g, ii);
    let rows = ii as usize;
    let ii_i64 = i64::from(ii);
    let mut s = Solver::new();

    // --- Placement and issue-cycle one-hots, with prefix ladders. ---
    let mut cluster_lits: Vec<Vec<(ClusterId, Lit)>> = Vec::with_capacity(n);
    let mut time_lits: Vec<Vec<Lit>> = Vec::with_capacity(n);
    let mut prefixes: Vec<Vec<Lit>> = Vec::with_capacity(n);
    for (i, op) in g.nodes() {
        assert!(
            !op.kind.is_copy(),
            "exact encoder takes the original graph, not a working graph with copies ({i})"
        );
        let legal = machine.executing_clusters(op.kind);
        let cl: Vec<(ClusterId, Lit)> = legal.iter().map(|&c| (c, Lit::pos(s.new_var()))).collect();
        let cvars: Vec<Lit> = cl.iter().map(|&(_, l)| l).collect();
        let pin = pins.map(|p| p.nodes[i.index()]);
        if let Some((c, _)) = pin {
            pin_one_hot(&mut s, &cvars, legal.iter().position(|&x| x == c));
        }
        add_exactly_one(&mut s, &cvars);
        let tl: Vec<Lit> = (0..h).map(|_| Lit::pos(s.new_var())).collect();
        if let Some((_, t)) = pin {
            pin_one_hot(&mut s, &tl, Some(t));
        }
        add_exactly_one(&mut s, &tl);
        let pf = make_prefix(&mut s, &tl);
        cluster_lits.push(cl);
        time_lits.push(tl);
        prefixes.push(pf);
    }

    // --- FU exclusivity per (cluster, row): dedicated pools with
    // general-purpose overflow selectors. ---
    let n_clusters = machine.cluster_count();
    let slot = |c: ClusterId, r: usize| c.index() * rows + r;
    let mut ded_claims: Vec<[Vec<Lit>; 3]> = (0..n_clusters * rows)
        .map(|_| [Vec::new(), Vec::new(), Vec::new()])
        .collect();
    let mut gp_claims: Vec<Vec<Lit>> = vec![Vec::new(); n_clusters * rows];
    for (i, op) in g.nodes() {
        let Some(class) = op.kind.fu_class() else {
            continue;
        };
        for &(c, cl) in &cluster_lits[i.index()] {
            let spec = machine.cluster(c);
            let n_ded = spec.dedicated(class);
            let n_gp = spec.general;
            for r in 0..rows {
                // x <- C[i][c] & T[i][t] for every t in this row.
                let x = Lit::pos(s.new_var());
                let mut t = r;
                while t < h {
                    s.add_clause(&[!cl, !time_lits[i.index()][t], x]);
                    t += rows;
                }
                match (n_ded > 0, n_gp > 0) {
                    (true, true) => {
                        let xd = Lit::pos(s.new_var());
                        let xg = Lit::pos(s.new_var());
                        s.add_clause(&[!x, xd, xg]);
                        ded_claims[slot(c, r)][class.index()].push(xd);
                        gp_claims[slot(c, r)].push(xg);
                    }
                    (true, false) => ded_claims[slot(c, r)][class.index()].push(x),
                    (false, true) => gp_claims[slot(c, r)].push(x),
                    (false, false) => unreachable!("cluster in executing_clusters has a unit"),
                }
            }
        }
    }
    for c in machine.cluster_ids() {
        let spec = machine.cluster(c);
        for r in 0..rows {
            for class in clasp_ddg::FuClass::ALL {
                add_at_most_k(
                    &mut s,
                    &ded_claims[slot(c, r)][class.index()],
                    spec.dedicated(class) as usize,
                );
            }
            add_at_most_k(&mut s, &gp_claims[slot(c, r)], spec.general as usize);
        }
    }

    // --- Copy variables: one per (value producer, destination cluster a
    // crossing consumer could live on). ---
    let transport = has_transport(machine.interconnect());
    let mut copy_lits: BTreeMap<(NodeId, ClusterId), CopyLits> = BTreeMap::new();
    let mut copy_prefix: HashMap<(NodeId, ClusterId), Vec<Lit>> = HashMap::new();
    if transport {
        for (p, op) in g.nodes() {
            let src_lat = i64::from(op.kind.latency());
            for d in copy_dests(g, machine, p) {
                let exist = Lit::pos(s.new_var());
                // With pins: the pinned copy's cycle, `None` for no copy.
                let pin = pins.map(|pins| pins.copies.get(&(p, d)).copied());
                if let Some(at) = pin {
                    s.add_clause(&[if at.is_some() { exist } else { !exist }]);
                }
                let times: Vec<Lit> = (0..h).map(|_| Lit::pos(s.new_var())).collect();
                if let Some(at) = pin {
                    pin_one_hot(&mut s, &times, at);
                }
                let mut onset: Vec<Lit> = vec![!exist];
                onset.extend(times.iter().copied());
                s.add_clause(&onset);
                add_at_most_k(&mut s, &times, 1);
                for &tl in &times {
                    s.add_clause(&[!tl, exist]);
                }
                // A copy into the producer's own cluster is meaningless.
                if let Some(&(_, cl)) = cluster_lits[p.index()].iter().find(|&&(c, _)| c == d) {
                    s.add_clause(&[!exist, !cl]);
                }
                // Feed: the copy reads the produced value.
                add_precedence(&mut s, &[], &times, &prefixes[p.index()], src_lat);
                let pf = make_prefix(&mut s, &times);
                copy_prefix.insert((p, d), pf);
                copy_lits.insert((p, d), CopyLits { exist, times });
            }
        }
    }

    // --- Dependence arcs. ---
    let copy_lat = i64::from(OpKind::Copy.latency());
    for (_, e) in g.edges() {
        let lat = i64::from(e.latency);
        let dist = i64::from(e.distance);
        let src_kind = g.op(e.src).kind;
        if e.src == e.dst || !src_kind.produces_value() {
            // Same node, or pure precedence: the edge is kept verbatim in
            // the working graph regardless of clusters.
            add_precedence(
                &mut s,
                &[],
                &time_lits[e.dst.index()],
                &prefixes[e.src.index()],
                lat - dist * ii_i64,
            );
            continue;
        }
        let src_lat = i64::from(src_kind.latency());
        let delivery_lat = copy_lat.max(lat - src_lat);
        for &(d, c_cd) in &cluster_lits[e.dst.index()] {
            let c_pd = cluster_lits[e.src.index()]
                .iter()
                .find(|&&(c, _)| c == d)
                .map(|&(_, l)| l);
            let cp = copy_lits.get(&(e.src, d));
            // Consumer on d needs the value there: producer co-resident
            // or a copy into d.
            let mut required: Vec<Lit> = vec![!c_cd];
            if let Some(l) = c_pd {
                required.push(l);
            }
            if let Some(cp) = cp {
                required.push(cp.exist);
            }
            s.add_clause(&required);
            // Delivery timing (when routed through the copy).
            if let Some(_cp) = cp {
                let mut guard: Vec<Lit> = vec![!c_cd];
                if let Some(l) = c_pd {
                    guard.push(l);
                }
                add_precedence(
                    &mut s,
                    &guard,
                    &time_lits[e.dst.index()],
                    &copy_prefix[&(e.src, d)],
                    delivery_lat - dist * ii_i64,
                );
            }
            // Direct timing (both endpoints on d).
            if let Some(l) = c_pd {
                add_precedence(
                    &mut s,
                    &[!l, !c_cd],
                    &time_lits[e.dst.index()],
                    &prefixes[e.src.index()],
                    lat - dist * ii_i64,
                );
            }
        }
    }

    // --- Transport resources per kernel row. ---
    if transport {
        let ic = machine.interconnect();
        let mut read_claims: Vec<Vec<Lit>> = vec![Vec::new(); n_clusters * rows];
        let mut write_claims: Vec<Vec<Lit>> = vec![Vec::new(); n_clusters * rows];
        match ic {
            Interconnect::Bus { buses, .. } => {
                let mut bus_claims: Vec<Vec<Lit>> = vec![Vec::new(); rows];
                // Same-cycle deliveries of one value merge into one
                // broadcast: B[p][t] holds when any copy of p issues at t
                // and claims one bus plus one read port on p's cluster.
                let mut producers: Vec<NodeId> = Vec::new();
                for &(p, _) in copy_lits.keys() {
                    if producers.last() != Some(&p) {
                        producers.push(p);
                    }
                }
                for p in producers {
                    let b: Vec<Lit> = (0..h).map(|_| Lit::pos(s.new_var())).collect();
                    for ((cp, _), lits) in copy_lits.range((p, ClusterId(0))..) {
                        if *cp != p {
                            break;
                        }
                        for (t, &tl) in lits.times.iter().enumerate() {
                            s.add_clause(&[!tl, b[t]]);
                        }
                    }
                    for (t, &bl) in b.iter().enumerate() {
                        bus_claims[t % rows].push(bl);
                    }
                    for &(a, cl) in &cluster_lits[p.index()] {
                        for (t, &bl) in b.iter().enumerate() {
                            let rp = Lit::pos(s.new_var());
                            s.add_clause(&[!cl, !bl, rp]);
                            read_claims[slot(a, t % rows)].push(rp);
                        }
                    }
                }
                for claim in &bus_claims {
                    add_at_most_k(&mut s, claim, *buses as usize);
                }
                for ((_, d), lits) in &copy_lits {
                    for (t, &tl) in lits.times.iter().enumerate() {
                        write_claims[slot(*d, t % rows)].push(tl);
                    }
                }
            }
            Interconnect::PointToPoint { links, .. } => {
                let mut link_claims: Vec<Vec<Lit>> = vec![Vec::new(); links.len() * rows];
                for ((p, d), lits) in &copy_lits {
                    for &(a, cl) in &cluster_lits[p.index()] {
                        if a == *d {
                            continue; // already excluded via !exist | !C[p][d]
                        }
                        match ic.link_between(a, *d) {
                            None => {
                                s.add_clause(&[!cl, !lits.exist]);
                            }
                            Some(l) => {
                                for (t, &tl) in lits.times.iter().enumerate() {
                                    let u = Lit::pos(s.new_var());
                                    s.add_clause(&[!cl, !tl, u]);
                                    read_claims[slot(a, t % rows)].push(u);
                                    link_claims[l.index() * rows + t % rows].push(u);
                                }
                            }
                        }
                    }
                    for (t, &tl) in lits.times.iter().enumerate() {
                        write_claims[slot(*d, t % rows)].push(tl);
                    }
                }
                for claim in &link_claims {
                    add_at_most_k(&mut s, claim, 1);
                }
            }
            Interconnect::None => unreachable!("has_transport is false for Interconnect::None"),
        }
        for c in machine.cluster_ids() {
            for r in 0..rows {
                add_at_most_k(&mut s, &read_claims[slot(c, r)], ic.read_ports() as usize);
                add_at_most_k(&mut s, &write_claims[slot(c, r)], ic.write_ports() as usize);
            }
        }
    }

    Encoding {
        solver: s,
        horizon: h,
        cluster_lits,
        time_lits,
        copy_lits,
    }
}

impl Encoding {
    /// Truth value of a stored (always-positive) literal under `model`.
    fn tv(model: &[bool], l: Lit) -> bool {
        model[l.var() as usize] != l.is_neg()
    }

    /// Lift a satisfying `model` into a validated `(Assignment,
    /// Schedule)` pair at `ii`. `ii_attempts` seeds the stats counter
    /// (how many IIs the caller tried, this one included).
    ///
    /// # Panics
    ///
    /// If the decoded placement fails the independent assignment or
    /// schedule validators — that is an encoder bug, not an input error.
    pub(crate) fn decode(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        ii: u32,
        model: &[bool],
        ii_attempts: u32,
    ) -> (Assignment, Schedule) {
        let cluster_of = |i: NodeId| -> ClusterId {
            self.cluster_lits[i.index()]
                .iter()
                .find(|&&(_, l)| Self::tv(model, l))
                .map(|&(c, _)| c)
                .expect("exactly-one cluster per node")
        };
        let time_of = |i: NodeId| -> i64 {
            self.time_lits[i.index()]
                .iter()
                .position(|&l| Self::tv(model, l))
                .expect("exactly-one issue cycle per node") as i64
        };

        // Copies actually demanded by a crossing value edge (the solver
        // may set spare `exist` vars true; those are dropped).
        let mut needed: BTreeMap<(NodeId, ClusterId), i64> = BTreeMap::new();
        for (eid, e) in g.edges() {
            if e.src == e.dst || !g.op(e.src).kind.produces_value() {
                continue;
            }
            let (cs, cd) = (cluster_of(e.src), cluster_of(e.dst));
            if cs == cd {
                continue;
            }
            let lits = self
                .copy_lits
                .get(&(e.src, cd))
                .unwrap_or_else(|| panic!("crossing edge {eid:?} has no copy var"));
            debug_assert!(Self::tv(model, lits.exist));
            let t = lits
                .times
                .iter()
                .position(|&l| Self::tv(model, l))
                .expect("existing copy has an issue cycle") as i64;
            needed.insert((e.src, cd), t);
        }

        // Working graph: originals verbatim, then copy nodes in
        // deterministic order. On bused fabrics same-(producer, cycle)
        // deliveries merge into one broadcast node.
        let broadcast = machine.interconnect().is_broadcast();
        let mut out = Ddg::new(g.name());
        let mut map = ClusterMap::new();
        let mut times: HashMap<NodeId, i64> = HashMap::new();
        for (i, op) in g.nodes() {
            out.add_op(op.clone());
            map.assign(i, cluster_of(i));
            times.insert(i, time_of(i));
        }

        // delivery[(p, d)] = the copy node that lands p's value on d.
        let mut delivery: HashMap<(NodeId, ClusterId), NodeId> = HashMap::new();
        let mut producers: Vec<NodeId> = Vec::new();
        for &(p, _) in needed.keys() {
            if producers.last() != Some(&p) {
                producers.push(p);
            }
        }
        for p in &producers {
            let p = *p;
            let home = cluster_of(p);
            let label = format!("cp:{}", g.op(p).label());
            let dests: Vec<(ClusterId, i64)> = needed
                .range((p, ClusterId(0))..)
                .take_while(|((q, _), _)| *q == p)
                .map(|(&(_, d), &t)| (d, t))
                .collect();
            if broadcast {
                let mut groups: BTreeMap<i64, Vec<ClusterId>> = BTreeMap::new();
                for (d, t) in dests {
                    groups.entry(t).or_default().push(d);
                }
                for (t, targets) in groups {
                    let id = out.add_op(Operation::named(OpKind::Copy, label.clone()));
                    map.assign(id, home);
                    map.set_copy_meta(
                        id,
                        CopyMeta {
                            src: home,
                            targets: targets.clone(),
                            link: None,
                        },
                    );
                    times.insert(id, t);
                    for d in targets {
                        delivery.insert((p, d), id);
                    }
                }
            } else {
                for (d, t) in dests {
                    let id = out.add_op(Operation::named(OpKind::Copy, label.clone()));
                    let link = machine
                        .interconnect()
                        .link_between(home, d)
                        .expect("encoding only routes copies over existing links");
                    map.assign(id, home);
                    map.set_copy_meta(
                        id,
                        CopyMeta {
                            src: home,
                            targets: vec![d],
                            link: Some(link),
                        },
                    );
                    times.insert(id, t);
                    delivery.insert((p, d), id);
                }
            }
        }

        // Feed edges (producer -> copy), then original edges with
        // crossing value edges rerouted through their delivery.
        let mut copy_nodes: Vec<(NodeId, NodeId)> = delivery
            .iter()
            .map(|(&(p, _), &id)| (id, p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        copy_nodes.sort();
        for (id, p) in copy_nodes {
            out.add_edge(DepEdge {
                src: p,
                dst: id,
                latency: g.op(p).kind.latency(),
                distance: 0,
            });
        }
        for (_, e) in g.edges() {
            let crossing = map.cluster_of(e.src) != map.cluster_of(e.dst);
            if crossing && e.src != e.dst && g.op(e.src).kind.produces_value() {
                let dst_c = map.cluster_of(e.dst).expect("assigned above");
                let src_lat = g.op(e.src).kind.latency();
                out.add_edge(DepEdge {
                    src: delivery[&(e.src, dst_c)],
                    dst: e.dst,
                    latency: OpKind::Copy
                        .latency()
                        .max(e.latency.saturating_sub(src_lat)),
                    distance: e.distance,
                });
            } else {
                out.add_edge(*e);
            }
        }

        let copies = map.copy_count();
        let assignment = Assignment {
            graph: out,
            map,
            ii,
            stats: AssignStats {
                ii_attempts,
                removals: 0,
                forced: 0,
                copies,
            },
        };
        let schedule = Schedule::new(ii, times);
        if let Err(e) = clasp_core::validate_assignment(g, machine, &assignment) {
            panic!("exact backend decoded an invalid assignment at II={ii}: {e}");
        }
        if let Err(e) = validate_schedule(&assignment.graph, machine, &assignment.map, &schedule) {
            panic!("exact backend decoded an invalid schedule at II={ii}: {e}");
        }
        (assignment, schedule)
    }

    /// Number of CNF variables (diagnostics).
    pub(crate) fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// The flat time horizon used by the encoding (diagnostics).
    pub(crate) fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Outcome;
    use clasp_machine::presets;

    /// The lift formula of `g` at `ii` with original node `i` pinned to
    /// cluster 0 at `cycles[i]`, solved.
    fn solve_pinned(g: &Ddg, m: &MachineSpec, ii: u32, cycles: &[usize]) -> Outcome {
        let pins = Pins {
            nodes: cycles.iter().map(|&t| (ClusterId(0), t)).collect(),
            copies: BTreeMap::new(),
        };
        encode(g, m, ii, Some(&pins)).solver.solve(u64::MAX)
    }

    /// Pins are asserted before the clauses they could break, and every
    /// clause they satisfy is dropped as it is added; a clause they
    /// violate must still refute the formula.
    #[test]
    fn pins_that_break_the_encoding_are_unsat() {
        // Two chained adds on a one-wide machine at II 2: cycles 0 and 2
        // share kernel row 0.
        let mut g = Ddg::new("one-row");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        let one_wide = presets::unified_gp(1);
        assert!(matches!(
            solve_pinned(&g, &one_wide, 2, &[0, 1]),
            Outcome::Sat(_)
        ));
        assert_eq!(solve_pinned(&g, &one_wide, 2, &[0, 2]), Outcome::Unsat);
        // A load (latency 2) feeding an add issued one cycle after it.
        let mut g = Ddg::new("early");
        let ld = g.add(OpKind::Load);
        let add = g.add(OpKind::IntAlu);
        g.add_dep(ld, add);
        let m = presets::unified_gp(2);
        assert!(matches!(solve_pinned(&g, &m, 1, &[0, 2]), Outcome::Sat(_)));
        assert_eq!(solve_pinned(&g, &m, 1, &[0, 1]), Outcome::Unsat);
    }
}
