//! The cluster assignment algorithm (paper §4).
//!
//! Flow per initiation interval (Fig. 5): walk the nodes in priority order
//! (SCC sets by decreasing RecMII, swing-ordered within each set, §4.1);
//! tentatively place each node on every feasible cluster and keep the best
//! by the selection cascade of Fig. 10 (§4.2); on a node with no feasible
//! cluster, either fail the II (non-iterative) or force it onto the
//! cluster chosen by Fig. 11, removing the conflicting nodes (§4.3.1),
//! with the anti-repetition rule A (§4.3.2) and a finite budget keeping
//! the process out of cycles. A failed II attempt retries at II + 1 over
//! the same [`Assigner`] workspace: the working state is reset in place
//! (allocation-free once warmed) and tentative placements are journaled
//! and rolled back instead of cloned, while making exactly the decisions
//! a from-scratch run would make.

use crate::config::AssignConfig;
use crate::result::{materialize_into, AssignStats, Assignment};
use crate::state::{edge_needs_copy, AssignState};
use crate::trace::{AssignTrace, Sink, TraceEvent};
use clasp_ddg::{
    find_sccs, max_ii_bound, rec_mii_with, swing_order_with, Ddg, LoopAnalysis, NodeId, SccInfo,
};
use clasp_machine::{ClusterId, MachineSpec};
use clasp_mrt::ClusterMap;
use std::fmt;

/// Why one assignment attempt at a fixed II gave up — the assigner-side
/// mirror of `clasp-sched`'s `SchedFailure`, carrying the blocking node
/// so the trace stream and the pipeline report tell one story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignFailure {
    /// The placement budget ran out at `ii` while `node` was the next
    /// operation to place.
    BudgetExhausted {
        /// The II being attempted.
        ii: u32,
        /// The operation the assigner was about to (re)place.
        node: NodeId,
    },
    /// `node` had no feasible cluster and the non-iterative variant does
    /// not force placements.
    NoFeasibleCluster {
        /// The II being attempted.
        ii: u32,
        /// The operation with no feasible cluster.
        node: NodeId,
    },
    /// Forced placement (Fig. 11) could not make room for `node`.
    ForceFailed {
        /// The II being attempted.
        ii: u32,
        /// The operation that could not be forced.
        node: NodeId,
    },
}

impl AssignFailure {
    /// The operation the assigner was blocked on.
    pub fn blocking_node(&self) -> NodeId {
        match self {
            AssignFailure::BudgetExhausted { node, .. }
            | AssignFailure::NoFeasibleCluster { node, .. }
            | AssignFailure::ForceFailed { node, .. } => *node,
        }
    }
}

impl fmt::Display for AssignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignFailure::BudgetExhausted { ii, node } => {
                write!(
                    f,
                    "assignment budget exhausted at II = {ii} (blocked on {node})"
                )
            }
            AssignFailure::NoFeasibleCluster { ii, node } => {
                write!(f, "no feasible cluster for {node} at II = {ii}")
            }
            AssignFailure::ForceFailed { ii, node } => {
                write!(f, "forced placement of {node} failed at II = {ii}")
            }
        }
    }
}

/// Errors from [`assign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// The input graph is malformed (dangling edge or zero-distance cycle).
    BadGraph(clasp_ddg::GraphError),
    /// Some operation kind has no function unit anywhere on the machine.
    InfeasibleOp(NodeId),
    /// No valid assignment was found up to the II cap.
    IiExhausted {
        /// Largest II attempted.
        max_ii: u32,
        /// Why the final attempt failed (`None` when no attempt ran,
        /// e.g. an empty II range).
        last: Option<AssignFailure>,
    },
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::BadGraph(e) => write!(f, "invalid dependence graph: {e}"),
            AssignError::InfeasibleOp(n) => {
                write!(f, "operation {n} cannot execute on any cluster")
            }
            AssignError::IiExhausted { max_ii, last } => {
                write!(f, "no assignment found up to II = {max_ii}")?;
                if let Some(last) = last {
                    write!(f, " ({last})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AssignError {}

/// One tentative placement: the cluster plus the metrics the selection
/// cascade reads. The placement itself is rolled back after the metrics
/// are taken and deterministically replayed for the winning cluster, so
/// no state snapshot is carried.
#[derive(Debug, Clone, Copy)]
struct Tentative {
    cluster: ClusterId,
    new_copies: u32,
    pcr_ok: bool,
    free_fu: u32,
}

/// Rule A bookkeeping (§4.3.2) as dense per-(node, cluster) bits instead
/// of a `HashMap<NodeId, HashSet<ClusterId>>` rebuilt every attempt.
/// `visited` remembers the clusters a node has been assigned to; once a
/// node has visited every cluster that can execute it, its row is
/// cleared. `recorded` stays set so the cascade applies rule A exactly
/// when the map representation held an entry (even a cleared one).
#[derive(Debug, Clone)]
struct History {
    clusters: usize,
    visited: Vec<bool>,
    count: Vec<u32>,
    recorded: Vec<bool>,
}

impl History {
    fn new(nodes: usize, clusters: usize) -> Self {
        History {
            clusters,
            visited: vec![false; nodes * clusters],
            count: vec![0; nodes],
            recorded: vec![false; nodes],
        }
    }

    fn reset(&mut self) {
        self.visited.iter_mut().for_each(|v| *v = false);
        self.count.iter_mut().for_each(|c| *c = 0);
        self.recorded.iter_mut().for_each(|r| *r = false);
    }

    fn recorded(&self, n: NodeId) -> bool {
        self.recorded[n.index()]
    }

    fn visited(&self, n: NodeId, c: ClusterId) -> bool {
        self.visited[n.index() * self.clusters + c.index()]
    }

    /// Remember the cluster; once `n` has visited every executing
    /// cluster, clear its row.
    fn record(&mut self, n: NodeId, cluster: ClusterId, executing: &[ClusterId]) {
        self.recorded[n.index()] = true;
        let i = n.index() * self.clusters + cluster.index();
        if !self.visited[i] {
            self.visited[i] = true;
            self.count[n.index()] += 1;
        }
        if self.count[n.index()] as usize == executing.len() {
            for &c in executing {
                self.visited[n.index() * self.clusters + c.index()] = false;
            }
            self.count[n.index()] = 0;
        }
    }
}

/// Buffers the attempt loop refills for every node it places, so placing
/// a node never allocates once the workspace is warm.
#[derive(Debug, Default)]
struct Scratch {
    /// Clusters that can execute the node under placement.
    executing: Vec<ClusterId>,
    /// The feasible tentatives of the node under placement.
    cands: Vec<Tentative>,
    /// Fig. 11's candidate clusters for a forced placement.
    forced: Vec<ClusterId>,
    /// Conflict count of each cluster in `forced`.
    conflicts: Vec<u32>,
}

/// The paper's `Select(LIST, criteria)` (Fig. 9): filter, but keep the old
/// list when the filter would empty it.
fn select<T, F: Fn(&T) -> bool>(list: &mut Vec<T>, keep: F) {
    if list.iter().any(&keep) {
        list.retain(|t| keep(t));
    }
}

/// Assign every operation of `g` to a cluster of `machine`, inserting the
/// required copy operations; the result's working graph and cluster map
/// feed any traditional modulo scheduler.
///
/// # Errors
///
/// See [`AssignError`].
///
/// # Examples
///
/// ```
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
/// use clasp_core::{assign, AssignConfig};
///
/// let mut g = Ddg::new("pair");
/// let a = g.add(OpKind::Load);
/// let b = g.add(OpKind::FpAdd);
/// g.add_dep(a, b);
/// let m = presets::two_cluster_gp(2, 1);
/// let asg = assign(&g, &m, AssignConfig::default())?;
/// assert!(asg.map.cluster_of(a).is_some());
/// # Ok::<(), clasp_core::AssignError>(())
/// ```
pub fn assign(
    g: &Ddg,
    machine: &MachineSpec,
    config: AssignConfig,
) -> Result<Assignment, AssignError> {
    assign_from(g, machine, config, 1)
}

/// As [`assign`], but never below `min_ii` — the re-entry point of Fig. 5
/// when the scheduling phase fails at the assignment's II and the whole
/// process restarts with a larger one.
///
/// # Errors
///
/// See [`AssignError`].
pub fn assign_from(
    g: &Ddg,
    machine: &MachineSpec,
    config: AssignConfig,
    min_ii: u32,
) -> Result<Assignment, AssignError> {
    assign_impl(g, machine, config, min_ii, &mut Sink(None))
}

/// As [`assign_from`], additionally returning the full decision log —
/// every cascade filter, forced placement, and removal — for explaining
/// the assignment (see the `explain` example and the CLI's `--explain`).
pub fn assign_traced(
    g: &Ddg,
    machine: &MachineSpec,
    config: AssignConfig,
    min_ii: u32,
) -> (Result<Assignment, AssignError>, AssignTrace) {
    let mut trace = AssignTrace::default();
    let result = assign_impl(g, machine, config, min_ii, &mut Sink(Some(&mut trace)));
    (result, trace)
}

fn assign_impl(
    g: &Ddg,
    machine: &MachineSpec,
    config: AssignConfig,
    min_ii: u32,
    sink: &mut Sink<'_>,
) -> Result<Assignment, AssignError> {
    Assigner::new(g, machine, config)?.assign_min_with(min_ii, sink)
}

/// A reusable assignment workspace for one loop.
///
/// Construction validates the graph and computes the II-independent
/// priority order once. Each [`Assigner::assign_min`] call then runs the
/// Fig. 5 escalation from `min_ii` upward on a *carried* working state:
/// the counting MRT, cluster map, copy manager, and rule-A history are
/// reset in place (allocation-free once warmed) instead of rebuilt, and
/// tentative placements are journaled and rolled back instead of cloning
/// the whole state. The pipeline keeps one `Assigner` per loop across
/// scheduler-driven II escalations and returns discarded assignments via
/// [`Assigner::recycle`] so materialization reuses their buffers.
///
/// Decisions are bit-identical to the from-scratch path: every call
/// replays the same cascade over state that `reset` restores exactly.
pub struct Assigner<'g> {
    g: &'g Ddg,
    machine: &'g MachineSpec,
    config: AssignConfig,
    sccs: SccInfo,
    order: Vec<NodeId>,
    /// MII of the equally wide unified machine (II-independent).
    base_mii: u32,
    st: AssignState<'g>,
    history: History,
    scratch: Scratch,
    /// Recycled materialization buffers (see [`Assigner::recycle`]).
    arena_graph: Ddg,
    arena_map: ClusterMap,
}

impl<'g> Assigner<'g> {
    /// Build a workspace for `g` on `machine`, computing SCCs and the
    /// priority order here.
    ///
    /// # Errors
    ///
    /// [`AssignError::BadGraph`] / [`AssignError::InfeasibleOp`] — the
    /// same validation [`assign`] performs.
    pub fn new(
        g: &'g Ddg,
        machine: &'g MachineSpec,
        config: AssignConfig,
    ) -> Result<Self, AssignError> {
        Self::build(g, machine, config, None)
    }

    /// As [`Assigner::new`], reusing a precomputed [`LoopAnalysis`] of
    /// `g` instead of re-running SCC detection and the swing ordering.
    /// The pipeline computes the analysis once per source loop and
    /// carries one workspace across every II escalation.
    ///
    /// `analysis` must have been computed from exactly this `g` (it is a
    /// pure function of the graph; any mutation invalidates it). With a
    /// non-default [`AssignConfig::ordering`] the cached order does not
    /// apply and is recomputed, but the SCC decomposition is still
    /// reused.
    ///
    /// # Errors
    ///
    /// See [`Assigner::new`].
    pub fn with_analysis(
        g: &'g Ddg,
        machine: &'g MachineSpec,
        config: AssignConfig,
        analysis: &LoopAnalysis,
    ) -> Result<Self, AssignError> {
        Self::build(g, machine, config, Some(analysis))
    }

    fn build(
        g: &'g Ddg,
        machine: &'g MachineSpec,
        config: AssignConfig,
        analysis: Option<&LoopAnalysis>,
    ) -> Result<Self, AssignError> {
        g.validate().map_err(AssignError::BadGraph)?;
        for (n, op) in g.nodes() {
            if !machine
                .cluster_ids()
                .any(|c| machine.cluster(c).can_execute(op.kind))
            {
                return Err(AssignError::InfeasibleOp(n));
            }
        }
        // SCCs and the priority order are II-independent: take them from
        // the caller's LoopAnalysis when one is supplied, otherwise
        // compute here. (A cached analysis only carries the default
        // SccSwing order; other orderings recompute the order but still
        // reuse the SCCs.)
        let (sccs, order) = match (analysis, config.ordering) {
            (Some(la), crate::config::Ordering::SccSwing) => {
                (la.sccs().clone(), la.order().to_vec())
            }
            (maybe_la, ordering) => {
                let sccs = match maybe_la {
                    Some(la) => la.sccs().clone(),
                    None => find_sccs(g),
                };
                let order = match ordering {
                    crate::config::Ordering::SccSwing => swing_order_with(g, &sccs),
                    crate::config::Ordering::SwingOnly => clasp_ddg::swing_order_flat(g),
                    crate::config::Ordering::BottomUp => clasp_ddg::bottom_up_order(g),
                };
                (sccs, order)
            }
        };
        // The equally wide unified machine's MII without building it: its
        // RecMII is the loop's own, and ResMII reads only machine-wide
        // unit totals, which merging the clusters keeps.
        let rec_mii = match analysis {
            Some(la) => la.rec_mii(),
            None => rec_mii_with(g, &sccs),
        };
        let base_mii = rec_mii.max(machine.res_mii(g)).max(1);
        Ok(Assigner {
            g,
            machine,
            config,
            sccs,
            order,
            base_mii,
            st: AssignState::new(g, machine, 1),
            history: History::new(g.node_count(), machine.cluster_count()),
            scratch: Scratch::default(),
            arena_graph: Ddg::default(),
            arena_map: ClusterMap::new(),
        })
    }

    /// Run the Fig. 5 II escalation starting no lower than `min_ii`.
    ///
    /// # Errors
    ///
    /// See [`AssignError`].
    pub fn assign_min(&mut self, min_ii: u32) -> Result<Assignment, AssignError> {
        self.assign_min_with(min_ii, &mut Sink(None))
    }

    /// As [`Assigner::assign_min`], additionally appending the decision
    /// log to `trace`.
    ///
    /// # Errors
    ///
    /// See [`AssignError`].
    pub fn assign_min_traced(
        &mut self,
        min_ii: u32,
        trace: &mut AssignTrace,
    ) -> Result<Assignment, AssignError> {
        self.assign_min_with(min_ii, &mut Sink(Some(trace)))
    }

    /// Return a no-longer-needed assignment's graph and map buffers to
    /// the workspace; the next successful [`Assigner::assign_min`]
    /// materializes into them instead of allocating fresh ones. The
    /// pipeline calls this with the assignment whose schedule failed.
    pub fn recycle(&mut self, assignment: Assignment) {
        self.arena_graph = assignment.graph;
        self.arena_map = assignment.map;
    }

    fn assign_min_with(
        &mut self,
        min_ii: u32,
        sink: &mut Sink<'_>,
    ) -> Result<Assignment, AssignError> {
        // Fig. 5: start from the MII of the equally wide unified machine.
        let mii = self.base_mii.max(min_ii);
        let max_ii = self
            .config
            .max_ii
            .unwrap_or_else(|| max_ii_bound(self.g, mii));

        let mut stats = AssignStats::default();
        let mut last = None;
        for ii in mii..=max_ii {
            stats.ii_attempts += 1;
            sink.log(|| TraceEvent::IiAttempt { ii });
            self.st.reset(ii);
            self.history.reset();
            match attempt(
                &mut self.st,
                &mut self.history,
                &mut self.scratch,
                self.machine,
                &self.sccs,
                &self.order,
                ii,
                self.config,
                &mut stats,
                sink,
            ) {
                Ok(()) => {
                    stats.copies = self.st.cpm.live_count();
                    let graph = std::mem::take(&mut self.arena_graph);
                    let map = std::mem::take(&mut self.arena_map);
                    return Ok(materialize_into(self.g, &self.st, ii, stats, graph, map));
                }
                Err(reason) => {
                    sink.log(|| TraceEvent::AttemptFailed { ii, reason });
                    last = Some(reason);
                }
            }
        }
        Err(AssignError::IiExhausted { max_ii, last })
    }
}

/// One assignment attempt at a fixed II over a pre-reset working state
/// (`st.reset(ii)` / `history.reset()` are the caller's responsibility).
/// On success `st` holds the completed assignment with an empty journal;
/// on failure its contents are garbage for the caller to reset again.
#[allow(clippy::too_many_arguments)]
fn attempt(
    st: &mut AssignState<'_>,
    history: &mut History,
    scratch: &mut Scratch,
    machine: &MachineSpec,
    sccs: &SccInfo,
    order: &[NodeId],
    ii: u32,
    config: AssignConfig,
    stats: &mut AssignStats,
    sink: &mut Sink<'_>,
) -> Result<(), AssignFailure> {
    let g = st.graph();
    let n = g.node_count();
    if n == 0 {
        return Ok(());
    }
    let mut budget: u64 = u64::from(config.budget_factor).max(1) * n as u64;

    // Priority cursor: every order position below it is assigned, so the
    // next node to place is found by advancing past assigned entries —
    // O(1) amortized instead of a scan from the front. Forced placements
    // can unassign arbitrary nodes, so they pull the cursor back to 0
    // (they are rare; the feasible path never rewinds).
    let mut cursor = 0usize;
    loop {
        while cursor < n && st.map.is_assigned(order[cursor]) {
            cursor += 1;
        }
        if cursor == n {
            st.commit();
            return Ok(()); // all assigned
        }
        let node = order[cursor];
        if budget == 0 {
            return Err(AssignFailure::BudgetExhausted { ii, node });
        }
        budget -= 1;

        let kind = g.op(node).kind;
        let Scratch {
            executing, cands, ..
        } = &mut *scratch;
        executing.clear();
        executing.extend(
            machine
                .cluster_ids()
                .filter(|&c| machine.cluster(c).can_execute(kind)),
        );

        // Tentatively place on every cluster (Fig. 10 line 1: feasible =
        // the operation plus all required copies fit), taking the
        // cascade's metrics and rolling each placement back.
        cands.clear();
        for &c in executing.iter() {
            let mark = st.mark();
            if let Ok(new_copies) = st.try_assign(node, c) {
                cands.push(Tentative {
                    cluster: c,
                    new_copies,
                    // Only the heuristic cascade's line 6 reads it.
                    pcr_ok: config.heuristic && config.pcr_prediction && st.pcr_within_mrc(c),
                    free_fu: st.mrt.free_fu_slots(c),
                });
            }
            // A failed try_assign also leaves partial reservations to
            // unwind, so roll back on both paths.
            st.rollback_to(mark);
        }

        if !cands.is_empty() {
            sink.log(|| TraceEvent::Feasible {
                node,
                clusters: cands.iter().map(|t| t.cluster).collect(),
            });
            let chosen = choose(node, cands, st, sccs, config, history, sink);
            // Replay the winning tentative for real: try_assign is
            // deterministic, so this reproduces the probed placement.
            st.try_assign(node, chosen.cluster)
                .expect("replay of feasible tentative succeeds");
            st.commit();
            sink.log(|| TraceEvent::Assigned {
                node,
                cluster: chosen.cluster,
                new_copies: chosen.new_copies,
            });
            history.record(node, chosen.cluster, executing);
            continue;
        }

        // No feasible cluster.
        if !config.iterative {
            return Err(AssignFailure::NoFeasibleCluster { ii, node });
        }
        stats.forced += 1;
        let c = choose_forced_cluster(node, st, history, scratch)
            .ok_or(AssignFailure::ForceFailed { ii, node })?;
        sink.log(|| TraceEvent::Forced { node, cluster: c });
        if !force_assign(st, node, c, stats, sink) {
            return Err(AssignFailure::ForceFailed { ii, node });
        }
        st.commit();
        history.record(node, c, &scratch.executing);
        cursor = 0;
    }
}

/// The selection cascade of Fig. 10 (plus rule A) over feasible
/// tentatives. `cands` is in cluster-index order, so "first in LIST" is
/// the front element after filtering.
fn choose(
    node: NodeId,
    cands: &mut Vec<Tentative>,
    before: &AssignState<'_>,
    sccs: &SccInfo,
    config: AssignConfig,
    history: &History,
    sink: &mut Sink<'_>,
) -> Tentative {
    let log_stage = |rule: &'static str, cands: &[Tentative], sink: &mut Sink<'_>| {
        sink.log(|| TraceEvent::Select {
            node,
            rule,
            remaining: cands.iter().map(|t| t.cluster).collect(),
        });
    };
    // (A) avoid clusters this node was previously assigned to.
    if config.iterative && history.recorded(node) {
        select(cands, |t| !history.visited(node, t.cluster));
        log_stage("rule A (anti-repetition)", cands, sink);
    }
    if config.heuristic {
        // Line 4: keep SCCs together.
        if sccs.in_recurrence(node) {
            let members = &sccs.sccs[sccs.component(node)].nodes;
            let any_placed = members
                .iter()
                .any(|&m| m != node && before.cluster_of(m).is_some());
            if any_placed {
                select(cands, |t| {
                    members
                        .iter()
                        .any(|&m| m != node && before.cluster_of(m) == Some(t.cluster))
                });
                log_stage("SCC together (line 4)", cands, sink);
            }
        }
        // Line 6: predicted copy requests within reservable room.
        if config.pcr_prediction {
            select(cands, |t| t.pcr_ok);
            log_stage("PCR <= MRC (line 6)", cands, sink);
        }
        // Line 7: fewest required copies generated.
        if let Some(min_copies) = cands.iter().map(|t| t.new_copies).min() {
            select(cands, |t| t.new_copies == min_copies);
            log_stage("fewest copies (line 7)", cands, sink);
        }
        // Line 8: most free resources.
        if let Some(max_free) = cands.iter().map(|t| t.free_fu).max() {
            select(cands, |t| t.free_fu == max_free);
            log_stage("most free resources (line 8)", cands, sink);
        }
    }
    *cands.first().expect("cands non-empty")
}

/// Fig. 11: choose the cluster to force `node` onto when nothing is
/// feasible (`scratch.executing` holds the clusters that can execute it).
/// Returns `None` only if the node can execute nowhere (caught earlier,
/// defensive here). Takes `st` mutably for the journaled conflict probes;
/// the state is left exactly as found.
fn choose_forced_cluster(
    node: NodeId,
    st: &mut AssignState<'_>,
    history: &History,
    scratch: &mut Scratch,
) -> Option<ClusterId> {
    let Scratch {
        executing,
        forced: list,
        conflicts,
        ..
    } = scratch;
    list.clear();
    list.extend_from_slice(executing);
    if list.is_empty() {
        return None;
    }
    // (A) anti-repetition.
    if history.recorded(node) {
        select(list, |&c| !history.visited(node, c));
    }
    // Line 3: clusters where the operation itself fits.
    let kind = st.graph().op(node).kind;
    select(list, |&c| st.mrt.can_reserve_op(c, kind));
    // Line 4: minimize conflicting predecessors/successors.
    conflicts.clear();
    conflicts.extend(list.iter().map(|&c| conflict_count(st, node, c)));
    if let Some(&min) = conflicts.iter().min() {
        let mut k = conflicts.iter();
        list.retain(|_| k.next() == Some(&min));
    }
    list.first().copied()
}

/// How many already-assigned value-carrying neighbours of `node` would
/// need removal if `node` were forced onto `c`: those whose required copy
/// cannot be reserved. The probe reserves copies sequentially on the real
/// state (matching the cumulative-pressure semantics of the old
/// scratch-clone evaluation) and rolls everything back before returning.
fn conflict_count(st: &mut AssignState<'_>, node: NodeId, c: ClusterId) -> u32 {
    let g = st.graph();
    let mark = st.mark();
    let mut conflicts = 0u32;
    for (eid, e) in g.pred_edges(node) {
        if !edge_needs_copy(g, eid) {
            continue;
        }
        if let Some(home) = st.cluster_of(e.src) {
            if home != c && st.cpm.ensure_value_at(&mut st.mrt, e.src, home, c).is_err() {
                conflicts += 1;
            }
        }
    }
    for (eid, e) in g.succ_edges(node) {
        if !edge_needs_copy(g, eid) {
            continue;
        }
        if let Some(tc) = st.cluster_of(e.dst) {
            if tc != c && st.cpm.ensure_value_at(&mut st.mrt, node, c, tc).is_err() {
                conflicts += 1;
            }
        }
    }
    st.rollback_to(mark);
    conflicts
}

/// §4.3.1: force `node` onto `c`, removing whatever conflicts — first
/// nodes occupying the FU capacity `node` needs, then neighbours whose
/// required copies do not fit. Returns false if the cluster structurally
/// cannot host the node.
fn force_assign(
    st: &mut AssignState<'_>,
    node: NodeId,
    c: ClusterId,
    stats: &mut AssignStats,
    sink: &mut Sink<'_>,
) -> bool {
    let g = st.graph();
    let kind = g.op(node).kind;
    if !st.machine().cluster(c).can_execute(kind) {
        return false;
    }
    // Make room for the operation itself: evict the most recently
    // assigned occupants until it fits.
    while !st.mrt.can_reserve_op(c, kind) {
        let Some(victim) = st.most_recent_on(c) else {
            return false; // empty cluster yet no room: capacity is zero
        };
        sink.log(|| TraceEvent::Removed {
            node: victim,
            cluster: c,
        });
        st.unassign(victim);
        stats.removals += 1;
    }
    // Place, removing copy-conflicting neighbours until it sticks.
    loop {
        let mark = st.mark();
        match st.try_assign(node, c) {
            Ok(_) => return true,
            Err(_) => {
                st.rollback_to(mark);
                // Remove the most recently assigned crossing neighbour
                // (the first one met, should two ever share a sequence).
                let mut newest: Option<NodeId> = None;
                for (eid, e) in g.pred_edges(node).chain(g.succ_edges(node)) {
                    if !edge_needs_copy(g, eid) {
                        continue;
                    }
                    let other = if e.src == node { e.dst } else { e.src };
                    if st.cluster_of(other).is_some_and(|cl| cl != c)
                        && newest.is_none_or(|v| st.assign_seq(other) > st.assign_seq(v))
                    {
                        newest = Some(other);
                    }
                }
                let Some(victim) = newest else {
                    // No crossing neighbour left, yet placement fails:
                    // shouldn't happen (op room was made) — bail out.
                    return false;
                };
                sink.log(|| TraceEvent::Removed {
                    node: victim,
                    cluster: st.cluster_of(victim).expect("assigned"),
                });
                st.unassign(victim);
                stats.removals += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::result::validate_assignment;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;
    use std::collections::HashSet;

    fn fig6() -> Ddg {
        let mut g = Ddg::new("fig6");
        let a = g.add_named(OpKind::IntAlu, "A");
        let b = g.add_named(OpKind::IntAlu, "B");
        let c = g.add_named(OpKind::Load, "C");
        let d = g.add_named(OpKind::IntAlu, "D");
        let e = g.add_named(OpKind::IntAlu, "E");
        let f = g.add_named(OpKind::IntAlu, "F");
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep(c, d);
        g.add_dep(d, e);
        g.add_dep(e, f);
        g.add_dep_carried(d, b, 1);
        g
    }

    #[test]
    fn figure6_keeps_scc_together() {
        let g = fig6();
        let m = presets::two_cluster_gp(2, 1);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        validate_assignment(&g, &m, &asg).unwrap();
        // B (1), C (2), D (3) share a cluster.
        let cb = asg.map.cluster_of(NodeId(1)).unwrap();
        assert_eq!(asg.map.cluster_of(NodeId(2)), Some(cb));
        assert_eq!(asg.map.cluster_of(NodeId(3)), Some(cb));
        // No copy lands inside the critical cycle: RecMII of the working
        // graph must still be 4.
        assert_eq!(clasp_ddg::rec_mii(&asg.graph), 4);
        assert_eq!(asg.ii, 4);
    }

    #[test]
    fn single_cluster_machine_needs_no_copies() {
        let g = fig6();
        let m = presets::unified_gp(8);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        assert_eq!(asg.stats.copies, 0);
        assert_eq!(asg.graph.node_count(), g.node_count());
        validate_assignment(&g, &m, &asg).unwrap();
    }

    #[test]
    fn all_variants_produce_valid_assignments() {
        let g = fig6();
        let m = presets::two_cluster_gp(2, 1);
        for v in Variant::ALL {
            let asg = assign(&g, &m, AssignConfig::from(v)).unwrap_or_else(|e| panic!("{v}: {e}"));
            validate_assignment(&g, &m, &asg).unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn wide_independent_loop_spreads_over_clusters() {
        // 16 independent ops on a 4x4 machine: II 1 requires all four
        // clusters to be used.
        let mut g = Ddg::new("wide");
        for _ in 0..16 {
            g.add(OpKind::IntAlu);
        }
        let m = presets::four_cluster_gp(4, 2);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        validate_assignment(&g, &m, &asg).unwrap();
        assert_eq!(asg.ii, 1);
        let used: HashSet<ClusterId> = asg.map.iter().map(|(_, c)| c).collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn grid_machine_assigns_with_routing() {
        let mut g = Ddg::new("spread");
        // A producer fanning out to many consumers forces communication.
        let p = g.add(OpKind::Load);
        let mut consumers = Vec::new();
        for _ in 0..6 {
            let c = g.add(OpKind::FpAdd);
            g.add_dep(p, c);
            consumers.push(c);
        }
        for (i, &c) in consumers.iter().enumerate() {
            let s = g.add(OpKind::Store);
            g.add_dep(c, s);
            let _ = i;
        }
        let m = presets::four_cluster_grid(2);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        validate_assignment(&g, &m, &asg).unwrap();
    }

    #[test]
    fn infeasible_op_reported() {
        let mut g = Ddg::new("fp");
        g.add(OpKind::FpSqrt);
        let m = clasp_machine::MachineSpec::new(
            "nofp",
            vec![clasp_machine::ClusterSpec::specialized(1, 2, 0)],
            clasp_machine::Interconnect::None,
        );
        assert!(matches!(
            assign(&g, &m, AssignConfig::default()),
            Err(AssignError::InfeasibleOp(_))
        ));
    }

    #[test]
    fn bad_graph_reported() {
        let mut g = Ddg::new("cyc");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep(b, a); // zero-distance cycle
        let m = presets::two_cluster_gp(2, 1);
        assert!(matches!(
            assign(&g, &m, AssignConfig::default()),
            Err(AssignError::BadGraph(_))
        ));
    }

    #[test]
    fn empty_graph_trivially_assigns() {
        let g = Ddg::new("empty");
        let m = presets::two_cluster_gp(2, 1);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        assert_eq!(asg.graph.node_count(), 0);
        assert_eq!(asg.ii, 1);
    }

    #[test]
    fn fs_machine_places_classes_correctly() {
        let mut g = Ddg::new("fsload");
        // 4 loads: two FS clusters have 1 memory unit each -> II >= 2.
        let mut prev = None;
        for _ in 0..4 {
            let l = g.add(OpKind::Load);
            if let Some(p) = prev {
                let s = g.add(OpKind::FpAdd);
                g.add_dep(p, s);
            }
            prev = Some(l);
        }
        let m = presets::two_cluster_fs(2, 1);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        validate_assignment(&g, &m, &asg).unwrap();
        assert!(asg.ii >= 2);
    }

    #[test]
    fn select_keeps_list_when_filter_empties() {
        let mut list = vec![1, 2, 3];
        select(&mut list, |&x| x > 10);
        assert_eq!(list, vec![1, 2, 3]);
        select(&mut list, |&x| x >= 2);
        assert_eq!(list, vec![2, 3]);
    }

    #[test]
    fn stats_are_populated() {
        let g = fig6();
        let m = presets::two_cluster_gp(2, 1);
        let asg = assign(&g, &m, AssignConfig::default()).unwrap();
        assert!(asg.stats.ii_attempts >= 1);
        assert_eq!(asg.stats.copies, asg.map.copy_count());
    }
}
