//! A reusable scheduling context: everything the modulo scheduling loop
//! needs that does not depend on the initiation interval, prepared once
//! per (graph, machine, cluster map) and reused across the whole II
//! sweep.
//!
//! The seed scheduler rebuilt the swing order, the priority array, the
//! resource-request table, the reservation table, and four per-node
//! scratch vectors on *every* II attempt. [`SchedContext`] hoists all of
//! that out of the sweep: one [`LoopAnalysis`], one [`SlotRequest`] table
//! (a copy's request borrows its metadata from the [`ClusterMap`]), one
//! [`TimeMrt`] whose `reset` zeroes a few occupancy words per row, and
//! scratch buffers that are cleared (not reallocated) between attempts. A
//! warmed context performs no heap allocation during an II attempt until
//! the final successful attempt materializes its [`Schedule`].
//!
//! The context's `time` vector is the one record of where each node sits:
//! the table holds occupancy only, so an eviction or a displacement frees
//! a node's resources by naming the row its cycle maps to.
//!
//! Both phase-2 schedulers run one loop, `SchedContext::attempt_as`:
//! Rau's iterative scheduler and the iterative swing scheduler differ
//! only in the issue window a node's slot scan covers (see
//! [`SchedulerKind`]).
//!
//! Every attempt starts from fully reset state, so a context-driven sweep
//! is decision-for-decision identical to scheduling each II with a fresh
//! context (the `tests/context_equivalence.rs` regression pins this).

use crate::failure::SchedFailure;
use crate::iterative::SchedulerConfig;
use crate::schedule::{slot_request, Schedule, ScheduleError};
use crate::stats::{conflict_index, AttemptStats};
use crate::swing::SchedulerKind;
use clasp_ddg::{Ddg, LoopAnalysis, NodeId};
use clasp_machine::MachineSpec;
use clasp_mrt::{ClusterMap, PlaceOutcome, SlotRequest, TimeMrt};
use std::borrow::Cow;

/// Amortized state for scheduling one annotated graph on one machine at
/// many candidate IIs.
///
/// # Examples
///
/// ```
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
/// use clasp_sched::{unified_map, SchedContext, SchedulerConfig};
///
/// let mut g = Ddg::new("pair");
/// let a = g.add(OpKind::Load);
/// let b = g.add(OpKind::FpAdd);
/// g.add_dep(a, b);
/// let m = presets::unified_gp(2);
/// let map = unified_map(&g, &m);
/// let mut ctx = SchedContext::new(&g, &m, &map).unwrap();
/// let s = ctx.schedule_in_range(1, 8, SchedulerConfig::default()).unwrap();
/// assert_eq!(s.ii(), 1);
/// ```
pub struct SchedContext<'a> {
    g: &'a Ddg,
    machine: &'a MachineSpec,
    map: &'a ClusterMap,
    analysis: Cow<'a, LoopAnalysis>,
    /// Resource request per node (indexed by `NodeId::index`).
    requests: Vec<SlotRequest<'a>>,
    /// [`AttemptStats::conflicts`] lane per node (indexed by
    /// `NodeId::index`), precomputed so the hot loop only indexes.
    conflict_lane: Vec<u8>,
    mrt: TimeMrt,
    /// Issue cycle of each scheduled node: the one record of placements.
    time: Vec<Option<i64>>,
    /// The cycle each node was last placed at in this attempt, if any.
    prev_time: Vec<Option<i64>>,
    evicted: Vec<NodeId>,
    stats: AttemptStats,
}

impl<'a> SchedContext<'a> {
    /// Build a context, computing the [`LoopAnalysis`] internally.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::MissingAssignment`] / [`ScheduleError::MissingCopyMeta`]
    /// if some node is not fully annotated in `map`.
    pub fn new(
        g: &'a Ddg,
        machine: &'a MachineSpec,
        map: &'a ClusterMap,
    ) -> Result<Self, ScheduleError> {
        let analysis = LoopAnalysis::compute(g);
        Self::build(g, machine, map, Cow::Owned(analysis))
    }

    /// Build a context around an analysis the caller already computed for
    /// this exact graph (it must be fresh: recompute it after any graph
    /// mutation).
    ///
    /// # Errors
    ///
    /// As [`SchedContext::new`].
    pub fn with_analysis(
        g: &'a Ddg,
        machine: &'a MachineSpec,
        map: &'a ClusterMap,
        analysis: &'a LoopAnalysis,
    ) -> Result<Self, ScheduleError> {
        debug_assert_eq!(analysis.node_count(), g.node_count());
        Self::build(g, machine, map, Cow::Borrowed(analysis))
    }

    fn build(
        g: &'a Ddg,
        machine: &'a MachineSpec,
        map: &'a ClusterMap,
        analysis: Cow<'a, LoopAnalysis>,
    ) -> Result<Self, ScheduleError> {
        let n = g.node_count();
        let mut requests = Vec::with_capacity(n);
        let mut conflict_lane = Vec::with_capacity(n);
        for node in g.node_ids() {
            requests.push(slot_request(g, map, node)?);
            conflict_lane.push(conflict_index(g.op(node).kind) as u8);
        }
        Ok(SchedContext {
            g,
            machine,
            map,
            analysis,
            requests,
            conflict_lane,
            mrt: TimeMrt::new(machine, 1),
            time: vec![None; n],
            prev_time: vec![None; n],
            evicted: Vec::new(),
            stats: AttemptStats::default(),
        })
    }

    /// The analysis driving the priority order.
    pub fn analysis(&self) -> &LoopAnalysis {
        &self.analysis
    }

    /// The machine this context schedules for.
    pub fn machine(&self) -> &MachineSpec {
        self.machine
    }

    /// The cluster annotation this context schedules under.
    pub fn map(&self) -> &ClusterMap {
        self.map
    }

    /// Statistics accumulated over every attempt so far (deterministic:
    /// pure decision counts, no timing — see [`AttemptStats`]).
    pub fn stats(&self) -> AttemptStats {
        self.stats
    }

    /// Attempt a modulo schedule at exactly `ii` (Rau's iterative modulo
    /// scheduler). Decision-for-decision identical to
    /// [`crate::iterative_schedule`]; every attempt starts from fully
    /// reset state, so earlier attempts never leak into later ones.
    ///
    /// # Errors
    ///
    /// [`SchedFailure::BudgetExhausted`] when the placement budget runs
    /// out, [`SchedFailure::ResourceImpossible`] when some node's request
    /// can never be granted on this machine; both carry the blocking
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn attempt(&mut self, ii: u32, config: SchedulerConfig) -> Result<Schedule, SchedFailure> {
        self.attempt_as(SchedulerKind::Iterative, ii, config)
    }

    /// One attempt at exactly `ii` with the `kind` scheduler's issue
    /// window; the window is the only place the two schedulers differ.
    ///
    /// Nodes are taken in swing order. Each scans its window for a
    /// conflict-free row; when none is free it is forced in Rau's way at
    /// its window floor (or just after its previous slot, so repeats make
    /// progress), evicting the holders. Every placement lands at or after
    /// the earliest start over scheduled predecessors, so only successors
    /// can be left with a violated dependence; they are unscheduled.
    pub(crate) fn attempt_as(
        &mut self,
        kind: SchedulerKind,
        ii: u32,
        config: SchedulerConfig,
    ) -> Result<Schedule, SchedFailure> {
        let analysis: &LoopAnalysis = &self.analysis;
        self.stats.attempts += 1;
        let n = self.requests.len();
        if n == 0 {
            return Ok(Schedule::new(ii, std::iter::empty()));
        }

        // Reset all per-attempt state; no allocation.
        self.mrt.reset(ii);
        self.time.fill(None);
        self.prev_time.fill(None);
        let time = &mut self.time;
        let prev_time = &mut self.prev_time;
        let mrt = &mut self.mrt;
        let evicted = &mut self.evicted;
        let requests = &self.requests;
        let conflict_lane = &self.conflict_lane;
        let stats = &mut self.stats;
        let order = analysis.order();

        let mut unscheduled = n;
        let mut budget = u64::from(config.budget_factor) * n as u64;
        let ii_i = i64::from(ii);
        let row_of = |t: i64| t.rem_euclid(ii_i) as u32;
        // The ready cursor: every order position below it is scheduled, so
        // the highest-priority unscheduled node is found by advancing past
        // scheduled entries instead of rescanning the whole order. Evicted
        // or displaced nodes pull the cursor back to their position.
        let mut cursor = 0usize;

        while unscheduled > 0 {
            // Highest-priority unscheduled node. (Found before the budget
            // check — the cursor advance has no scheduling effect — so a
            // budget exhaustion can name the operation it was blocked on.)
            while cursor < n && time[order[cursor].index()].is_some() {
                cursor += 1;
            }
            debug_assert!(cursor < n, "unscheduled > 0");
            let node = order[cursor];
            let vi = node.index();

            if budget == 0 {
                return Err(SchedFailure::BudgetExhausted { ii, node });
            }
            budget -= 1;

            // Earliest start over scheduled predecessors (a self edge
            // never counts: the node itself is unscheduled).
            let mut es: Option<i64> = None;
            for e in analysis.preds(node) {
                if let Some(tp) = time[e.other.index()] {
                    let lb = tp + i64::from(e.latency) - i64::from(e.distance) * ii_i;
                    es = Some(es.map_or(lb, |cur| cur.max(lb)));
                }
            }

            // The issue window as (first slot, step, slot count), and the
            // floor a forced placement starts from. Rau scans one II
            // forward from the earliest start, never before cycle 0.
            // Swing keeps lifetimes short: forward from the earliest
            // start, backward from the latest start over scheduled
            // successors, or forward through both bounds' intersection.
            let (floor, (first, step, slots)) = match kind {
                SchedulerKind::Iterative => {
                    let floor = es.map_or(0, |es| es.max(0));
                    (floor, (floor, 1, ii_i))
                }
                SchedulerKind::Swing => {
                    let mut ls: Option<i64> = None;
                    for e in analysis.succs(node) {
                        if let Some(ts) = time[e.other.index()] {
                            let ub = ts - i64::from(e.latency) + i64::from(e.distance) * ii_i;
                            ls = Some(ls.map_or(ub, |cur| cur.min(ub)));
                        }
                    }
                    let floor = es.unwrap_or(0);
                    let window = match (es, ls) {
                        (None, Some(ls)) => (ls, -1, ii_i),
                        (Some(es), Some(ls)) => (es, 1, (ls - es + 1).clamp(0, ii_i)),
                        _ => (floor, 1, ii_i),
                    };
                    (floor, window)
                }
            };

            // Scan the window for a conflict-free slot.
            let mut chosen: Option<i64> = None;
            for k in 0..slots {
                let t = first + step * k;
                match mrt.try_place(node, row_of(t), &requests[vi]) {
                    PlaceOutcome::Placed => {
                        chosen = Some(t);
                        break;
                    }
                    PlaceOutcome::Blocked => {
                        stats.conflicts[conflict_lane[vi] as usize] += 1;
                    }
                    PlaceOutcome::Impossible => {
                        // Structurally impossible on this machine.
                        return Err(SchedFailure::ResourceImpossible { ii, node });
                    }
                }
            }

            let t = match chosen {
                Some(t) => t,
                None => {
                    // Forced placement (Rau): first attempt at the floor,
                    // later attempts strictly after the previous slot to
                    // guarantee forward progress.
                    stats.window_rejections += 1;
                    let slot = prev_time[vi].map_or(floor, |prev| floor.max(prev + 1));
                    evicted.clear();
                    mrt.place_evicting_into(node, row_of(slot), &requests[vi], evicted);
                    for &ev in evicted.iter() {
                        if time[ev.index()].take().is_some() {
                            unscheduled += 1;
                            stats.backtracks += 1;
                            cursor = cursor.min(analysis.position(ev));
                        }
                    }
                    slot
                }
            };

            time[vi] = Some(t);
            prev_time[vi] = Some(t);
            unscheduled -= 1;
            stats.placements += 1;

            // Displace scheduled successors whose dependence is now
            // violated.
            for e in analysis.succs(node) {
                if e.other == node {
                    continue; // self edge: t >= t + lat - dist*ii holds iff
                              // lat <= dist*ii, guaranteed by ii >= RecMII
                }
                let di = e.other.index();
                if let Some(td) = time[di] {
                    if td < t + i64::from(e.latency) - i64::from(e.distance) * ii_i {
                        mrt.remove(e.other, row_of(td));
                        time[di] = None;
                        unscheduled += 1;
                        stats.backtracks += 1;
                        cursor = cursor.min(analysis.position(e.other));
                    }
                }
            }
        }

        Ok(Schedule::new(
            ii,
            self.g
                .node_ids()
                .map(|v| (v, self.time[v.index()].expect("all scheduled"))),
        ))
    }

    /// Try `min_ii`, `min_ii + 1`, ... up to `max_ii` until one II
    /// succeeds, amortizing all context state across the sweep. Returns
    /// the same schedule as running [`crate::iterative_schedule`] per II.
    ///
    /// # Errors
    ///
    /// [`SchedFailure::Exhausted`] carrying the last attempt's reason
    /// when no II in the range succeeds.
    pub fn schedule_in_range(
        &mut self,
        min_ii: u32,
        max_ii: u32,
        config: SchedulerConfig,
    ) -> Result<Schedule, SchedFailure> {
        let min_ii = min_ii.max(1);
        let mut last = None;
        for ii in min_ii..=max_ii {
            match self.attempt(ii, config) {
                Ok(s) => return Ok(s),
                Err(f) => last = Some(Box::new(f)),
            }
        }
        Err(SchedFailure::Exhausted {
            min_ii,
            max_ii,
            last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::iterative_schedule;
    use crate::schedule::{unified_map, validate_schedule};
    use clasp_ddg::max_ii_bound;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn fig6() -> Ddg {
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
        g
    }

    #[test]
    fn context_sweep_matches_fresh_per_ii() {
        let g = fig6();
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let cap = max_ii_bound(&g, 1);
        let mut ctx = SchedContext::new(&g, &m, &map).unwrap();
        let swept = ctx.schedule_in_range(1, cap, cfg()).unwrap();
        let fresh = (1..=cap)
            .find_map(|ii| iterative_schedule(&g, &m, &map, ii, cfg()).ok())
            .unwrap();
        assert_eq!(swept, fresh);
        assert_eq!(validate_schedule(&g, &m, &map, &swept), Ok(()));
    }

    #[test]
    fn repeated_attempts_are_deterministic() {
        let g = fig6();
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let mut ctx = SchedContext::new(&g, &m, &map).unwrap();
        let a = ctx.attempt(4, cfg()).unwrap();
        let b = ctx.attempt(4, cfg()).unwrap();
        assert_eq!(a, b);
        // A failing attempt in between must not perturb later ones.
        assert!(matches!(
            ctx.attempt(1, cfg()),
            Err(SchedFailure::BudgetExhausted { ii: 1, .. })
        ));
        let c = ctx.attempt(4, cfg()).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn empty_graph_schedules() {
        let g = Ddg::new("empty");
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let mut ctx = SchedContext::new(&g, &m, &map).unwrap();
        assert!(ctx.attempt(1, cfg()).unwrap().is_empty());
    }

    #[test]
    fn external_analysis_is_reusable() {
        let g = fig6();
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let la = clasp_ddg::LoopAnalysis::compute(&g);
        let mut ctx = SchedContext::with_analysis(&g, &m, &map, &la).unwrap();
        let s = ctx.schedule_in_range(1, 16, cfg()).unwrap();
        assert_eq!(s.ii(), 4);
        assert_eq!(ctx.analysis().order().len(), 6);
    }

    #[test]
    fn a_copy_naming_one_cluster_twice_is_resource_impossible() {
        // One write port per cluster cannot take a copy that writes
        // cluster 1 twice: both schedulers report it, neither panics.
        use clasp_machine::ClusterId;
        use clasp_mrt::CopyMeta;
        let mut g = Ddg::new("twice");
        let a = g.add(OpKind::IntAlu);
        let cp = g.add(OpKind::Copy);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, cp);
        g.add_dep(cp, b);
        let m = presets::two_cluster_gp(2, 1);
        let mut map = ClusterMap::new();
        map.assign(a, ClusterId(0));
        map.assign(cp, ClusterId(0));
        map.set_copy_meta(
            cp,
            CopyMeta {
                src: ClusterId(0),
                targets: vec![ClusterId(1), ClusterId(1)],
                link: None,
            },
        );
        map.assign(b, ClusterId(1));
        for kind in [SchedulerKind::Iterative, SchedulerKind::Swing] {
            let mut ctx = SchedContext::new(&g, &m, &map).unwrap();
            assert_eq!(
                ctx.attempt_as(kind, 2, cfg()),
                Err(SchedFailure::ResourceImpossible { ii: 2, node: cp }),
                "{kind}"
            );
        }
    }

    #[test]
    fn missing_assignment_errors() {
        let mut g = Ddg::new("naked");
        g.add(OpKind::IntAlu);
        let m = presets::unified_gp(2);
        let map = ClusterMap::new();
        assert!(matches!(
            SchedContext::new(&g, &m, &map),
            Err(ScheduleError::MissingAssignment(_))
        ));
    }
}
