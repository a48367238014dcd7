//! Stage scheduling (Eichenberger & Davidson, MICRO-28 1995).
//!
//! A modulo schedule fixes each operation's kernel row (`cycle mod II`);
//! *which stage* the operation sits in is still free within its
//! dependence slack. Moving an operation by whole multiples of II leaves
//! the modulo reservation table untouched — same row, same resources —
//! but changes value lifetimes, and with them the register requirement.
//! This pass greedily re-stages operations to minimize the total lifetime
//! (the MVE register-requirement proxy), iterating to a fixpoint.
//!
//! The paper's introduction names exactly this combination — an iterative
//! modulo scheduler plus a stage scheduler — as the state of the art its
//! assignment pass slots in front of.

use crate::lifetime::lifetimes;
use clasp_ddg::{Ddg, NodeId};
use clasp_sched::Schedule;

/// Result of [`stage_schedule`].
#[derive(Debug, Clone)]
pub struct StageResult {
    /// The re-staged schedule (same II, same kernel rows).
    pub schedule: Schedule,
    /// Total lifetime before the pass.
    pub lifetime_before: i64,
    /// Total lifetime after the pass.
    pub lifetime_after: i64,
    /// Operations actually moved.
    pub moves: usize,
}

fn total_lifetime(g: &Ddg, sched: &Schedule) -> i64 {
    lifetimes(g, sched).iter().map(|lt| lt.len()).sum()
}

/// Lifetime length of `v` under `times` (0 for non-producers).
fn lifetime_of(g: &Ddg, times: &[i64], ii: i64, v: NodeId) -> i64 {
    let kind = g.op(v).kind;
    if !kind.produces_value() {
        return 0;
    }
    let start = times[v.index()];
    let mut end = start + i64::from(kind.latency());
    for (_, e) in g.succ_edges(v) {
        if e.src == e.dst {
            continue;
        }
        end = end.max(times[e.dst.index()] + i64::from(e.distance) * ii);
    }
    end - start
}

/// The part of the total lifetime affected by moving `n`: its own
/// lifetime plus the lifetimes of its distinct value-producing
/// predecessors (whose ends may be anchored by `n`). `seen` is scratch.
fn local_cost(g: &Ddg, times: &[i64], ii: i64, n: NodeId, seen: &mut Vec<NodeId>) -> i64 {
    let mut cost = lifetime_of(g, times, ii, n);
    seen.clear();
    for (_, e) in g.pred_edges(n) {
        if e.src != n && !seen.contains(&e.src) {
            seen.push(e.src);
            cost += lifetime_of(g, times, ii, e.src);
        }
    }
    cost
}

/// The window of legal issue cycles for `n` (stepping by II keeps the
/// row), given every other node's time: `[lo, hi]` in absolute cycles.
fn slack_window(g: &Ddg, times: &[i64], ii: i64, n: NodeId) -> (i64, i64) {
    let mut lo = i64::MIN / 4;
    let mut hi = i64::MAX / 4;
    for (_, e) in g.pred_edges(n) {
        if e.src == n {
            continue;
        }
        let tp = times[e.src.index()];
        lo = lo.max(tp + i64::from(e.latency) - i64::from(e.distance) * ii);
    }
    for (_, e) in g.succ_edges(n) {
        if e.dst == n {
            continue;
        }
        let ts = times[e.dst.index()];
        hi = hi.min(ts - i64::from(e.latency) + i64::from(e.distance) * ii);
    }
    (lo, hi)
}

/// Re-stage the schedule to reduce register pressure. Kernel rows (and
/// therefore all resource placements) are preserved exactly; only stages
/// move, within dependence slack. Runs greedy passes until no single move
/// improves the total lifetime (bounded at `4 * nodes` passes).
///
/// # Panics
///
/// Panics if some node of `g` has no cycle in `sched`.
pub fn stage_schedule(g: &Ddg, sched: &Schedule) -> StageResult {
    let ii = i64::from(sched.ii());
    let mut times: Vec<i64> = g
        .node_ids()
        .map(|n| sched.start(n).expect("scheduled"))
        .collect();
    let before = total_lifetime(g, sched);
    let mut current = before;
    let mut moves = 0usize;
    let mut seen = Vec::new();

    let max_passes = 4 * g.node_count().max(1);
    'outer: for _ in 0..max_passes {
        let mut improved = false;
        for n in g.node_ids() {
            let t0 = times[n.index()];
            let (lo, hi) = slack_window(g, &times, ii, n);
            // Sources/sinks have one-sided (unbounded) slack; restaging
            // them beyond a few stages of their current position can only
            // stretch lifetimes, so clamp the scan.
            let lo = lo.max(t0 - 8 * ii);
            let hi = hi.min(t0 + 8 * ii);
            if lo > hi {
                continue; // no slack (tight recurrence)
            }
            // Candidate cycles congruent to t0 modulo II inside [lo, hi].
            let first = lo + (t0 - lo).rem_euclid(ii);
            let base_local = local_cost(g, &times, ii, n, &mut seen);
            let mut best = (base_local, t0);
            let mut t = first;
            while t <= hi {
                if t != t0 {
                    times[n.index()] = t;
                    let cost = local_cost(g, &times, ii, n, &mut seen);
                    if cost < best.0 {
                        best = (cost, t);
                    }
                }
                t += ii;
            }
            times[n.index()] = best.1;
            if best.1 != t0 {
                current += best.0 - base_local;
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            break 'outer;
        }
    }

    StageResult {
        schedule: Schedule::new(sched.ii(), g.node_ids().zip(times)),
        lifetime_before: before,
        lifetime_after: current,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::register_requirement;
    use crate::sim::verify_pipelined;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;
    use clasp_sched::{schedule_unified, unified_map, validate_schedule, SchedulerConfig};

    #[test]
    fn restaging_preserves_rows_and_validity() {
        let mut g = Ddg::new("spread");
        // Wide graph with lots of slack: loads feeding a late store chain.
        let mut sinks = Vec::new();
        for _ in 0..4 {
            let l = g.add(OpKind::Load);
            sinks.push(l);
        }
        let mut prev = sinks[0];
        for &s in &sinks[1..] {
            let add = g.add(OpKind::FpAdd);
            g.add_dep(prev, add);
            g.add_dep(s, add);
            prev = add;
        }
        let st = g.add(OpKind::Store);
        g.add_dep(prev, st);
        let m = presets::unified_gp(4);
        let sched = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &m);
        let result = stage_schedule(&g, &sched);
        // Same rows.
        for n in g.node_ids() {
            assert_eq!(
                sched.kernel_row(n),
                result.schedule.kernel_row(n),
                "row of {n} changed"
            );
        }
        // Still a valid schedule.
        assert_eq!(validate_schedule(&g, &m, &map, &result.schedule), Ok(()));
        // Never worse.
        assert!(result.lifetime_after <= result.lifetime_before);
    }

    #[test]
    fn reduces_pressure_on_slack_heavy_loop() {
        // Early loads with a distant consumer: the iterative scheduler
        // issues them ASAP, stage scheduling should sink them.
        let mut g = Ddg::new("sink");
        let l1 = g.add(OpKind::Load);
        let l2 = g.add(OpKind::Load);
        let chain1 = g.add(OpKind::FpMult);
        let chain2 = g.add(OpKind::FpMult);
        let chain3 = g.add(OpKind::FpAdd);
        let join = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep(l1, chain1);
        g.add_dep(chain1, chain2);
        g.add_dep(chain2, chain3);
        g.add_dep(chain3, join);
        g.add_dep(l2, join); // l2 has lots of slack
        g.add_dep(join, st);
        let m = presets::unified_gp(2);
        let sched = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let result = stage_schedule(&g, &sched);
        assert!(
            result.lifetime_after <= result.lifetime_before,
            "{} -> {}",
            result.lifetime_before,
            result.lifetime_after
        );
        let before = register_requirement(&g, &sched);
        let after = register_requirement(&g, &result.schedule);
        assert!(after <= before, "registers {before} -> {after}");
    }

    #[test]
    fn restaged_schedule_still_simulates() {
        let mut g = Ddg::new("simcheck");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::Load);
        let m1 = g.add(OpKind::FpMult);
        let s = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep(a, m1);
        g.add_dep(m1, s);
        g.add_dep(b, s);
        g.add_dep_carried(s, s, 1);
        g.add_dep(s, st);
        let mach = presets::unified_gp(4);
        let sched = schedule_unified(&g, &mach, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &mach);
        let result = stage_schedule(&g, &sched);
        verify_pipelined(&g, &map, &result.schedule, 14).unwrap();
    }

    #[test]
    fn tight_recurrence_is_left_alone() {
        let mut g = Ddg::new("tight");
        let a = g.add(OpKind::FpAdd);
        let b = g.add(OpKind::FpAdd);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1);
        let m = presets::unified_gp(4);
        let sched = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let result = stage_schedule(&g, &sched);
        assert_eq!(result.moves, 0, "no slack to exploit");
        assert_eq!(result.lifetime_before, result.lifetime_after);
    }
}
