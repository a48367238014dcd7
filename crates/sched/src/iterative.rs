//! Rau's iterative modulo scheduler (MICRO-27, 1994), driven by the swing
//! ordering priority.
//!
//! The scheduler is cluster-agnostic in exactly the way the paper requires
//! of "phase 2": it reads cluster assignments and copy metadata from a
//! [`ClusterMap`] and turns them into resource requests, but never makes a
//! clustering decision itself.
//!
//! The algorithm lives in [`SchedContext`], whose loop it shares with
//! the swing scheduler; the free functions here are convenience wrappers
//! that build a fresh context per call.
//! Callers sweeping many IIs should hold one [`SchedContext`] instead —
//! [`schedule_in_range`] and [`schedule_unified`] already do.

use crate::context::SchedContext;
use crate::failure::SchedFailure;
use crate::schedule::{unified_map, Schedule};
use clasp_ddg::{max_ii_bound, Ddg};
use clasp_machine::MachineSpec;
use clasp_mrt::ClusterMap;

/// Tuning knobs for the iterative scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Placement budget as a multiple of the node count (Rau's
    /// `budget_ratio`): both schedulers may make `budget_factor × nodes`
    /// placements per attempt, and exhausting them fails the attempt at
    /// this II, so a factor of 0 fails at the first node.
    pub budget_factor: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        // Rau reports budget ratios of a few units sufficing with a
        // height-based priority; the swing-order priority displaces a
        // little more on long-latency chains, so the default is sized for
        // the worst loops observed in the corpus (a handful need ~20x).
        SchedulerConfig { budget_factor: 24 }
    }
}

/// Attempt a modulo schedule of the annotated graph `g` on `machine` at
/// exactly the initiation interval `ii`.
///
/// Every node must be assigned in `map` (copies with metadata).
///
/// # Errors
///
/// A [`SchedFailure`] naming the blocking node: budget exhaustion, an
/// unsatisfiable resource request, or an unusable annotation.
///
/// # Examples
///
/// ```
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
/// use clasp_sched::{iterative_schedule, unified_map, SchedulerConfig};
///
/// let mut g = Ddg::new("pair");
/// let a = g.add(OpKind::Load);
/// let b = g.add(OpKind::FpAdd);
/// g.add_dep(a, b);
/// let m = presets::unified_gp(2);
/// let map = unified_map(&g, &m);
/// let s = iterative_schedule(&g, &m, &map, 1, SchedulerConfig::default()).unwrap();
/// assert!(s.start(b).unwrap() >= s.start(a).unwrap() + 2);
/// ```
pub fn iterative_schedule(
    g: &Ddg,
    machine: &MachineSpec,
    map: &ClusterMap,
    ii: u32,
    config: SchedulerConfig,
) -> Result<Schedule, SchedFailure> {
    let mut ctx = SchedContext::new(g, machine, map).map_err(SchedFailure::Invalid)?;
    ctx.attempt(ii, config)
}

/// Schedule `g` on `machine` under `map`, trying `min_ii`, `min_ii + 1`,
/// ... up to `max_ii` until one II succeeds. One [`SchedContext`] is
/// amortized over the whole sweep; the result is identical to attempting
/// each II with [`iterative_schedule`].
///
/// # Errors
///
/// [`SchedFailure::Exhausted`] (carrying the last attempt's reason) if
/// every II in the range fails, [`SchedFailure::Invalid`] if the
/// annotation is unusable.
pub fn schedule_in_range(
    g: &Ddg,
    machine: &MachineSpec,
    map: &ClusterMap,
    min_ii: u32,
    max_ii: u32,
    config: SchedulerConfig,
) -> Result<Schedule, SchedFailure> {
    let mut ctx = SchedContext::new(g, machine, map).map_err(SchedFailure::Invalid)?;
    ctx.schedule_in_range(min_ii, max_ii, config)
}

/// The II search range every escalation shares: refuse an unbounded
/// MII (the machine cannot execute some operation class at all, so the
/// search would start at `u32::MAX`), clamp the degenerate `mii == 0` to
/// 1, and only then derive the default cap from [`max_ii_bound`], so the
/// range is the same whether or not the caller clamps first.
///
/// Returns `(first II to try, inclusive cap)`; `configured_cap`, when
/// set, replaces the default cap.
///
/// # Errors
///
/// [`SchedFailure::MiiUnbounded`] when `raw_mii` is `u32::MAX`.
pub fn ii_search_range(
    g: &Ddg,
    raw_mii: u32,
    configured_cap: Option<u32>,
) -> Result<(u32, u32), SchedFailure> {
    if raw_mii == u32::MAX {
        return Err(SchedFailure::MiiUnbounded);
    }
    let start = raw_mii.max(1);
    let cap = configured_cap.unwrap_or_else(|| max_ii_bound(g, start));
    Ok((start, cap))
}

/// Schedule a copy-free loop on a unified machine: computes `MII =
/// max(RecMII, ResMII)` and searches upward. This is the paper's baseline
/// ("an equally wide non-clustered machine").
///
/// # Errors
///
/// Fails only on pathological inputs: [`SchedFailure::MiiUnbounded`]
/// when some operation kind has no unit anywhere, or
/// [`SchedFailure::Exhausted`] when every II up to [`max_ii_bound`]
/// fails.
///
/// # Panics
///
/// Panics if `machine` is not unified or `g` contains copies.
pub fn schedule_unified(
    g: &Ddg,
    machine: &MachineSpec,
    config: SchedulerConfig,
) -> Result<Schedule, SchedFailure> {
    let (min_ii, max_ii) = ii_search_range(g, machine.mii(g), None)?;
    schedule_in_range(g, machine, &unified_map(g, machine), min_ii, max_ii, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate_schedule;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    #[test]
    fn empty_graph_schedules() {
        let g = Ddg::new("empty");
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn chain_on_unified_machine() {
        let mut g = Ddg::new("chain");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpMult);
        let c = g.add(OpKind::FpAdd);
        let d = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep(c, d);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert_eq!(s.ii(), 1); // 4 ops, width 4, no recurrence
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn recurrence_constrains_ii() {
        let mut g = Ddg::new("rec");
        let a = g.add(OpKind::FpAdd);
        let b = g.add(OpKind::FpAdd);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1); // RecMII = 2
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert_eq!(s.ii(), 2);
    }

    #[test]
    fn resource_constrains_ii() {
        let mut g = Ddg::new("res");
        let ops: Vec<_> = (0..6).map(|_| g.add(OpKind::IntAlu)).collect();
        // Independent ops; width 2 -> II = 3.
        let m = presets::unified_gp(2);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert_eq!(s.ii(), 3);
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
        let _ = ops;
    }

    #[test]
    fn fs_machine_respects_classes() {
        let mut g = Ddg::new("fs");
        let l1 = g.add(OpKind::Load);
        let l2 = g.add(OpKind::Load);
        let f = g.add(OpKind::FpAdd);
        g.add_dep(l1, f);
        g.add_dep(l2, f);
        // One memory unit: two loads need II >= 2.
        let m = clasp_machine::MachineSpec::new(
            "fs1",
            vec![clasp_machine::ClusterSpec::specialized(1, 1, 1)],
            clasp_machine::Interconnect::None,
        );
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert_eq!(s.ii(), 2);
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn figure6_on_wide_machine_achieves_recmii() {
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
        let m = presets::unified_gp(2);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert_eq!(s.ii(), 4); // RecMII 4 dominates ResMII 3
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn self_recurrence_schedules_at_ratio() {
        let mut g = Ddg::new("self");
        let a = g.add(OpKind::FpMult); // lat 3
        g.add_dep_carried(a, a, 1);
        let m = presets::unified_gp(1);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        assert_eq!(s.ii(), 3);
    }

    #[test]
    fn impossible_on_machine_returns_none() {
        let mut g = Ddg::new("fp");
        g.add(OpKind::FpAdd);
        let m = clasp_machine::MachineSpec::new(
            "nofp",
            vec![clasp_machine::ClusterSpec::specialized(1, 1, 0)],
            clasp_machine::Interconnect::None,
        );
        assert_eq!(
            schedule_unified(&g, &m, cfg()),
            Err(SchedFailure::MiiUnbounded)
        );
    }

    #[test]
    fn clustered_copy_scheduling() {
        use clasp_machine::ClusterId;
        // a on C0, copy, b on C1.
        let mut g = Ddg::new("cross");
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
            clasp_mrt::CopyMeta {
                src: ClusterId(0),
                targets: vec![ClusterId(1)],
                link: None,
            },
        );
        map.assign(b, ClusterId(1));
        let s = iterative_schedule(&g, &m, &map, 1, cfg()).unwrap();
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
        // Copy after producer, consumer after copy.
        assert!(s.start(cp).unwrap() > s.start(a).unwrap());
        assert!(s.start(b).unwrap() > s.start(cp).unwrap());
    }

    #[test]
    fn tight_budget_fails_gracefully() {
        let mut g = Ddg::new("big");
        let ops: Vec<_> = (0..20).map(|_| g.add(OpKind::IntAlu)).collect();
        for w in ops.windows(2) {
            g.add_dep(w[0], w[1]);
        }
        let m = presets::unified_gp(1);
        let failed = iterative_schedule(
            &g,
            &m,
            &unified_map(&g, &m),
            20,
            SchedulerConfig { budget_factor: 0 },
        );
        assert!(matches!(
            failed,
            Err(SchedFailure::BudgetExhausted { ii: 20, .. })
        ));
    }

    #[test]
    fn schedule_in_range_finds_smallest_feasible() {
        let mut g = Ddg::new("six");
        for _ in 0..6 {
            g.add(OpKind::IntAlu);
        }
        let m = presets::unified_gp(2);
        let map = unified_map(&g, &m);
        let s = schedule_in_range(&g, &m, &map, 1, 10, cfg()).unwrap();
        assert_eq!(s.ii(), 3);
    }

    #[test]
    fn dense_recurrent_loop_validates() {
        // A harder mix: two recurrences plus parallel work on FS units.
        let mut g = Ddg::new("hard");
        let l1 = g.add(OpKind::Load);
        let m1 = g.add(OpKind::FpMult);
        let a1 = g.add(OpKind::FpAdd);
        let s1 = g.add(OpKind::Store);
        let i1 = g.add(OpKind::IntAlu);
        let i2 = g.add(OpKind::IntAlu);
        g.add_dep(l1, m1);
        g.add_dep(m1, a1);
        g.add_dep(a1, s1);
        g.add_dep_carried(a1, a1, 1); // accumulator
        g.add_dep(i1, l1);
        g.add_dep(i2, i1);
        g.add_dep_carried(i1, i2, 1);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, cfg()).unwrap();
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
        assert_eq!(s.ii(), 2); // i1/i2 recurrence: 1+1 over 1
    }

    #[test]
    fn bound_is_schedulable_on_one_wide_machine() {
        // The sequential-schedule argument: at II = max_ii_bound every
        // loop fits even on a single GP unit, so the search never
        // exhausts spuriously.
        let mut g = Ddg::new("mix");
        let l = g.add(OpKind::Load);
        let m1 = g.add(OpKind::FpMult);
        let acc = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        let i1 = g.add(OpKind::IntAlu);
        g.add_dep(l, m1);
        g.add_dep(m1, acc);
        g.add_dep_carried(acc, acc, 1);
        g.add_dep(acc, st);
        g.add_dep(i1, l);
        g.add_dep_carried(st, i1, 2);
        let m = presets::unified_gp(1);
        let mii = m.mii(&g);
        let cap = max_ii_bound(&g, mii);
        let map = unified_map(&g, &m);
        let s = iterative_schedule(&g, &m, &map, cap, cfg()).unwrap();
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }
}
