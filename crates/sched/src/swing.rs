//! The phase-2 scheduler choice, and the iterative swing modulo
//! scheduler of Llosa et al. (PACT 1996) in the "iterative version" the
//! paper's experiments used.
//!
//! SMS places each node as close as possible to its already-scheduled
//! neighbours, scanning *forward* from the earliest start when
//! predecessors anchor the node, *backward* from the latest start when
//! successors do, and through the intersection window when both do —
//! keeping value lifetimes short. The iterative flavour adds Rau-style
//! force-placement with eviction when no slot in the window is free,
//! instead of failing the II outright. Everything but the window is
//! Rau's loop, so both schedulers run the one loop of [`SchedContext`].

use crate::context::SchedContext;
use crate::failure::SchedFailure;
use crate::iterative::SchedulerConfig;
use crate::schedule::Schedule;
use crate::stats::AttemptStats;
use clasp_ddg::Ddg;
use clasp_machine::MachineSpec;
use clasp_mrt::ClusterMap;

/// Which phase-2 scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Rau's iterative modulo scheduler ([`crate::iterative_schedule`]).
    #[default]
    Iterative,
    /// The swing modulo scheduler ([`swing_schedule`]).
    Swing,
}

impl SchedulerKind {
    /// The token naming this kind on the wire, in artifacts and on the
    /// command line.
    fn token(self) -> &'static str {
        match self {
            SchedulerKind::Iterative => "iterative",
            SchedulerKind::Swing => "swing",
        }
    }

    /// The kind `token` names (the inverse of `Display`), or `None`.
    ///
    /// ```
    /// use clasp_sched::SchedulerKind;
    ///
    /// assert_eq!(SchedulerKind::parse("swing"), Some(SchedulerKind::Swing));
    /// assert_eq!(SchedulerKind::parse(&SchedulerKind::Iterative.to_string()),
    ///            Some(SchedulerKind::Iterative));
    /// assert_eq!(SchedulerKind::parse("rau"), None);
    /// ```
    pub fn parse(token: &str) -> Option<Self> {
        [SchedulerKind::Iterative, SchedulerKind::Swing]
            .into_iter()
            .find(|k| k.token() == token)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Attempt a swing modulo schedule of the annotated graph `g` at exactly
/// `ii`. Like [`crate::iterative_schedule`], cluster assignments and copy
/// metadata are consumed from `map`, never chosen.
///
/// # Errors
///
/// A [`SchedFailure`] naming the blocking node when the placement budget
/// is exhausted or a node cannot execute on its assigned cluster.
///
/// # Examples
///
/// ```
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
/// use clasp_sched::{swing_schedule, unified_map, SchedulerConfig};
///
/// let mut g = Ddg::new("pair");
/// let a = g.add(OpKind::Load);
/// let b = g.add(OpKind::FpAdd);
/// g.add_dep(a, b);
/// let m = presets::unified_gp(2);
/// let map = unified_map(&g, &m);
/// let s = swing_schedule(&g, &m, &map, 1, SchedulerConfig::default()).unwrap();
/// assert!(s.start(b).unwrap() >= s.start(a).unwrap() + 2);
/// ```
pub fn swing_schedule(
    g: &Ddg,
    machine: &MachineSpec,
    map: &ClusterMap,
    ii: u32,
    config: SchedulerConfig,
) -> Result<Schedule, SchedFailure> {
    schedule_with_stats(SchedulerKind::Swing, g, machine, map, ii, config).0
}

/// Attempt a schedule at exactly `ii` with the `kind` scheduler, also
/// returning the attempt's [`AttemptStats`] — the hook the pipeline uses
/// to fold scheduler effort into an observability sink. The stats are
/// pure counts; they never influence a placement.
pub fn schedule_with_stats(
    kind: SchedulerKind,
    g: &Ddg,
    machine: &MachineSpec,
    map: &ClusterMap,
    ii: u32,
    config: SchedulerConfig,
) -> (Result<Schedule, SchedFailure>, AttemptStats) {
    match SchedContext::new(g, machine, map) {
        Ok(mut ctx) => {
            let result = ctx.attempt_as(kind, ii, config);
            (result, ctx.stats())
        }
        Err(e) => (Err(SchedFailure::Invalid(e)), AttemptStats::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{unified_map, validate_schedule};
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn schedule_unified_swing(g: &Ddg, m: &MachineSpec) -> Option<Schedule> {
        let map = unified_map(g, m);
        let mii = m.mii(g);
        (mii..=crate::max_ii_bound(g, mii))
            .find_map(|ii| swing_schedule(g, m, &map, ii, cfg()).ok())
    }

    #[test]
    fn chain_achieves_mii() {
        let mut g = Ddg::new("chain");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpMult);
        let c = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(b, c);
        let m = presets::unified_gp(4);
        let s = schedule_unified_swing(&g, &m).unwrap();
        assert_eq!(s.ii(), 1);
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn recurrence_achieves_recmii() {
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
        let s = schedule_unified_swing(&g, &m).unwrap();
        assert_eq!(s.ii(), 4);
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn backward_placement_keeps_lifetimes_short() {
        // v's producer scheduled late; a node with only successors
        // scheduled must be placed backward (close to the consumer).
        let mut g = Ddg::new("life");
        let a = g.add(OpKind::Load); // producer
        let b = g.add(OpKind::FpAdd); // consumer
        g.add_dep(a, b);
        let m = presets::unified_gp(4);
        let s = schedule_unified_swing(&g, &m).unwrap();
        // With II=1 both fit; lifetime = gap between producer-ready and
        // consumer-issue must equal exactly zero slack.
        let gap = s.start(b).unwrap() - (s.start(a).unwrap() + 2);
        assert_eq!(gap, 0, "swing should leave no slack on a free machine");
    }

    #[test]
    fn resource_limits_respected() {
        let mut g = Ddg::new("six");
        for _ in 0..6 {
            g.add(OpKind::IntAlu);
        }
        let m = presets::unified_gp(2);
        let s = schedule_unified_swing(&g, &m).unwrap();
        assert_eq!(s.ii(), 3);
        let map = unified_map(&g, &m);
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn clustered_graph_with_copies() {
        use clasp_machine::ClusterId;
        use clasp_mrt::CopyMeta;
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
            CopyMeta {
                src: ClusterId(0),
                targets: vec![ClusterId(1)],
                link: None,
            },
        );
        map.assign(b, ClusterId(1));
        let s = swing_schedule(&g, &m, &map, 1, cfg()).unwrap();
        assert_eq!(validate_schedule(&g, &m, &map, &s), Ok(()));
    }

    #[test]
    fn zero_budget_fails_at_the_first_node() {
        // Both schedulers grant `budget_factor × nodes` placements, so a
        // zero factor fails before any placement, as it does for Rau.
        let mut g = Ddg::new("big");
        let ops: Vec<_> = (0..20).map(|_| g.add(OpKind::IntAlu)).collect();
        for w in ops.windows(2) {
            g.add_dep(w[0], w[1]);
        }
        let m = presets::unified_gp(1);
        let map = unified_map(&g, &m);
        let first = clasp_ddg::swing_order(&g)[0];
        let zero = SchedulerConfig { budget_factor: 0 };
        let (failed, stats) = schedule_with_stats(SchedulerKind::Swing, &g, &m, &map, 20, zero);
        assert_eq!(
            failed,
            Err(SchedFailure::BudgetExhausted {
                ii: 20,
                node: first
            })
        );
        assert_eq!(stats.placements, 0);
        assert!(swing_schedule(&g, &m, &map, 20, cfg()).is_ok());
    }

    #[test]
    fn agrees_with_iterative_on_achieved_ii() {
        // Both schedulers must find the same (minimal) II on small loops.
        use clasp_loopgen_free::small_corpus;
        for g in small_corpus() {
            let m = presets::unified_gp(4);
            let map = unified_map(&g, &m);
            let mii = m.mii(&g);
            let cap = crate::max_ii_bound(&g, mii);
            let it =
                (mii..=cap).find(|&ii| crate::iterative_schedule(&g, &m, &map, ii, cfg()).is_ok());
            let sw = (mii..=cap).find(|&ii| swing_schedule(&g, &m, &map, ii, cfg()).is_ok());
            let (it, sw) = (it.unwrap(), sw.unwrap());
            assert!(
                sw.abs_diff(it) <= 1,
                "{}: iterative {it} vs swing {sw}",
                g.name()
            );
        }
    }

    /// Tiny local corpus (avoids a dev-dependency cycle with
    /// clasp-loopgen, which depends on clasp-ddg only — but keep this
    /// self-contained regardless).
    mod clasp_loopgen_free {
        use clasp_ddg::{Ddg, OpKind};

        pub fn small_corpus() -> Vec<Ddg> {
            let mut out = Vec::new();
            // Reduction.
            let mut g = Ddg::new("red");
            let l = g.add(OpKind::Load);
            let mu = g.add(OpKind::FpMult);
            let ac = g.add(OpKind::FpAdd);
            g.add_dep(l, mu);
            g.add_dep(mu, ac);
            g.add_dep_carried(ac, ac, 1);
            out.push(g);
            // Parallel lanes.
            let mut g = Ddg::new("par");
            for _ in 0..3 {
                let a = g.add(OpKind::Load);
                let b = g.add(OpKind::FpAdd);
                let c = g.add(OpKind::Store);
                g.add_dep(a, b);
                g.add_dep(b, c);
            }
            out.push(g);
            // Long-latency recurrence.
            let mut g = Ddg::new("div");
            let d = g.add(OpKind::FpDiv);
            let s = g.add(OpKind::FpAdd);
            g.add_dep(d, s);
            g.add_dep_carried(s, d, 1);
            out.push(g);
            out
        }
    }
}
