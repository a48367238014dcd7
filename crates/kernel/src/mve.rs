//! Modulo variable expansion (Lam, PLDI 1988).
//!
//! When a value's lifetime exceeds II, successive iterations' instances
//! of the value are live at once and cannot share a register. MVE unrolls
//! the kernel `U` times and gives each unrolled copy its own register, so
//! instance `i` writes register `i mod U` and a consumer at dependence
//! distance `d` reads register `(i - d) mod U`.
//!
//! We use the simple, always-correct variant: `U = max over values of
//! ceil(lifetime / II)`, and every value whose lifetime exceeds II gets
//! `U` registers (values fitting in one II keep a single register, which
//! is safe because their two instances never overlap).

use crate::lifetime::lifetimes;
use clasp_ddg::{Ddg, NodeId};
use clasp_sched::Schedule;

/// The register-expansion plan of one scheduled loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MveInfo {
    unroll: u32,
    /// Live instances per node id; 0 for a node that produces no value.
    instances: Vec<u32>,
}

impl MveInfo {
    /// Compute the expansion for `g` under `sched` (over the working
    /// graph, copies included — copies produce values too).
    ///
    /// A value needs `ceil(lifetime / II)` registers for steady-state
    /// overlap, and additionally at least `max consumer distance + 1`
    /// registers when it feeds a loop-carried use: the `d` live-in
    /// instances from before the loop must sit in distinct registers for
    /// a preheader to initialize them (a short schedule lifetime does not
    /// remove that requirement).
    pub fn compute(g: &Ddg, sched: &Schedule) -> MveInfo {
        let mut instances = vec![0; g.node_count()];
        let mut unroll = 1u32;
        for lt in lifetimes(g, sched) {
            let max_dist = g
                .succ_edges(lt.def)
                .filter(|(_, e)| e.src != e.dst)
                .map(|(_, e)| e.distance)
                .max()
                .unwrap_or(0);
            let k = lt.instances(sched.ii()).max(max_dist + 1);
            instances[lt.def.index()] = k;
            unroll = unroll.max(k);
        }
        MveInfo { unroll, instances }
    }

    /// The kernel unroll factor `U` (1 = no expansion needed).
    pub fn unroll(&self) -> u32 {
        self.unroll
    }

    /// Simultaneously live instances of `def`'s value (1 for values that
    /// fit in a single II, and for non-producing nodes).
    pub fn instances(&self, def: NodeId) -> u32 {
        match self.instances.get(def.index()) {
            Some(&k) if k > 0 => k,
            _ => 1,
        }
    }

    /// Registers allocated to `def`: 1 when it fits in an II, else `U`.
    pub fn regs_for(&self, def: NodeId) -> u32 {
        if self.instances(def) <= 1 {
            1
        } else {
            self.unroll
        }
    }

    /// The register index iteration `i`'s instance of `def` writes.
    pub fn reg_index(&self, def: NodeId, i: i64) -> u32 {
        if self.instances(def) <= 1 {
            0
        } else {
            i.rem_euclid(i64::from(self.unroll)) as u32
        }
    }

    /// Total registers allocated across all values (per cluster file the
    /// value is written into).
    pub fn total_regs(&self) -> u32 {
        self.instances
            .iter()
            .map(|&k| match k {
                0 => 0,
                1 => 1,
                _ => self.unroll,
            })
            .sum()
    }

    /// The theoretical minimum (`sum of ceil(lifetime/II)`), for
    /// comparison with [`MveInfo::total_regs`]'s simple allocation.
    pub fn minimal_regs(&self) -> u32 {
        self.instances.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;
    use clasp_sched::{schedule_unified, SchedulerConfig};

    #[test]
    fn short_lifetimes_need_no_unroll() {
        let mut g = Ddg::new("seq");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::Store);
        g.add_dep(a, b);
        // II will be 1 but lifetime is exactly 1 cycle.
        let m = presets::unified_gp(2);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let mve = MveInfo::compute(&g, &s);
        if s.start(b).unwrap() - s.start(a).unwrap() <= i64::from(s.ii()) {
            assert_eq!(mve.instances(a), 1.max(mve.instances(a).min(2)));
        }
        assert!(mve.unroll() >= 1);
    }

    #[test]
    fn long_lifetime_forces_unroll() {
        // A load (lat 2) consumed 1 iteration later at II=1 -> lifetime
        // spans > 1 II -> expansion.
        let mut g = Ddg::new("mve");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::IntAlu);
        g.add_dep_carried(a, b, 2);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        assert_eq!(s.ii(), 1);
        let mve = MveInfo::compute(&g, &s);
        assert!(mve.instances(a) >= 2, "instances {}", mve.instances(a));
        assert!(mve.unroll() >= 2);
        // Register indices rotate.
        let u = i64::from(mve.unroll());
        assert_eq!(mve.reg_index(a, 0), 0);
        assert_eq!(mve.reg_index(a, u), 0);
        assert_ne!(mve.reg_index(a, 1), mve.reg_index(a, 0));
    }

    #[test]
    fn reg_index_handles_negative_iterations() {
        let mut g = Ddg::new("neg");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::IntAlu);
        g.add_dep_carried(a, b, 3);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let mve = MveInfo::compute(&g, &s);
        let u = i64::from(mve.unroll());
        if u > 1 {
            assert_eq!(mve.reg_index(a, -1), mve.reg_index(a, u - 1));
        } else {
            assert_eq!(mve.reg_index(a, -1), 0);
        }
    }

    #[test]
    fn totals_are_consistent() {
        let mut g = Ddg::new("mix");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpMult);
        let c = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep_carried(b, b, 1);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let mve = MveInfo::compute(&g, &s);
        assert!(mve.total_regs() >= mve.minimal_regs());
        assert!(mve.minimal_regs() >= 2); // a and b both produce
    }
}
