//! Rotating register files (Rau et al., PLDI 1992; the Cydra 5 / Itanium
//! mechanism the paper's compiler substrate used).
//!
//! Where modulo variable expansion unrolls the kernel `U` times so each
//! unrolled copy can name its own register, a rotating register file
//! renames in *hardware*: each initiation decrements a rotating base, so
//! iteration `i`'s instance of a value lands at physical register
//! `(offset - i) mod R` with **no kernel unrolling at all**.
//!
//! Allocation follows the classic scheme: each value gets a window of
//! `K_v` consecutive rotating registers (its maximum number of
//! simultaneously live instances); windows are laid out back to back, so
//! the file size is `R = sum K_v`. Because every window slides by the
//! same amount each iteration, distinct values never collide.

use crate::mve::MveInfo;
use clasp_ddg::{Ddg, NodeId};
use clasp_sched::Schedule;

/// A rotating-register-file allocation for one scheduled loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrfInfo {
    /// Window offset per node id; `None` for a node that produces no
    /// value.
    offsets: Vec<Option<i64>>,
    size: i64,
}

impl RrfInfo {
    /// Allocate rotating windows for every value of `g` under `sched`.
    ///
    /// Window sizes are the same per-value instance counts MVE uses
    /// (steady-state overlap plus live-in distance coverage), so both
    /// models are verified by the same simulator.
    pub fn compute(g: &Ddg, sched: &Schedule) -> RrfInfo {
        let mve = MveInfo::compute(g, sched);
        // Deterministic allocation order: node id.
        let mut next = 0i64;
        let offsets = g
            .nodes()
            .map(|(n, op)| {
                op.kind.produces_value().then(|| {
                    let off = next;
                    next += i64::from(mve.instances(n));
                    off
                })
            })
            .collect();
        RrfInfo {
            offsets,
            size: next.max(1),
        }
    }

    /// Physical rotating registers allocated (`R = sum K_v`).
    pub fn size(&self) -> i64 {
        self.size
    }

    /// Physical register holding iteration `i`'s instance of `def`:
    /// `(offset(def) - i) mod R`.
    ///
    /// # Panics
    ///
    /// Panics if `def` produces no value.
    pub fn reg_index(&self, def: NodeId, i: i64) -> u32 {
        let off = self
            .offsets
            .get(def.index())
            .copied()
            .flatten()
            .expect("value-producing node");
        (off - i).rem_euclid(self.size) as u32
    }
}

/// The register-naming model used by kernel emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterModel {
    /// Modulo variable expansion: kernel unrolled, rotation in software.
    Mve(MveInfo),
    /// Rotating register file: no unrolling, rotation in hardware.
    Rotating(RrfInfo),
}

impl RegisterModel {
    /// Build the default (MVE) model.
    pub fn mve(g: &Ddg, sched: &Schedule) -> RegisterModel {
        RegisterModel::Mve(MveInfo::compute(g, sched))
    }

    /// Build the rotating-file model.
    pub fn rotating(g: &Ddg, sched: &Schedule) -> RegisterModel {
        RegisterModel::Rotating(RrfInfo::compute(g, sched))
    }

    /// Register index for iteration `i`'s instance of `def`.
    pub fn reg_index(&self, def: NodeId, i: i64) -> u32 {
        match self {
            RegisterModel::Mve(m) => m.reg_index(def, i),
            RegisterModel::Rotating(r) => r.reg_index(def, i),
        }
    }

    /// Kernel unroll factor implied by the model (always 1 for a
    /// rotating file).
    pub fn unroll(&self) -> u32 {
        match self {
            RegisterModel::Mve(m) => m.unroll(),
            RegisterModel::Rotating(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;
    use clasp_sched::{schedule_unified, SchedulerConfig};

    fn fir_like() -> Ddg {
        // A sample consumed at distances 0..3: windows of 4.
        let mut g = Ddg::new("fir");
        let x = g.add(OpKind::Load);
        let m0 = g.add(OpKind::FpMult);
        let m3 = g.add(OpKind::FpMult);
        let st = g.add(OpKind::Store);
        g.add_dep(x, m0);
        g.add_dep_carried(x, m3, 3);
        g.add_dep(m0, st);
        g.add_dep(m3, st);
        g
    }

    #[test]
    fn windows_are_disjoint() {
        let g = fir_like();
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let rrf = RrfInfo::compute(&g, &s);
        // At any iteration j, the physical registers of all live
        // instances must be distinct.
        let mve = MveInfo::compute(&g, &s);
        for j in 0..12i64 {
            let mut used = std::collections::HashSet::new();
            for (n, op) in g.nodes() {
                if !op.kind.produces_value() {
                    continue;
                }
                for back in 0..i64::from(mve.instances(n)) {
                    let phys = rrf.reg_index(n, j - back);
                    assert!(
                        used.insert(phys),
                        "collision at iteration {j}: {n} instance -{back}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotation_moves_every_iteration() {
        let g = fir_like();
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let rrf = RrfInfo::compute(&g, &s);
        let x = clasp_ddg::NodeId(0);
        let a = rrf.reg_index(x, 0);
        let b = rrf.reg_index(x, 1);
        assert_ne!(a, b, "rotating file renames each iteration");
        // Period R.
        assert_eq!(rrf.reg_index(x, 0), rrf.reg_index(x, rrf.size()));
    }

    #[test]
    fn model_unroll_factors() {
        let g = fir_like();
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let mve = RegisterModel::mve(&g, &s);
        let rot = RegisterModel::rotating(&g, &s);
        assert!(mve.unroll() >= 4, "distance-3 window forces unrolling");
        assert_eq!(rot.unroll(), 1, "hardware rotation needs no unrolling");
    }

    #[test]
    fn size_is_sum_of_windows() {
        let g = fir_like();
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let rrf = RrfInfo::compute(&g, &s);
        let mve = MveInfo::compute(&g, &s);
        let expect: i64 = g
            .nodes()
            .filter(|(_, op)| op.kind.produces_value())
            .map(|(n, _)| i64::from(mve.instances(n)))
            .sum();
        assert_eq!(rrf.size(), expect);
    }
}
