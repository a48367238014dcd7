//! Emission of the software-pipelined loop: a cycle-by-cycle VLIW program
//! (prologue, `U` unrolled kernel copies, epilogue) with fully resolved
//! modulo-expanded register names per cluster register file.

use crate::mve::MveInfo;
use crate::rrf::RegisterModel;
use clasp_ddg::{Ddg, NodeId};
use clasp_machine::ClusterId;
use clasp_mrt::ClusterMap;
use clasp_sched::Schedule;
use std::fmt;

/// A register in one cluster's register file: the `index`-th
/// modulo-expanded register of the value produced by `def`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg {
    /// Which cluster's register file.
    pub cluster: ClusterId,
    /// The value (producing node of the working graph).
    pub def: NodeId,
    /// Modulo-expansion index (`iteration mod U`, or 0 when unexpanded).
    pub index: u32,
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:r{}_{}", self.cluster, self.def.0, self.index)
    }
}

/// One operation instance in a VLIW bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotOp {
    /// The working-graph node.
    pub node: NodeId,
    /// Which logical loop iteration this instance belongs to.
    pub iteration: i64,
    /// Source registers, one per value-carrying incoming edge, in edge
    /// order.
    pub reads: Vec<Reg>,
    /// Destination registers (the op's own cluster, plus each copy
    /// target's file for copies). Empty for stores and branches.
    pub writes: Vec<Reg>,
}

/// All operations issued in one cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bundle {
    /// Issue cycle (0-based from the first issue of iteration 0).
    pub cycle: i64,
    /// Operations issued this cycle.
    pub ops: Vec<SlotOp>,
}

/// A fully emitted pipelined execution of `n_iterations` of the loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Bundles in cycle order (cycles with no issue are omitted).
    pub bundles: Vec<Bundle>,
    /// The initiation interval.
    pub ii: u32,
    /// Pipeline depth in stages.
    pub stages: i64,
    /// MVE unroll factor of the kernel.
    pub unroll: u32,
    /// Iterations emitted.
    pub iterations: i64,
    /// Loop-preheader register initialization: for every value and every
    /// negative iteration a consumer can reach (`-maxdist..0`), the
    /// register that instance would occupy. Listed in ascending iteration
    /// order so a later instance correctly overwrites an earlier one that
    /// shares a register.
    pub preheader: Vec<(Reg, NodeId, i64)>,
}

impl Program {
    /// Total cycles from first to last issue (inclusive), 0 if empty.
    pub fn span(&self) -> i64 {
        match (self.bundles.first(), self.bundles.last()) {
            (Some(a), Some(b)) => b.cycle - a.cycle + 1,
            _ => 0,
        }
    }

    /// Number of operation instances issued.
    pub fn issue_count(&self) -> usize {
        self.bundles.iter().map(|b| b.ops.len()).sum()
    }
}

/// The register files of every node, resolved once per emission. Node
/// `n` reads the values `reads[read_at[n]..read_at[n + 1]]` (producer and
/// dependence distance, one per value-carrying incoming edge in edge
/// order) from its own cluster's file, and writes its value into the
/// files `writes[write_at[n]..write_at[n + 1]]` (its own cluster, or each
/// copy target; none for stores and branches).
struct Files {
    cluster: Vec<ClusterId>,
    read_at: Vec<usize>,
    reads: Vec<(NodeId, i64)>,
    write_at: Vec<usize>,
    writes: Vec<ClusterId>,
}

impl Files {
    fn resolve(g: &Ddg, map: &ClusterMap) -> Files {
        let n = g.node_count();
        let mut files = Files {
            cluster: Vec::with_capacity(n),
            read_at: Vec::with_capacity(n + 1),
            reads: Vec::with_capacity(g.edge_count()),
            write_at: Vec::with_capacity(n + 1),
            writes: Vec::with_capacity(n),
        };
        files.read_at.push(0);
        files.write_at.push(0);
        for node in g.node_ids() {
            let cluster = map.cluster_of(node).expect("node assigned");
            for (_, e) in g.pred_edges(node) {
                // Self edges carry no register operand here, and
                // precedence-only edges carry no value.
                if e.src != e.dst && g.op(e.src).kind.produces_value() {
                    files.reads.push((e.src, i64::from(e.distance)));
                }
            }
            if g.op(node).kind.produces_value() {
                match map.copy_meta(node) {
                    Some(meta) => files.writes.extend_from_slice(&meta.targets),
                    None => files.writes.push(cluster),
                }
            }
            files.cluster.push(cluster);
            files.read_at.push(files.reads.len());
            files.write_at.push(files.writes.len());
        }
        files
    }

    /// The source registers of `node` at logical iteration `i`.
    fn reads(&self, model: &RegisterModel, node: NodeId, i: i64) -> Vec<Reg> {
        let n = node.index();
        let cluster = self.cluster[n];
        self.reads[self.read_at[n]..self.read_at[n + 1]]
            .iter()
            .map(|&(def, distance)| Reg {
                cluster,
                def,
                index: model.reg_index(def, i - distance),
            })
            .collect()
    }

    /// The destination registers of `node` at logical iteration `i`.
    fn writes(&self, model: &RegisterModel, node: NodeId, i: i64) -> Vec<Reg> {
        let n = node.index();
        let files = &self.writes[self.write_at[n]..self.write_at[n + 1]];
        if files.is_empty() {
            return Vec::new();
        }
        let index = model.reg_index(node, i);
        files
            .iter()
            .map(|&cluster| Reg {
                cluster,
                def: node,
                index,
            })
            .collect()
    }
}

/// Emit the full pipelined program for `n_iterations` of the scheduled,
/// cluster-annotated loop. Iteration `i`'s instance of a node scheduled
/// at cycle `t` issues at `t - t_min + i * II`.
///
/// # Panics
///
/// Panics if some node is unscheduled or unassigned, or
/// `n_iterations < 0`.
pub fn emit_program(g: &Ddg, map: &ClusterMap, sched: &Schedule, n_iterations: i64) -> Program {
    let model = RegisterModel::Mve(MveInfo::compute(g, sched));
    emit_program_with(g, map, sched, n_iterations, &model)
}

/// As [`emit_program`], with an explicit register-naming model: modulo
/// variable expansion (software renaming, kernel unrolled) or a rotating
/// register file (hardware renaming, no unrolling).
///
/// # Panics
///
/// As [`emit_program`].
pub fn emit_program_with(
    g: &Ddg,
    map: &ClusterMap,
    sched: &Schedule,
    n_iterations: i64,
    model: &RegisterModel,
) -> Program {
    assert!(n_iterations >= 0);
    let ii = i64::from(sched.ii());
    let start: Vec<i64> = g
        .node_ids()
        .map(|n| sched.start(n).expect("scheduled"))
        .collect();
    let files = Files::resolve(g, map);
    // Normalize so the earliest issue of iteration 0 is cycle 0.
    let t_min = start.iter().copied().min().unwrap_or(0);
    let t_max = start.iter().copied().max().unwrap_or(0);
    let stages = if g.node_count() == 0 {
        0
    } else {
        (t_max - t_min).div_euclid(ii) + 1
    };

    // Every instance, in issue order: by cycle, then node, then
    // iteration. Cycles come from the schedule, which a decoded artifact
    // does not vouch for, so nothing here is sized by the cycle span.
    let instances = usize::try_from(n_iterations)
        .unwrap_or(0)
        .saturating_mul(g.node_count());
    let mut order: Vec<(i64, NodeId, i64)> = Vec::with_capacity(instances);
    for i in 0..n_iterations {
        for n in g.node_ids() {
            order.push((start[n.index()] - t_min + i * ii, n, i));
        }
    }
    // An instance's cycle and node name it (its iteration follows).
    order.sort_unstable_by_key(|&(cycle, node, _)| (cycle, node));
    let bundles = order
        .chunk_by(|a, b| a.0 == b.0)
        .map(|same_cycle| Bundle {
            cycle: same_cycle[0].0,
            ops: same_cycle
                .iter()
                .map(|&(_, node, i)| SlotOp {
                    node,
                    iteration: i,
                    reads: files.reads(model, node, i),
                    writes: files.writes(model, node, i),
                })
                .collect(),
        })
        .collect();

    // Preheader: live-in instances from iterations a carried consumer can
    // reach back to.
    let max_dist = g
        .edges()
        .map(|(_, e)| i64::from(e.distance))
        .max()
        .unwrap_or(0);
    let mut preheader = Vec::new();
    for j in -max_dist..0 {
        for n in g.node_ids() {
            for reg in files.writes(model, n, j) {
                preheader.push((reg, n, j));
            }
        }
    }

    Program {
        bundles,
        ii: sched.ii(),
        stages,
        unroll: model.unroll(),
        iterations: n_iterations,
        preheader,
    }
}

/// Render the steady-state kernel as a human-readable table: one row per
/// kernel cycle (`II` rows), each listing `op@stage` per cluster.
pub fn kernel_table(g: &Ddg, map: &ClusterMap, sched: &Schedule, clusters: usize) -> String {
    use std::fmt::Write as _;
    let ii = i64::from(sched.ii());
    let t_min = g
        .node_ids()
        .filter_map(|n| sched.start(n))
        .min()
        .unwrap_or(0);
    let mut cells: Vec<Vec<Vec<String>>> = vec![vec![Vec::new(); clusters]; ii as usize];
    for (n, op) in g.nodes() {
        let t = sched.start(n).expect("scheduled") - t_min;
        let row = t.rem_euclid(ii) as usize;
        let stage = t.div_euclid(ii);
        let c = map.cluster_of(n).expect("assigned").index();
        cells[row][c].push(format!("{}@{}", op.label(), stage));
    }
    let mut s = String::new();
    let _ = writeln!(s, "kernel (II = {ii}):");
    for (row, per_cluster) in cells.iter().enumerate() {
        let _ = write!(s, "  row {row}:");
        for (c, ops) in per_cluster.iter().enumerate() {
            let _ = write!(s, "  C{c}[{}]", ops.join(" "));
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;
    use clasp_sched::{schedule_unified, unified_map, SchedulerConfig};

    fn simple_loop() -> Ddg {
        let mut g = Ddg::new("axpy");
        let x = g.add(OpKind::Load);
        let m = g.add(OpKind::FpMult);
        let s = g.add(OpKind::Store);
        g.add_dep(x, m);
        g.add_dep(m, s);
        g
    }

    #[test]
    fn program_issues_every_instance_once() {
        let g = simple_loop();
        let mach = presets::unified_gp(4);
        let sched = schedule_unified(&g, &mach, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &mach);
        let p = emit_program(&g, &map, &sched, 5);
        assert_eq!(p.issue_count(), 5 * g.node_count());
        assert_eq!(p.iterations, 5);
        // Iteration instances are II apart.
        let issues: Vec<(i64, i64)> = p
            .bundles
            .iter()
            .flat_map(|b| {
                b.ops
                    .iter()
                    .filter(|o| o.node == NodeId(0))
                    .map(move |o| (o.iteration, b.cycle))
            })
            .collect();
        for w in issues.windows(2) {
            assert_eq!(w[1].1 - w[0].1, i64::from(p.ii));
        }
    }

    #[test]
    fn writes_and_reads_resolve() {
        let g = simple_loop();
        let mach = presets::unified_gp(4);
        let sched = schedule_unified(&g, &mach, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &mach);
        let p = emit_program(&g, &map, &sched, 1);
        let fmul = p
            .bundles
            .iter()
            .flat_map(|b| &b.ops)
            .find(|o| o.node == NodeId(1))
            .unwrap();
        assert_eq!(fmul.reads.len(), 1);
        assert_eq!(fmul.reads[0].def, NodeId(0));
        assert_eq!(fmul.writes.len(), 1);
        let store = p
            .bundles
            .iter()
            .flat_map(|b| &b.ops)
            .find(|o| o.node == NodeId(2))
            .unwrap();
        assert!(store.writes.is_empty());
        assert_eq!(store.reads[0].def, NodeId(1));
    }

    #[test]
    fn empty_loop_emits_nothing() {
        let g = Ddg::new("empty");
        let mach = presets::unified_gp(4);
        let sched = schedule_unified(&g, &mach, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &mach);
        let p = emit_program(&g, &map, &sched, 3);
        assert_eq!(p.issue_count(), 0);
        assert_eq!(p.span(), 0);
    }

    #[test]
    fn kernel_table_renders() {
        let g = simple_loop();
        let mach = presets::unified_gp(2);
        let sched = schedule_unified(&g, &mach, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &mach);
        let table = kernel_table(&g, &map, &sched, 1);
        assert!(table.contains("kernel (II ="));
        assert!(table.contains("row 0:"));
        assert!(table.contains('@'));
    }

    #[test]
    fn stage_count_matches_schedule() {
        let g = simple_loop();
        let mach = presets::unified_gp(1);
        let sched = schedule_unified(&g, &mach, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &mach);
        let p = emit_program(&g, &map, &sched, 2);
        assert!(p.stages >= 1);
        assert!(p.span() >= i64::from(p.ii) * 2);
    }
}
