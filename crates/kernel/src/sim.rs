//! Functional simulation of the emitted pipelined program.
//!
//! The strongest correctness check in the workspace: execute the VLIW
//! program — cluster register files, write latencies, modulo-expanded
//! register names, copy transport and all — on symbolic values, and
//! compare every store's input stream against a plain sequential
//! execution of the loop. Any scheduling, renaming, copy-routing or
//! lifetime bug shows up as a value mismatch.
//!
//! Value semantics: a node with no value-carrying inputs (a load, or a
//! root computation) produces `source(node, iteration)`; any other node
//! produces `combine(node, input values)` — notably *independent* of the
//! iteration number, so the executor can only get it right by reading the
//! right registers. Instances from before the first iteration
//! (`iteration < 0`) take the distinguished `initial(node, iteration)`
//! value, mirroring a loop preheader.

use crate::emit::{emit_program, emit_program_with, Program, Reg};
use crate::rrf::RegisterModel;
use clasp_ddg::{Ddg, NodeId};
use clasp_mrt::ClusterMap;
use clasp_sched::Schedule;
use std::collections::HashMap;
use std::fmt;

/// One store's observed input, tagged with its logical iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEvent {
    /// The store node.
    pub node: NodeId,
    /// Logical loop iteration.
    pub iteration: i64,
    /// Combined value of the store's inputs.
    pub value: u64,
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A register was read before any instance wrote it.
    UninitializedRead {
        /// The register read.
        reg: Reg,
        /// Cycle of the offending read.
        cycle: i64,
    },
    /// A store observed a value different from sequential execution.
    Mismatch {
        /// The store node.
        node: NodeId,
        /// Logical iteration.
        iteration: i64,
        /// What the pipelined execution produced.
        got: u64,
        /// What sequential execution produces.
        expected: u64,
    },
    /// The pipelined execution produced a different number of store
    /// events than sequential execution.
    EventCount {
        /// Events observed.
        got: usize,
        /// Events expected.
        expected: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UninitializedRead { reg, cycle } => {
                write!(f, "read of uninitialized register {reg} at cycle {cycle}")
            }
            SimError::Mismatch {
                node,
                iteration,
                got,
                expected,
            } => write!(
                f,
                "store {node} iteration {iteration}: got {got:#x}, expected {expected:#x}"
            ),
            SimError::EventCount { got, expected } => {
                write!(f, "{got} store events, expected {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// SplitMix64-style value mixing.
fn mix(mut h: u64, x: u64) -> u64 {
    h ^= x
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 31)
}

/// Value of a source instance (node with no value inputs) at iteration
/// `i >= 0`.
fn source(node: NodeId, i: i64) -> u64 {
    mix(mix(0x5eed_0000_0000_0001, u64::from(node.0)), i as u64)
}

/// Value of an instance from before the loop (`i < 0`).
fn initial(node: NodeId, i: i64) -> u64 {
    mix(mix(0x1717_0000_0000_0002, u64::from(node.0)), i as u64)
}

/// Combine a node with its ordered input values.
fn combine(node: NodeId, inputs: &[u64]) -> u64 {
    let mut h = mix(0xc0b1_0000_0000_0003, u64::from(node.0));
    for &v in inputs {
        h = mix(h, v);
    }
    h
}

/// The value-carrying inputs of `n`, in edge order (the shared definition
/// both executions use).
fn value_preds(g: &Ddg, n: NodeId) -> Vec<(NodeId, i64)> {
    g.pred_edges(n)
        .filter(|(_, e)| e.src != e.dst && g.op(e.src).kind.produces_value())
        .map(|(_, e)| (e.src, i64::from(e.distance)))
        .collect()
}

/// Sequential reference execution: every node's value per iteration, and
/// the resulting store events.
pub fn reference_stream(g: &Ddg, n_iterations: i64) -> Vec<StoreEvent> {
    // Topological order over intra-iteration edges (the graph is
    // validated acyclic over distance-0 edges).
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    for (_, e) in g.edges() {
        if e.distance == 0 && e.src != e.dst {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut topo: Vec<NodeId> = Vec::with_capacity(n);
    let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = stack.pop() {
        topo.push(NodeId(i as u32));
        for (_, e) in g.succ_edges(NodeId(i as u32)) {
            if e.distance == 0 && e.src != e.dst {
                indeg[e.dst.index()] -= 1;
                if indeg[e.dst.index()] == 0 {
                    stack.push(e.dst.index());
                }
            }
        }
    }
    assert_eq!(topo.len(), n, "graph must be validated");

    let mut values: HashMap<(NodeId, i64), u64> = HashMap::new();
    let mut events = Vec::new();
    for i in 0..n_iterations {
        for &node in &topo {
            let preds = value_preds(g, node);
            let inputs: Vec<u64> = preds
                .iter()
                .map(|&(p, d)| {
                    let j = i - d;
                    if j < 0 {
                        initial(p, j)
                    } else {
                        *values.get(&(p, j)).expect("topo order covers it")
                    }
                })
                .collect();
            let v = if g.op(node).kind.is_copy() {
                debug_assert_eq!(inputs.len(), 1, "a copy moves exactly one value");
                inputs[0]
            } else if inputs.is_empty() {
                source(node, i)
            } else {
                combine(node, &inputs)
            };
            values.insert((node, i), v);
            if g.op(node).kind == clasp_ddg::OpKind::Store {
                events.push(StoreEvent {
                    node,
                    iteration: i,
                    value: v,
                });
            }
        }
        // Trim old iterations to bound memory (keep the farthest
        // loop-carried reach-back window).
        let window = g
            .edges()
            .map(|(_, e)| i64::from(e.distance))
            .max()
            .unwrap_or(0)
            .max(1);
        if i > window {
            let horizon = i - window;
            values.retain(|&(_, j), _| j >= horizon);
        }
    }
    events
}

/// Execute the emitted program on the clustered register files, modeling
/// write latencies, and collect the store events in issue order.
///
/// # Errors
///
/// [`SimError::UninitializedRead`] when a register is read before any
/// write — a renaming or preheader bug.
pub fn run_program(g: &Ddg, program: &Program) -> Result<Vec<StoreEvent>, SimError> {
    let mut regs: HashMap<Reg, u64> = HashMap::new();
    // Preheader: live-in instances, in ascending iteration order.
    for &(reg, node, j) in &program.preheader {
        regs.insert(reg, initial(node, j));
    }

    // Pending writes ordered by (ready cycle, sequence).
    let mut pending: Vec<(i64, u64, Reg, u64)> = Vec::new();
    let mut seq: u64 = 0;
    let mut events = Vec::new();

    for bundle in &program.bundles {
        // Commit everything ready by this cycle.
        pending.sort_by_key(|&(ready, s, _, _)| (ready, s));
        let mut rest = Vec::new();
        for (ready, s, reg, v) in pending.drain(..) {
            if ready <= bundle.cycle {
                regs.insert(reg, v);
            } else {
                rest.push((ready, s, reg, v));
            }
        }
        pending = rest;

        for op in &bundle.ops {
            let inputs: Vec<u64> = op
                .reads
                .iter()
                .map(|r| {
                    regs.get(r).copied().ok_or(SimError::UninitializedRead {
                        reg: *r,
                        cycle: bundle.cycle,
                    })
                })
                .collect::<Result<_, _>>()?;
            let kind = g.op(op.node).kind;
            let value = if kind.is_copy() {
                debug_assert_eq!(inputs.len(), 1, "a copy moves exactly one value");
                inputs[0]
            } else if inputs.is_empty() {
                source(op.node, op.iteration)
            } else {
                combine(op.node, &inputs)
            };
            if kind == clasp_ddg::OpKind::Store {
                events.push(StoreEvent {
                    node: op.node,
                    iteration: op.iteration,
                    value,
                });
            }
            let ready = bundle.cycle + i64::from(kind.latency());
            for &reg in &op.writes {
                seq += 1;
                pending.push((ready, seq, reg, value));
            }
        }
    }
    Ok(events)
}

/// End-to-end verification: emit the pipelined program for `n_iterations`
/// and check every store's value stream against sequential execution.
///
/// A copy node's value is its input (identity), so the comparison is
/// performed against the *original* semantics: stores in the working
/// graph read through copies transparently.
///
/// # Errors
///
/// The first divergence found, as a [`SimError`].
pub fn verify_pipelined(
    g: &Ddg,
    map: &ClusterMap,
    sched: &Schedule,
    n_iterations: i64,
) -> Result<(), SimError> {
    let program = emit_program(g, map, sched, n_iterations);
    verify_program(g, &program, n_iterations)
}

/// As [`verify_pipelined`], with an explicit register-naming model (e.g.
/// [`RegisterModel::rotating`] for a rotating register file).
///
/// # Errors
///
/// The first divergence found, as a [`SimError`].
pub fn verify_pipelined_with(
    g: &Ddg,
    map: &ClusterMap,
    sched: &Schedule,
    n_iterations: i64,
    model: &RegisterModel,
) -> Result<(), SimError> {
    let program = emit_program_with(g, map, sched, n_iterations, model);
    verify_program(g, &program, n_iterations)
}

/// Check an already-emitted `program` of `g` for `n_iterations`: run it
/// and compare every store's value stream against sequential execution,
/// as [`verify_pipelined`] does after emitting. A caller that ships the
/// program verifies the very bytes it ships, without a second emit.
///
/// # Errors
///
/// The first divergence found, as a [`SimError`].
pub fn verify_program(g: &Ddg, program: &Program, n_iterations: i64) -> Result<(), SimError> {
    let got = run_program(g, program)?;
    let expected = reference_stream(g, n_iterations);
    if got.len() != expected.len() {
        return Err(SimError::EventCount {
            got: got.len(),
            expected: expected.len(),
        });
    }
    let mut exp: HashMap<(NodeId, i64), u64> = expected
        .iter()
        .map(|e| ((e.node, e.iteration), e.value))
        .collect();
    for e in got {
        match exp.remove(&(e.node, e.iteration)) {
            Some(v) if v == e.value => {}
            Some(v) => {
                return Err(SimError::Mismatch {
                    node: e.node,
                    iteration: e.iteration,
                    got: e.value,
                    expected: v,
                })
            }
            None => {
                return Err(SimError::EventCount {
                    got: 1,
                    expected: 0,
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;
    use clasp_sched::{schedule_unified, unified_map, SchedulerConfig};

    fn verify_unified(g: &Ddg, width: u32, iters: i64) {
        let m = presets::unified_gp(width);
        let s = schedule_unified(g, &m, SchedulerConfig::default()).unwrap();
        let map = unified_map(g, &m);
        verify_pipelined(g, &map, &s, iters).unwrap_or_else(|e| panic!("{}: {e}", g.name()));
    }

    #[test]
    fn straight_line_verifies() {
        let mut g = Ddg::new("line");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpMult);
        let c = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(b, c);
        verify_unified(&g, 4, 10);
    }

    #[test]
    fn reduction_verifies() {
        let mut g = Ddg::new("red");
        let a = g.add(OpKind::Load);
        let acc = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep(a, acc);
        g.add_dep_carried(acc, acc, 1);
        g.add_dep(acc, st);
        verify_unified(&g, 4, 12);
    }

    #[test]
    fn long_lifetime_exercises_mve() {
        // load consumed three iterations later: forces unroll >= 4 at
        // II = 1.
        let mut g = Ddg::new("mve");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep_carried(a, b, 3);
        g.add_dep(b, st);
        verify_unified(&g, 4, 15);
    }

    #[test]
    fn distance_two_recurrence_verifies() {
        let mut g = Ddg::new("d2");
        let x = g.add(OpKind::Load);
        let f = g.add(OpKind::FpMult);
        let s = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep(x, f);
        g.add_dep(f, s);
        g.add_dep_carried(s, f, 2);
        g.add_dep(s, st);
        verify_unified(&g, 4, 14);
    }

    #[test]
    fn reference_stream_is_deterministic() {
        let mut g = Ddg::new("det");
        let a = g.add(OpKind::Load);
        let st = g.add(OpKind::Store);
        g.add_dep(a, st);
        let x = reference_stream(&g, 5);
        let y = reference_stream(&g, 5);
        assert_eq!(x, y);
        assert_eq!(x.len(), 5);
        // Distinct values per iteration.
        let distinct: std::collections::HashSet<u64> = x.iter().map(|e| e.value).collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn zero_iterations_is_empty() {
        let mut g = Ddg::new("z");
        let a = g.add(OpKind::Load);
        let st = g.add(OpKind::Store);
        g.add_dep(a, st);
        verify_unified(&g, 4, 0);
        assert!(reference_stream(&g, 0).is_empty());
    }

    #[test]
    fn zero_trip_count_verifies_under_both_register_models() {
        // Trip count 0: the preheader primes live-ins but no kernel
        // bundle may execute, under MVE and rotating renaming alike —
        // even with a recurrence whose reach-back would read live-ins.
        let mut g = Ddg::new("z0");
        let a = g.add(OpKind::Load);
        let acc = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep(a, acc);
        g.add_dep_carried(acc, acc, 1);
        g.add_dep(acc, st);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &m);
        for model in [RegisterModel::mve(&g, &s), RegisterModel::rotating(&g, &s)] {
            let program = emit_program_with(&g, &map, &s, 0, &model);
            assert_eq!(run_program(&g, &program).unwrap(), vec![]);
            verify_pipelined_with(&g, &map, &s, 0, &model).unwrap();
        }
    }

    #[test]
    fn single_cluster_zero_bus_machine_runs_end_to_end() {
        // A unified machine with a zero-width bus: no value ever crosses
        // clusters, so compilation and simulation must be oblivious to
        // the missing bandwidth.
        use clasp_machine::{ClusterSpec, Interconnect, MachineSpec};
        let m = MachineSpec::new(
            "solo-nobus",
            vec![ClusterSpec::general(4)],
            Interconnect::Bus {
                buses: 0,
                read_ports: 1,
                write_ports: 1,
            },
        );
        let mut g = Ddg::new("nobus");
        let a = g.add(OpKind::Load);
        let f = g.add(OpKind::FpMult);
        let st = g.add(OpKind::Store);
        g.add_dep(a, f);
        g.add_dep(f, st);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &m);
        verify_pipelined(&g, &map, &s, 9).unwrap();
    }

    #[test]
    fn mismatch_detected_when_schedule_is_wrong() {
        // Hand-build an invalid schedule (consumer before producer value
        // is ready) and check the simulator catches it.
        use std::collections::HashMap as Map;
        let mut g = Ddg::new("bad");
        let a = g.add(OpKind::Load); // lat 2
        let st = g.add(OpKind::Store);
        g.add_dep(a, st);
        let m = presets::unified_gp(4);
        let map = unified_map(&g, &m);
        let mut t = Map::new();
        t.insert(a, 0i64);
        t.insert(st, 1i64); // too early: value ready at 2
        let s = clasp_sched::Schedule::new(4, t);
        let err = verify_pipelined(&g, &map, &s, 4);
        assert!(err.is_err(), "simulator must catch the early read");
    }
}
