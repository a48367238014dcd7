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
use clasp_machine::ClusterId;
use clasp_mrt::ClusterMap;
use clasp_sched::Schedule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

    // The value-carrying inputs of node `v`, in edge order (the shared
    // definition both executions use): `preds[at[v]..at[v + 1]]`.
    let mut at = Vec::with_capacity(n + 1);
    let mut preds: Vec<(NodeId, i64)> = Vec::new();
    at.push(0);
    for v in g.node_ids() {
        preds.extend(
            g.pred_edges(v)
                .filter(|(_, e)| e.src != e.dst && g.op(e.src).kind.produces_value())
                .map(|(_, e)| (e.src, i64::from(e.distance))),
        );
        at.push(preds.len());
    }

    // Values of the last `depth` iterations, in a ring: an input reaches
    // back at most the largest distance, and never before iteration 0.
    // The iteration count bounds the ring too, since a loop's text may
    // carry any `u32` distance.
    let iterations = usize::try_from(n_iterations).unwrap_or(0);
    let reach = preds.iter().map(|&(_, d)| d).max().unwrap_or(0);
    let depth = usize::try_from(reach).map_or(iterations, |r| r.min(iterations)) + 1;
    let mut ring = vec![0u64; depth.checked_mul(n).expect("the ring fits in memory")];
    let mut inputs = Vec::new();
    let mut events = Vec::new();
    for i in 0..n_iterations {
        let row = (i as usize % depth) * n;
        for &node in &topo {
            let v = node.index();
            inputs.clear();
            for &(p, d) in &preds[at[v]..at[v + 1]] {
                let j = i - d;
                inputs.push(if j < 0 {
                    initial(p, j)
                } else {
                    ring[(j as usize % depth) * n + p.index()]
                });
            }
            let kind = g.op(node).kind;
            let value = if kind.is_copy() {
                debug_assert_eq!(inputs.len(), 1, "a copy moves exactly one value");
                inputs[0]
            } else if inputs.is_empty() {
                source(node, i)
            } else {
                combine(node, &inputs)
            };
            ring[row + v] = value;
            if kind == clasp_ddg::OpKind::Store {
                events.push(StoreEvent {
                    node,
                    iteration: i,
                    value,
                });
            }
        }
    }
    events
}

/// Dense slots for the registers a program writes (its preheader's and
/// its ops' destinations), grouped by the value they hold: the registers
/// of value `d` are `names[at[d]..at[d + 1]]`, in first-write order, and
/// a register's slot is its position in `names`. A last group holds the
/// registers of any value that is not a node of the graph, which only a
/// hand-made program names. A value has a few registers (one per cluster
/// file and expansion index it is written under), so finding a slot
/// scans a short run, and nothing is sized by a register's fields.
struct Slots {
    at: Vec<usize>,
    names: Vec<Reg>,
}

impl Slots {
    fn of(nodes: usize, program: &Program) -> Slots {
        let written = || {
            let ops = program.bundles.iter().flat_map(|b| &b.ops);
            let preheader = program.preheader.iter().map(|(reg, _, _)| reg);
            preheader.chain(ops.flat_map(|op| &op.writes))
        };
        let group = |reg: &Reg| reg.def.index().min(nodes);
        // Scatter every written register into its value's group...
        let mut at = vec![0usize; nodes + 2];
        for reg in written() {
            at[group(reg) + 1] += 1;
        }
        for k in 0..=nodes {
            at[k + 1] += at[k];
        }
        let mut next = at.clone();
        let unused = Reg {
            cluster: ClusterId(0),
            def: NodeId(0),
            index: 0,
        };
        let mut all = vec![unused; at[nodes + 1]];
        for reg in written() {
            let k = group(reg);
            all[next[k]] = *reg;
            next[k] += 1;
        }
        // ...then keep each group's distinct registers.
        let mut names = Vec::with_capacity(all.len());
        for k in 0..=nodes {
            let first = names.len();
            for reg in &all[at[k]..at[k + 1]] {
                if !names[first..].contains(reg) {
                    names.push(*reg);
                }
            }
            at[k] = first;
        }
        at[nodes + 1] = names.len();
        Slots { at, names }
    }

    /// The slot of `reg`, if the program writes it anywhere.
    fn get(&self, reg: &Reg) -> Option<usize> {
        let k = reg.def.index().min(self.at.len() - 2);
        let first = self.at[k];
        self.names[first..self.at[k + 1]]
            .iter()
            .position(|r| r == reg)
            .map(|p| first + p)
    }

    /// The slot of a register the program writes.
    fn of_written(&self, reg: &Reg) -> usize {
        self.get(reg).expect("every written register has a slot")
    }
}

/// Execute the emitted program on the clustered register files, modeling
/// write latencies, and collect the store events in issue order.
///
/// Writes land in `(ready cycle, issue order)` order: each bundle first
/// commits every pending write whose latency has elapsed, then its ops
/// read, so two writes of one register that land by the same bundle
/// leave the value of the one that was ready last (or, when both were
/// ready together, issued last).
///
/// # Errors
///
/// [`SimError::UninitializedRead`] when a register is read before any
/// write — a renaming or preheader bug.
pub fn run_program(g: &Ddg, program: &Program) -> Result<Vec<StoreEvent>, SimError> {
    let slots = Slots::of(g.node_count(), program);
    let mut regs: Vec<Option<u64>> = vec![None; slots.names.len()];
    // Preheader: live-in instances, in ascending iteration order.
    for &(reg, node, j) in &program.preheader {
        regs[slots.of_written(&reg)] = Some(initial(node, j));
    }

    // Pending writes, earliest `(ready cycle, sequence)` first.
    let mut pending: BinaryHeap<Reverse<(i64, u64, usize, u64)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut inputs = Vec::new();
    let mut events = Vec::new();

    for bundle in &program.bundles {
        // Commit everything ready by this cycle.
        while let Some(&Reverse((ready, _, at, value))) = pending.peek() {
            if ready > bundle.cycle {
                break;
            }
            pending.pop();
            regs[at] = Some(value);
        }

        for op in &bundle.ops {
            inputs.clear();
            for r in &op.reads {
                match slots.get(r).and_then(|at| regs[at]) {
                    Some(v) => inputs.push(v),
                    None => {
                        return Err(SimError::UninitializedRead {
                            reg: *r,
                            cycle: bundle.cycle,
                        })
                    }
                }
            }
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
            for reg in &op.writes {
                seq += 1;
                pending.push(Reverse((ready, seq, slots.of_written(reg), value)));
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
    // Expected values by (store, iteration): iteration `i` of the store
    // ranked `r` among the graph's stores sits at `i * stores + r`.
    let mut rank = vec![0usize; g.node_count()];
    let mut stores = 0;
    for (n, op) in g.nodes() {
        if op.kind == clasp_ddg::OpKind::Store {
            rank[n.index()] = stores;
            stores += 1;
        }
    }
    let iterations = usize::try_from(n_iterations).unwrap_or(0);
    let mut exp: Vec<Option<u64>> = vec![None; expected.len()];
    for e in &expected {
        exp[e.iteration as usize * stores + rank[e.node.index()]] = Some(e.value);
    }
    for e in got {
        let slot = usize::try_from(e.iteration)
            .ok()
            .filter(|&i| i < iterations)
            .and_then(|i| exp[i * stores + rank[e.node.index()]].take());
        match slot {
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

    fn reg(def: NodeId, index: u32) -> Reg {
        Reg {
            cluster: clasp_machine::ClusterId(0),
            def,
            index,
        }
    }

    fn op(node: NodeId, reads: Vec<Reg>, writes: Vec<Reg>) -> crate::emit::SlotOp {
        crate::emit::SlotOp {
            node,
            iteration: 0,
            reads,
            writes,
        }
    }

    fn hand_program(bundles: Vec<crate::emit::Bundle>) -> Program {
        Program {
            bundles,
            ii: 1,
            stages: 1,
            unroll: 1,
            iterations: 1,
            preheader: Vec::new(),
        }
    }

    #[test]
    fn same_latency_writes_in_one_bundle_commit_in_issue_order() {
        // Two loads write one register in one bundle; both land at cycle
        // 2, and the one issued second is the value left behind.
        let mut g = Ddg::new("waw");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::Load);
        let st = g.add(OpKind::Store);
        let r = reg(a, 0);
        let program = hand_program(vec![
            crate::emit::Bundle {
                cycle: 0,
                ops: vec![op(a, vec![], vec![r]), op(b, vec![], vec![r])],
            },
            crate::emit::Bundle {
                cycle: 2,
                ops: vec![op(st, vec![r], vec![])],
            },
        ]);
        let events = run_program(&g, &program).unwrap();
        assert_eq!(
            events,
            vec![StoreEvent {
                node: st,
                iteration: 0,
                value: combine(st, &[source(b, 0)]),
            }]
        );
    }

    #[test]
    fn a_later_ready_write_wins_over_a_later_issued_one() {
        // A multiply (latency 3) issued at cycle 0 lands at cycle 3; an
        // ALU op (latency 1) issued at cycle 1 lands at cycle 2. A read at
        // cycle 2 sees the ALU value, a read at cycle 3 the multiply's.
        let mut g = Ddg::new("latency");
        let mul = g.add(OpKind::FpMult);
        let alu = g.add(OpKind::IntAlu);
        let early = g.add(OpKind::Store);
        let late = g.add(OpKind::Store);
        let r = reg(mul, 0);
        let program = hand_program(vec![
            crate::emit::Bundle {
                cycle: 0,
                ops: vec![op(mul, vec![], vec![r])],
            },
            crate::emit::Bundle {
                cycle: 1,
                ops: vec![op(alu, vec![], vec![r])],
            },
            crate::emit::Bundle {
                cycle: 2,
                ops: vec![op(early, vec![r], vec![])],
            },
            crate::emit::Bundle {
                cycle: 3,
                ops: vec![op(late, vec![r], vec![])],
            },
        ]);
        let events = run_program(&g, &program).unwrap();
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(
            values,
            vec![
                combine(early, &[source(alu, 0)]),
                combine(late, &[source(mul, 0)]),
            ]
        );
        // Read before either write lands: uninitialized.
        let mut too_soon = program.clone();
        too_soon.bundles[2].cycle = 1;
        too_soon.bundles.swap(1, 2);
        assert_eq!(
            run_program(&g, &too_soon),
            Err(SimError::UninitializedRead { reg: r, cycle: 1 })
        );
    }

    #[test]
    fn registers_of_values_outside_the_graph_still_hold_values() {
        // A hand-made program may name any value in a register; one the
        // graph lacks is written and read like any other.
        let mut g = Ddg::new("foreign");
        let a = g.add(OpKind::Load);
        let st = g.add(OpKind::Store);
        let r = reg(NodeId(99), 3);
        let program = hand_program(vec![
            crate::emit::Bundle {
                cycle: 0,
                ops: vec![op(a, vec![], vec![r])],
            },
            crate::emit::Bundle {
                cycle: 2,
                ops: vec![op(st, vec![r], vec![])],
            },
        ]);
        let events = run_program(&g, &program).unwrap();
        assert_eq!(events[0].value, combine(st, &[source(a, 0)]));
        let unwritten = reg(NodeId(98), 3);
        let mut stray = program.clone();
        stray.bundles[1].ops[0].reads = vec![unwritten];
        assert_eq!(
            run_program(&g, &stray),
            Err(SimError::UninitializedRead {
                reg: unwritten,
                cycle: 2,
            })
        );
    }

    /// A load feeding an add one iteration later, then a store: the
    /// add's first instance reads the load's live-in from the preheader.
    fn carried_loop() -> (Ddg, ClusterMap, Schedule) {
        let mut g = Ddg::new("carried");
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep_carried(a, b, 1);
        g.add_dep(b, st);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &m);
        (g, map, s)
    }

    #[test]
    fn a_dropped_preheader_entry_is_an_uninitialized_read() {
        let (g, map, s) = carried_loop();
        let mut program = emit_program(&g, &map, &s, 4);
        // Every value's instance -1 is primed; the load's is the one read.
        let at = program
            .preheader
            .iter()
            .position(|&(_, node, j)| node == NodeId(0) && j == -1)
            .expect("the load's live-in is primed");
        let (live_in, _, _) = program.preheader.remove(at);
        let first_read = program
            .bundles
            .iter()
            .find(|b| b.ops.iter().any(|o| o.reads.contains(&live_in)))
            .expect("the live-in is read")
            .cycle;
        assert_eq!(
            run_program(&g, &program),
            Err(SimError::UninitializedRead {
                reg: live_in,
                cycle: first_read,
            })
        );
        assert_eq!(
            verify_program(&g, &program, 4),
            Err(SimError::UninitializedRead {
                reg: live_in,
                cycle: first_read,
            })
        );
    }

    #[test]
    fn a_duplicated_store_op_is_an_event_count_error() {
        let (g, map, s) = carried_loop();
        let store = NodeId(2);
        let program = emit_program(&g, &map, &s, 4);
        verify_program(&g, &program, 4).unwrap();
        let at = |p: &Program, iteration: i64| {
            p.bundles
                .iter()
                .enumerate()
                .find_map(|(k, b)| {
                    b.ops
                        .iter()
                        .position(|o| o.node == store && o.iteration == iteration)
                        .map(|j| (k, j))
                })
                .expect("store issued")
        };
        // One store instance issued twice: one event too many.
        let mut twice = program.clone();
        let (k, j) = at(&twice, 1);
        let dup = twice.bundles[k].ops[j].clone();
        twice.bundles[k].ops.push(dup);
        assert_eq!(
            verify_program(&g, &twice, 4),
            Err(SimError::EventCount {
                got: 5,
                expected: 4,
            })
        );
        // The same, with another instance dropped so the totals agree:
        // the second event of iteration 1 has nothing left to match.
        let (k, j) = at(&twice, 3);
        twice.bundles[k].ops.remove(j);
        assert_eq!(
            verify_program(&g, &twice, 4),
            Err(SimError::EventCount {
                got: 1,
                expected: 0,
            })
        );
    }

    #[test]
    fn rotating_programs_verify_at_zero_one_and_sixteen_iterations() {
        // A sample read at distances 0 and 3 (a window of four) plus a
        // carried accumulator, on a rotating file.
        let mut g = Ddg::new("rot");
        let x = g.add(OpKind::Load);
        let m0 = g.add(OpKind::FpMult);
        let m3 = g.add(OpKind::FpMult);
        let acc = g.add(OpKind::FpAdd);
        let st = g.add(OpKind::Store);
        g.add_dep(x, m0);
        g.add_dep_carried(x, m3, 3);
        g.add_dep(m0, acc);
        g.add_dep(m3, acc);
        g.add_dep_carried(acc, acc, 1);
        g.add_dep(acc, st);
        let m = presets::unified_gp(4);
        let s = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
        let map = unified_map(&g, &m);
        let model = RegisterModel::rotating(&g, &s);
        for iterations in [0, 1, 16] {
            let program = emit_program_with(&g, &map, &s, iterations, &model);
            assert_eq!(program.unroll, 1);
            assert_eq!(verify_program(&g, &program, iterations), Ok(()));
            assert_eq!(
                run_program(&g, &program).unwrap().len(),
                iterations as usize
            );
        }
    }
}
