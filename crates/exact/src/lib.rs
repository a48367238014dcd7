//! Exact SAT-based modulo-scheduling backend.
//!
//! The heuristic pipeline (clasp-core + clasp-sched) finds *a* schedule;
//! this crate finds the provably minimal II for small loops by lowering
//! the whole clustered placement problem — node→(cluster, cycle, FU),
//! per-row resource exclusivity including interconnect transport, and
//! dependence arcs with carried distances — into CNF at a fixed II and
//! iterating II upward from MII. The first satisfiable II is minimal
//! under the encoder's single-hop copy-routing model and flat time
//! horizon (see the `encode` module docs for both caveats), and every
//! SAT model decodes into an [`Assignment`] + [`Schedule`] pair that
//! passes the project's independent validators.
//!
//! The minimal-II query [`exact_ii`] is witness-first: MII is a lower
//! bound on every schedule, so one heuristic schedule at MII that
//! [`lift_witness`] pins onto the encoding proves the answer, and the
//! search runs only when no such witness lifts. A lift is a check, not a
//! search: the pins are asserted as the CNF is built, so the solver keeps
//! only the clauses they leave open, and [`Solver::solve`] first tries
//! the assignment in which every unassigned variable reads its saved
//! phase, which answers the lift without a decision whenever it
//! satisfies every stored clause.
//!
//! The solver underneath ([`Solver`]) is a self-contained CDCL core —
//! two-watched literals, first-UIP learning, VSIDS-style activities,
//! Luby restarts, deterministic tie-breaking — with no dependencies, so
//! the whole backend stays `std`-only and bit-reproducible across runs
//! and thread counts.
//!
//! ```
//! use clasp_ddg::{Ddg, OpKind};
//! use clasp_machine::presets;
//! use clasp_exact::{exact_schedule, ExactConfig};
//!
//! let mut g = Ddg::new("pair");
//! let a = g.add(OpKind::Load);
//! let b = g.add(OpKind::IntAlu);
//! g.add_dep(a, b);
//! let m = presets::two_cluster_gp(2, 1);
//! let (assignment, schedule) = exact_schedule(&g, &m, ExactConfig::default()).unwrap();
//! assert_eq!(assignment.ii, 1); // provably minimal
//! assert_eq!(schedule.ii(), 1);
//! ```

mod encode;
mod solver;

pub use encode::LiftError;
pub use solver::{add_at_most_k, add_exactly_one, Lit, Outcome, Solver, Var};

use clasp_core::{validate_assignment, AssignConfig, Assignment};
use clasp_ddg::{Ddg, NodeId};
use clasp_machine::MachineSpec;
use clasp_sched::{
    ii_search_range, iterative_schedule, validate_schedule, SchedFailure, Schedule, SchedulerConfig,
};

/// Resource caps for the exact backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// Conflict budget **per II attempt**. Exceeding it aborts the whole
    /// search with [`SchedFailure::Budget`] (the II is neither proved
    /// feasible nor infeasible, so "minimal" can no longer be claimed).
    pub max_conflicts: u64,
    /// Refuse instances with more nodes than this before encoding
    /// anything (surfaced as [`SchedFailure::Budget`] with
    /// `conflicts == 0`). CNF size grows with nodes × horizon; past a
    /// few dozen nodes exactness is not worth the wait.
    pub max_nodes: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_conflicts: 200_000,
            max_nodes: 20,
        }
    }
}

/// How one fixed-II attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IiOutcome {
    /// SAT — a schedule exists at this II.
    Feasible,
    /// UNSAT — proved impossible at this II.
    Infeasible,
    /// Conflict budget spent with no answer.
    Budget,
}

/// Diagnostics for one fixed-II solver run, reported through the
/// observer of [`exact_schedule_with`] (and from there into obs attempt
/// spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IiAttempt {
    /// The II attempted.
    pub ii: u32,
    /// Conflicts spent on this attempt.
    pub conflicts: u64,
    /// CNF variables in the encoding.
    pub vars: usize,
    /// Flat time horizon of the encoding.
    pub horizon: usize,
    /// The verdict.
    pub outcome: IiOutcome,
}

/// Solve one fixed II exactly.
///
/// # Errors
///
/// [`SchedFailure::Infeasible`] carries the UNSAT certificate at `ii`;
/// [`SchedFailure::Budget`] reports a spent conflict budget or an
/// instance over the node cap.
pub fn exact_at_ii(
    g: &Ddg,
    machine: &MachineSpec,
    ii: u32,
    config: ExactConfig,
) -> Result<(Assignment, Schedule), SchedFailure> {
    let nodes = g.node_count();
    if nodes > config.max_nodes {
        return Err(SchedFailure::Budget {
            conflicts: 0,
            nodes,
        });
    }
    let mut enc = encode::encode(g, machine, ii, None);
    match enc.solver.solve(config.max_conflicts) {
        Outcome::Sat(model) => Ok(enc.decode(g, machine, ii, &model, 1)),
        Outcome::Unsat => Err(SchedFailure::Infeasible { ii }),
        Outcome::Unknown => Err(SchedFailure::Budget {
            conflicts: enc.solver.conflicts(),
            nodes,
        }),
    }
}

/// Find the provably minimal II: iterate II upward from the machine's
/// MII, solving each exactly, and return the first feasible schedule.
///
/// Every II below the returned one carries an UNSAT certificate, so the
/// result is minimal (under single-hop copy routing). The search range
/// is [`ii_search_range`], the range the heuristic escalation loop uses.
///
/// # Errors
///
/// [`SchedFailure::MiiUnbounded`] when some operation has no unit
/// anywhere; [`SchedFailure::Budget`] when the instance is over the node
/// cap or a conflict budget runs dry mid-search; [`SchedFailure::
/// Exhausted`] when every II in range is proved infeasible.
pub fn exact_schedule(
    g: &Ddg,
    machine: &MachineSpec,
    config: ExactConfig,
) -> Result<(Assignment, Schedule), SchedFailure> {
    exact_schedule_with(g, machine, config, &mut |_| {})
}

/// [`exact_schedule`] with an observer called after every fixed-II
/// attempt — the hook the driver uses to record II trajectories and obs
/// spans.
pub fn exact_schedule_with(
    g: &Ddg,
    machine: &MachineSpec,
    config: ExactConfig,
    observe: &mut dyn FnMut(&IiAttempt),
) -> Result<(Assignment, Schedule), SchedFailure> {
    let nodes = g.node_count();
    if nodes > config.max_nodes {
        return Err(SchedFailure::Budget {
            conflicts: 0,
            nodes,
        });
    }
    let (min_ii, max_ii) = ii_search_range(g, machine.mii(g), None)?;
    let mut attempts = 0u32;
    for ii in min_ii..=max_ii {
        let mut enc = encode::encode(g, machine, ii, None);
        attempts += 1;
        let outcome = enc.solver.solve(config.max_conflicts);
        let mut attempt = IiAttempt {
            ii,
            conflicts: enc.solver.conflicts(),
            vars: enc.num_vars(),
            horizon: enc.horizon(),
            outcome: IiOutcome::Budget,
        };
        match outcome {
            Outcome::Sat(model) => {
                attempt.outcome = IiOutcome::Feasible;
                observe(&attempt);
                return Ok(enc.decode(g, machine, ii, &model, attempts));
            }
            Outcome::Unsat => {
                attempt.outcome = IiOutcome::Infeasible;
                observe(&attempt);
            }
            Outcome::Unknown => {
                observe(&attempt);
                return Err(SchedFailure::Budget {
                    conflicts: attempt.conflicts,
                    nodes,
                });
            }
        }
    }
    Err(SchedFailure::Exhausted {
        min_ii,
        max_ii,
        last: Some(Box::new(SchedFailure::Infeasible { ii: max_ii })),
    })
}

/// Check that the encoding at `schedule`'s II accepts a witness: pin its
/// placement, issue cycles and copies onto the encoding's primary
/// literals, solve, and decode the model through the validators.
///
/// The witness is checked first (`validate_assignment`,
/// `validate_schedule`), then normalized: every node keeps its kernel row
/// and takes its least stage, which keeps a valid schedule valid. Each
/// primary variable is asserted to its pinned value, both polarities, as
/// the encoder makes it, so every later clause the witness satisfies is
/// dropped as it is added. The solve then reads each unassigned
/// auxiliary variable's saved phase (`false`); where that satisfies the
/// clauses left, as on machines whose clusters have one kind of unit,
/// the lift makes no decision, and otherwise the CDCL loop runs. `Ok`
/// proves the II feasible for the encoding and shows that it admits this
/// particular schedule.
///
/// # Errors
///
/// See [`LiftError`]. [`LiftError::Rejected`] means the encoding refuses
/// a valid schedule it can express; every other variant says the witness
/// does not apply or was not checked.
pub fn lift_witness(
    g: &Ddg,
    machine: &MachineSpec,
    assignment: &Assignment,
    schedule: &Schedule,
    config: ExactConfig,
) -> Result<(), LiftError> {
    let invalid = |reason: String| LiftError::Invalid { reason };
    let wg = &assignment.graph;
    validate_assignment(g, machine, assignment).map_err(|e| invalid(e.to_string()))?;
    validate_schedule(wg, machine, &assignment.map, schedule)
        .map_err(|e| invalid(e.to_string()))?;
    if wg
        .edges()
        .any(|(_, e)| wg.op(e.src).kind.is_copy() && wg.op(e.dst).kind.is_copy())
    {
        return Err(LiftError::CopyChain);
    }
    if g.node_count() > config.max_nodes {
        return Err(LiftError::Budget);
    }
    let ii = schedule.ii();
    let times = encode::least_stage_times(wg, schedule);
    let horizon = encode::horizon(g, ii);
    if let Some((i, &cycle)) = times
        .iter()
        .enumerate()
        .find(|&(_, &t)| t >= horizon as i64)
    {
        return Err(LiftError::OutsideHorizon {
            node: NodeId(i as u32),
            cycle,
            horizon,
        });
    }
    let pins = encode::Pins::new(g, machine, assignment, &times)?;
    let mut enc = encode::encode(g, machine, ii, Some(&pins));
    match enc.solver.solve(config.max_conflicts) {
        Outcome::Sat(model) => {
            // Decoding replays the model through both validators.
            enc.decode(g, machine, ii, &model, 1);
            Ok(())
        }
        Outcome::Unsat => Err(LiftError::Rejected { ii }),
        Outcome::Unknown => Err(LiftError::Budget),
    }
}

/// One heuristic schedule at the clustered MII: the assigner capped at
/// MII, then one iterative-scheduler attempt. `None` when either misses.
fn heuristic_at_mii(g: &Ddg, machine: &MachineSpec) -> Option<(Assignment, Schedule)> {
    let mii = machine.mii(g);
    if mii == u32::MAX {
        return None;
    }
    let ii = mii.max(1);
    let config = AssignConfig {
        max_ii: Some(ii),
        ..AssignConfig::default()
    };
    let assignment = clasp_core::assign_from(g, machine, config, ii).ok()?;
    let schedule = iterative_schedule(
        &assignment.graph,
        machine,
        &assignment.map,
        ii,
        SchedulerConfig::default(),
    )
    .ok()?;
    Some((assignment, schedule))
}

/// The provably minimal II alone (the oracle's and gap table's query).
///
/// Witness-first: a heuristic schedule at MII that [`lift_witness`]
/// accepts proves MII feasible, and MII lower-bounds every schedule, so
/// it is returned without a search. Otherwise (the heuristic misses MII,
/// or its schedule does not lift) this is [`exact_schedule`]'s II.
///
/// # Errors
///
/// Same as [`exact_schedule`].
pub fn exact_ii(g: &Ddg, machine: &MachineSpec, config: ExactConfig) -> Result<u32, SchedFailure> {
    if let Some((assignment, schedule)) = heuristic_at_mii(g, machine) {
        if lift_witness(g, machine, &assignment, &schedule, config).is_ok() {
            return Ok(schedule.ii());
        }
    }
    exact_schedule(g, machine, config).map(|(a, _)| a.ii)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    #[test]
    fn single_node_runs_at_ii_one() {
        let mut g = Ddg::new("one");
        g.add(OpKind::IntAlu);
        let m = presets::unified_gp(2);
        let (a, s) = exact_schedule(&g, &m, ExactConfig::default()).unwrap();
        assert_eq!(a.ii, 1);
        assert_eq!(s.ii(), 1);
        assert_eq!(a.copy_count(), 0);
    }

    #[test]
    fn resource_bound_chain_on_narrow_machine() {
        // 4 independent IntAlu on a 1-wide unified machine: ResMII = 4.
        let mut g = Ddg::new("res4");
        for _ in 0..4 {
            g.add(OpKind::IntAlu);
        }
        let m = presets::unified_gp(1);
        assert_eq!(exact_ii(&g, &m, ExactConfig::default()).unwrap(), 4);
    }

    #[test]
    fn recurrence_bound_is_proved() {
        // a -> b (lat 1) and carried b -> a at distance 1: RecMII = 2.
        let mut g = Ddg::new("rec2");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1);
        let m = presets::unified_gp(4);
        assert_eq!(m.mii(&g), 2);
        assert_eq!(exact_ii(&g, &m, ExactConfig::default()).unwrap(), 2);
        assert!(matches!(
            exact_at_ii(&g, &m, 1, ExactConfig::default()),
            Err(SchedFailure::Infeasible { ii: 1 })
        ));
    }

    #[test]
    fn node_cap_refuses_before_encoding() {
        let mut g = Ddg::new("big");
        for _ in 0..5 {
            g.add(OpKind::IntAlu);
        }
        let m = presets::unified_gp(2);
        let cfg = ExactConfig {
            max_nodes: 4,
            ..ExactConfig::default()
        };
        assert!(matches!(
            exact_schedule(&g, &m, cfg),
            Err(SchedFailure::Budget {
                conflicts: 0,
                nodes: 5
            })
        ));
    }

    #[test]
    fn unbounded_mii_is_reported() {
        use clasp_machine::{ClusterSpec, Interconnect, MachineSpec};
        let mut g = Ddg::new("fp");
        g.add(OpKind::FpAdd);
        // Integer-only cluster: FpAdd has no unit anywhere.
        let m = MachineSpec::new(
            "int-only",
            vec![ClusterSpec {
                general: 0,
                memory: 1,
                integer: 1,
                float: 0,
            }],
            Interconnect::None,
        );
        assert!(matches!(
            exact_schedule(&g, &m, ExactConfig::default()),
            Err(SchedFailure::MiiUnbounded)
        ));
    }

    #[test]
    fn crossing_on_two_cluster_machine_inserts_copies() {
        // 9 ops cannot fit one 4-wide cluster at II = 2, so the exact
        // backend must spill to the second cluster and route copies.
        let mut g = Ddg::new("fan");
        let p = g.add(OpKind::Load);
        for _ in 0..8 {
            let x = g.add(OpKind::IntAlu);
            g.add_dep(p, x);
        }
        let m = presets::two_cluster_gp(2, 1);
        let (a, s) = exact_schedule(&g, &m, ExactConfig::default()).unwrap();
        assert_eq!(a.ii, 2, "9 ops over 2x4-wide clusters need II 2");
        assert!(a.copy_count() > 0, "the fan must cross clusters");
        assert_eq!(s.ii(), 2);
    }

    #[test]
    fn observer_sees_every_attempt_in_order() {
        let mut g = Ddg::new("rec2");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g.add_dep_carried(b, a, 1);
        let m = presets::unified_gp(1);
        let mut seen = Vec::new();
        let _ = exact_schedule_with(&g, &m, ExactConfig::default(), &mut |at| {
            seen.push((at.ii, at.outcome));
        })
        .unwrap();
        assert_eq!(
            seen.last().map(|&(ii, o)| (ii, o)),
            Some((2, IiOutcome::Feasible))
        );
        assert!(seen.iter().all(|&(_, o)| o != IiOutcome::Budget));
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Acceptance floor: the default budget proves a minimal II on at
    /// least 95% of small (<= 12 node) generated loops. On the same loops
    /// the encoding never rejects a heuristic schedule at MII, a lifted
    /// answer equals the search's, and on the bused machines some answers
    /// come from a lift. (Where no witness lifts, [`exact_ii`] is the
    /// search itself, so it is not run twice.)
    #[test]
    fn proves_small_loopgen_corpus() {
        let corpus = clasp_loopgen::generate_corpus(clasp_loopgen::CorpusConfig {
            loops: 60,
            scc_loops: 14,
            seed: 0,
        });
        let small: Vec<_> = corpus
            .into_iter()
            .filter(|g| g.node_count() <= 12)
            .collect();
        assert!(small.len() >= 20, "corpus should contain small loops");
        let cfg = ExactConfig::default();
        for m in [
            presets::two_cluster_gp(2, 1),
            presets::two_cluster_fs(2, 1),
            presets::four_cluster_grid(2),
        ] {
            let (mut proved, mut lifted) = (0usize, 0usize);
            for g in &small {
                let answer = exact_ii(g, &m, cfg).ok();
                proved += usize::from(answer.is_some());
                let Some((a, s)) = heuristic_at_mii(g, &m) else {
                    continue;
                };
                match lift_witness(g, &m, &a, &s, cfg) {
                    Ok(()) => {
                        lifted += 1;
                        let searched = exact_schedule(g, &m, cfg).ok().map(|(a, _)| a.ii);
                        assert_eq!(answer, searched, "{} on {}", g.name(), m.name());
                    }
                    Err(e @ LiftError::Rejected { .. }) => {
                        panic!("{} on {}: {e}", g.name(), m.name())
                    }
                    Err(_) => {}
                }
            }
            assert!(
                proved * 100 >= small.len() * 95,
                "exact backend proved only {proved}/{} small loops on {}",
                small.len(),
                m.name()
            );
            if m.interconnect().is_broadcast() {
                assert!(lifted > 0, "no witness lifted on {}", m.name());
            }
        }
    }

    #[test]
    fn a_schedule_past_the_horizon_is_reported_and_the_search_still_answers() {
        // Five chained single-cycle ops on a one-wide machine at II 5,
        // issued at cycles 0, 4, 8, 12, 16 (rows 0, 4, 3, 2, 1): valid,
        // in normal form, and 17 cycles long against a horizon of 13.
        let mut g = Ddg::new("chain5");
        let ids: Vec<NodeId> = (0..5).map(|_| g.add(OpKind::IntAlu)).collect();
        for w in ids.windows(2) {
            g.add_dep(w[0], w[1]);
        }
        let m = presets::unified_gp(1);
        let a = Assignment {
            graph: g.clone(),
            map: clasp_sched::unified_map(&g, &m),
            ii: 5,
            stats: clasp_core::AssignStats::default(),
        };
        let s = Schedule::new(5, ids.into_iter().zip([0, 4, 8, 12, 16]));
        assert!(validate_schedule(&a.graph, &m, &a.map, &s).is_ok());
        assert_eq!(
            lift_witness(&g, &m, &a, &s, ExactConfig::default()),
            Err(LiftError::OutsideHorizon {
                node: NodeId(4),
                cycle: 16,
                horizon: 13
            })
        );
        let (searched, _) = exact_schedule(&g, &m, ExactConfig::default()).unwrap();
        assert_eq!(searched.ii, 5);
        assert_eq!(exact_ii(&g, &m, ExactConfig::default()).unwrap(), 5);
    }

    #[test]
    fn a_consumer_issued_before_its_operand_is_invalid_not_repaired() {
        // Load (latency 2) feeding an add at II 1: every cycle is row 0,
        // so least-stage normalization alone would move the early add
        // back to cycle 2 and lift it.
        let mut g = Ddg::new("early");
        let ld = g.add(OpKind::Load);
        let add = g.add(OpKind::IntAlu);
        g.add_dep(ld, add);
        let m = presets::unified_gp(2);
        let (a, s) = heuristic_at_mii(&g, &m).unwrap();
        assert_eq!(lift_witness(&g, &m, &a, &s, ExactConfig::default()), Ok(()));
        let early = Schedule::new(
            s.ii(),
            [(ld, s.start(ld).unwrap()), (add, s.start(ld).unwrap() + 1)],
        );
        assert!(matches!(
            lift_witness(&g, &m, &a, &early, ExactConfig::default()),
            Err(LiftError::Invalid { .. })
        ));
    }

    #[test]
    fn a_copy_chain_is_reported() {
        use clasp_ddg::{DepEdge, Operation};
        use clasp_machine::{ClusterId, LinkId};
        use clasp_mrt::{ClusterMap, CopyMeta};
        // C0 -> C1 -> C3 on the 2x2 grid, which has no C0-C3 link.
        let mut g = Ddg::new("two-hop");
        let p = g.add(OpKind::IntAlu);
        let c = g.add(OpKind::IntAlu);
        g.add_dep(p, c);
        let m = presets::four_cluster_grid(2);
        let mut wg = Ddg::new("two-hop");
        wg.add(OpKind::IntAlu);
        wg.add(OpKind::IntAlu);
        let k1 = wg.add_op(Operation::new(OpKind::Copy));
        let k2 = wg.add_op(Operation::new(OpKind::Copy));
        for (src, dst) in [(p, k1), (k1, k2), (k2, c)] {
            wg.add_edge(DepEdge {
                src,
                dst,
                latency: 1,
                distance: 0,
            });
        }
        let mut map = ClusterMap::new();
        map.assign(p, ClusterId(0));
        map.assign(c, ClusterId(3));
        for (k, src, dst, link) in [(k1, 0, 1, 0), (k2, 1, 3, 2)] {
            map.assign(k, ClusterId(src));
            map.set_copy_meta(
                k,
                CopyMeta {
                    src: ClusterId(src),
                    targets: vec![ClusterId(dst)],
                    link: Some(LinkId(link)),
                },
            );
        }
        let a = Assignment {
            graph: wg,
            map,
            ii: 1,
            stats: clasp_core::AssignStats::default(),
        };
        let s = Schedule::new(1, [(p, 0), (k1, 1), (k2, 2), (c, 3)]);
        assert_eq!(
            lift_witness(&g, &m, &a, &s, ExactConfig::default()),
            Err(LiftError::CopyChain)
        );
    }
}
