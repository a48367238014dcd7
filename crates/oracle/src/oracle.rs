//! The cross-stage differential oracle.
//!
//! For one (loop, machine) pair the oracle runs the full compilation
//! pipeline and checks every structural claim of the paper in one pass,
//! reporting typed [`OracleViolation`]s instead of panicking:
//!
//! 1. the pipeline compiles the loop at all (the paper's §3 claim that a
//!    clustering-unaware modulo scheduler accepts the annotated DDG);
//! 2. [`validate_assignment`]: cluster classes, copy transport, capacity;
//! 3. [`validate_schedule`]: dependences and kernel-row resources;
//! 4. `II >= max(RecMII, ResMII)` of the original loop (§3);
//! 5. copies never stretch a critical recurrence: the *working* graph's
//!    RecMII still fits the achieved II (§4.1);
//! 6. graceful degradation: clustered II is never better than the
//!    unified-machine baseline II (Figs. 12-19 are ratios >= 1) — unless
//!    the clustered schedule itself certifies the gap by projecting onto
//!    the unified machine at its own II, which convicts the heuristic
//!    unified sweep, not the pipeline;
//! 7. the emitted kernel is functionally equivalent to sequential
//!    semantics under *both* register models (MVE and rotating), and the
//!    two models' store streams are equivalent to each other;
//! 8. loop-carried distance across copy chains: a carried crossing
//!    edge's distance rides exactly the final delivery -> consumer
//!    segment (all upstream chain segments distance 0), and the working
//!    graph's RecMII never drops below the original loop's;
//! 9. with [`OracleOptions::exact`], the exact encoding accepts the
//!    schedule: a valid, chain-free schedule must lift into
//!    `clasp-exact`'s CNF at its own II (`clasp_exact::lift_witness`);
//! 10. per-hop link occupancy: on point-to-point fabrics every traversed
//!     link row is claimed by at most one copy — recounted directly from
//!     the final schedule and the copy metadata, independent of the MRT
//!     bookkeeping the scheduler and `validate_schedule` share.
//!
//! The pipeline arrives as a caller-supplied closure ([`PipelineFn`]) so
//! this crate never depends on the root `clasp` crate; `clasp` exposes
//! [`compile_full`] bound to this signature (see `clasp::oracle_pipeline`).
//!
//! [`compile_full`]: https://docs.rs/clasp

use clasp_core::{validate_assignment, Assignment, AssignmentError};
use clasp_ddg::{rec_mii, Ddg, NodeId};
use clasp_kernel::{emit_program_with, reference_stream, run_program, RegisterModel, StoreEvent};
use clasp_machine::{Interconnect, LinkId, MachineSpec};
use clasp_mrt::ClusterMap;
use clasp_sched::{
    schedule_unified, unified_map, validate_schedule, Schedule, ScheduleError, SchedulerConfig,
};
use std::collections::HashMap;
use std::fmt;

use crate::fault::Fault;

/// The pipeline output the oracle inspects: the cluster assignment and
/// the final (restaged) schedule the kernel is emitted from.
#[derive(Debug, Clone)]
pub struct CompiledCase {
    /// Phase-1 output: working graph (with copies) and cluster map.
    pub assignment: Assignment,
    /// The schedule the kernel is emitted from.
    pub schedule: Schedule,
}

/// The compilation pipeline, injected by the caller. Errors are
/// stringified: the oracle only needs to report them, never match on
/// them. `Sync` because the fuzz loop checks cases on the deterministic
/// parallel executor (`clasp-exec`), sharing the closure across workers.
pub type PipelineFn<'a> = &'a (dyn Fn(&Ddg, &MachineSpec) -> Result<CompiledCase, String> + Sync);

/// Per-case oracle knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOptions {
    /// Trip count for functional simulation.
    pub iterations: i64,
    /// Deliberate corruption applied to the compiled case before the
    /// invariant checks (testing the oracle itself; see [`Fault`]).
    pub fault: Fault,
    /// Lift the case's schedule into the exact SAT backend's encoding
    /// (`clasp-exact`) on small loops: invariant 9. Off by default — each
    /// check costs an encoding and a solve, and a schedule the encoding
    /// cannot express literally costs a minimal-II search.
    pub exact: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            iterations: 8,
            fault: Fault::None,
            exact: false,
        }
    }
}

/// Node cap for the exact cross-check: past this the SAT solve is not
/// worth a fuzz case's budget (tighter than `clasp-exact`'s own default
/// cap, which serves interactive compiles).
pub const EXACT_ORACLE_NODE_CAP: usize = 12;

/// One invariant breach found by [`check_case`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// The pipeline refused the case outright.
    PipelineFailed {
        /// The pipeline's own error rendering.
        reason: String,
    },
    /// The assignment fails [`validate_assignment`].
    AssignmentInvalid {
        /// The typed assignment violation.
        error: AssignmentError,
    },
    /// The schedule fails [`validate_schedule`].
    ScheduleInvalid {
        /// The typed schedule violation.
        error: ScheduleError,
    },
    /// The achieved II undercuts the loop's `max(RecMII, ResMII)`.
    IiBelowMii {
        /// Achieved II.
        ii: u32,
        /// The machine-wide lower bound for the original loop.
        mii: u32,
    },
    /// Copies landed on a critical recurrence: the working graph's RecMII
    /// exceeds the achieved II (§4.1's "copies off the critical SCC").
    CopyOnCriticalRecurrence {
        /// RecMII of the working graph (with copies).
        working_rec_mii: u32,
        /// Achieved II.
        ii: u32,
    },
    /// The clustered II beats the unified baseline *and* the clustered
    /// schedule does not even project onto the unified machine at its own
    /// II. A bare `clustered < unified` gap is explainable (iterative
    /// modulo scheduling is budget-bounded, so the unified sweep can miss
    /// a feasible II); an unprojectable one is not.
    ClusteredBeatsUnified {
        /// Clustered II.
        clustered: u32,
        /// Unified-machine II.
        unified: u32,
    },
    /// The emitted kernel diverged from sequential semantics.
    FunctionalMismatch {
        /// Register model that diverged (`"MVE"` or `"rotating"`).
        model: &'static str,
        /// The simulator's rendering of the divergence.
        error: String,
    },
    /// The MVE and rotating kernels produced different store streams.
    ModelDivergence {
        /// Store events observed under MVE.
        mve_events: usize,
        /// Store events observed under the rotating file.
        rotating_events: usize,
    },
    /// A loop-carried crossing edge was rewired through a copy chain that
    /// mishandles its distance. The contract (`clasp-core`'s
    /// `materialize`) is that the full distance rides exactly the final
    /// delivery -> consumer segment and every upstream chain segment is
    /// distance 0 — smearing or duplicating it would shift the carried
    /// dependence by whole iterations per hop.
    CarriedDistanceSplit {
        /// Producer of the original carried edge.
        producer: NodeId,
        /// Consumer of the original carried edge.
        consumer: NodeId,
        /// What exactly went wrong along the chain.
        detail: String,
    },
    /// The working graph's RecMII dropped below the original loop's:
    /// rewiring lost carried distance (or a whole recurrence edge), so a
    /// schedule could undercut the true recurrence bound.
    RecMiiDropped {
        /// RecMII of the original loop.
        original: u32,
        /// RecMII of the working graph (with copies).
        working: u32,
    },
    /// Checking the case panicked outright. The parallel fuzz loop
    /// captures the panic per case (instead of tearing the whole sweep
    /// down) and reports it here.
    CheckPanicked {
        /// The panic payload, stringified.
        payload: String,
    },
    /// Two or more copies claim the same point-to-point link in the same
    /// kernel row. Each link moves one value per cycle, so every hop of a
    /// multi-hop route must hold its own (link, row) slot; sharing one
    /// means the emitted kernel would serialize transfers the schedule
    /// promised were parallel. Recounted directly from the final schedule
    /// and copy metadata — deliberately *not* through the MRT, so a
    /// shared undercounting bug cannot hide itself.
    LinkOverCapacity {
        /// The oversubscribed link.
        link: LinkId,
        /// The kernel row (cycle mod II) it is oversubscribed in.
        row: u32,
        /// Copies claiming the link in that row.
        used: u32,
    },
    /// The exact SAT backend's encoding rejects a valid chain-free
    /// schedule, so it over-constrains (or the validators under-check).
    /// Either the schedule does not lift into the encoding at its own II
    /// (`proven: None`), or, for a schedule the encoding cannot express
    /// literally, the exact search proved a minimum above its II.
    ExactRejectsSchedule {
        /// The II the valid schedule runs at.
        ii: u32,
        /// The minimum the exact search proved, when the comparison
        /// fallback convicted the encoding.
        proven: Option<u32>,
    },
}

impl OracleViolation {
    /// A stable label for the violation class; the shrinker preserves
    /// this while minimizing (so a functional bug never "shrinks" into an
    /// unrelated compile failure).
    pub fn kind(&self) -> &'static str {
        match self {
            OracleViolation::PipelineFailed { .. } => "pipeline-failed",
            OracleViolation::AssignmentInvalid { .. } => "assignment-invalid",
            OracleViolation::ScheduleInvalid { .. } => "schedule-invalid",
            OracleViolation::IiBelowMii { .. } => "ii-below-mii",
            OracleViolation::CopyOnCriticalRecurrence { .. } => "copy-on-critical-recurrence",
            OracleViolation::ClusteredBeatsUnified { .. } => "clustered-beats-unified",
            OracleViolation::FunctionalMismatch { .. } => "functional-mismatch",
            OracleViolation::ModelDivergence { .. } => "model-divergence",
            OracleViolation::CarriedDistanceSplit { .. } => "carried-distance-split",
            OracleViolation::RecMiiDropped { .. } => "rec-mii-dropped",
            OracleViolation::CheckPanicked { .. } => "check-panicked",
            OracleViolation::LinkOverCapacity { .. } => "link-over-capacity",
            OracleViolation::ExactRejectsSchedule { .. } => "exact-rejects-schedule",
        }
    }
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::PipelineFailed { reason } => write!(f, "pipeline failed: {reason}"),
            OracleViolation::AssignmentInvalid { error } => {
                write!(f, "assignment invalid: {error}")
            }
            OracleViolation::ScheduleInvalid { error } => write!(f, "schedule invalid: {error}"),
            OracleViolation::IiBelowMii { ii, mii } => {
                write!(f, "achieved II {ii} undercuts MII {mii}")
            }
            OracleViolation::CopyOnCriticalRecurrence {
                working_rec_mii,
                ii,
            } => write!(
                f,
                "copies stretched a critical recurrence: working RecMII {working_rec_mii} > II {ii}"
            ),
            OracleViolation::ClusteredBeatsUnified { clustered, unified } => write!(
                f,
                "clustered II {clustered} beats the unified baseline II {unified}"
            ),
            OracleViolation::FunctionalMismatch { model, error } => {
                write!(
                    f,
                    "{model} kernel diverged from sequential semantics: {error}"
                )
            }
            OracleViolation::ModelDivergence {
                mve_events,
                rotating_events,
            } => write!(
                f,
                "MVE and rotating kernels diverged ({mve_events} vs {rotating_events} store events)"
            ),
            OracleViolation::CarriedDistanceSplit {
                producer,
                consumer,
                detail,
            } => write!(
                f,
                "carried edge {producer} -> {consumer} mishandled across its copy chain: {detail}"
            ),
            OracleViolation::RecMiiDropped { original, working } => write!(
                f,
                "working-graph RecMII {working} dropped below the original loop's {original}"
            ),
            OracleViolation::CheckPanicked { payload } => {
                write!(f, "case check panicked: {payload}")
            }
            OracleViolation::LinkOverCapacity { link, row, used } => write!(
                f,
                "{used} copies claim link {link} in kernel row {row} (capacity 1)"
            ),
            OracleViolation::ExactRejectsSchedule { ii, proven: None } => write!(
                f,
                "the exact encoding rejects this valid schedule at its II {ii}"
            ),
            OracleViolation::ExactRejectsSchedule {
                ii,
                proven: Some(proven),
            } => write!(
                f,
                "valid schedule at II {ii} beats the exact backend's proven minimum {proven}"
            ),
        }
    }
}

/// The II the loop achieves on the machine's unified equivalent, or
/// `None` when even the unified machine cannot schedule it (a corpus
/// pathology, not a clustered-pipeline bug — the caller skips invariant
/// 6 rather than reporting it).
pub fn unified_baseline_ii(g: &Ddg, machine: &MachineSpec) -> Option<u32> {
    schedule_unified(g, &machine.unified_equivalent(), SchedulerConfig::default())
        .ok()
        .map(|s| s.ii())
}

/// Whether the clustered schedule, restricted to the original nodes, is
/// itself a valid unified-machine schedule at the same II. When it is,
/// the unified optimum is provably <= the clustered II, so a heuristic
/// unified baseline *above* the clustered II is scheduler weakness
/// (bounded backtracking budget), not an invariant breach.
fn projects_onto_unified(g: &Ddg, machine: &MachineSpec, sched: &Schedule) -> bool {
    let unified = machine.unified_equivalent();
    let map = unified_map(g, &unified);
    let mut time = HashMap::new();
    for n in g.node_ids() {
        match sched.start(n) {
            Some(t) => {
                time.insert(n, t);
            }
            None => return false,
        }
    }
    validate_schedule(g, &unified, &map, &Schedule::new(sched.ii(), time)).is_ok()
}

/// The original (non-copy) node a copy chain is rooted at: walk feed
/// edges backward until a non-copy node. `None` on a malformed chain
/// (a copy with no feed, or a cycle of copies).
fn chain_root(wg: &Ddg, copy: NodeId) -> Option<NodeId> {
    let mut cur = copy;
    let mut hops = 0usize;
    while wg.op(cur).kind.is_copy() {
        let (_, feed) = wg.pred_edges(cur).next()?;
        cur = feed.src;
        hops += 1;
        if hops > wg.node_count() {
            return None;
        }
    }
    Some(cur)
}

/// Invariant 8 — carried distance across copy chains (§4.1's rewiring
/// contract). Every loop-carried edge of the original graph must either
/// survive verbatim in the working graph (same-cluster) or be rewired
/// through a copy chain whose *final* delivery -> consumer segment
/// carries the full original distance, with every upstream segment
/// (producer -> copy, copy -> copy) at distance 0. Distance on more
/// than one segment — or on the wrong one — shifts the dependence by
/// whole iterations per hop, which RecMII and the functional simulator
/// only catch indirectly (and only when the shift is observable at the
/// tested trip count).
fn check_carried_chains(g: &Ddg, wg: &Ddg) -> Vec<OracleViolation> {
    let mut out = Vec::new();
    for (_, e) in g.edges() {
        if e.distance == 0 {
            continue;
        }
        let kept_verbatim = wg
            .edges()
            .any(|(_, w)| w.src == e.src && w.dst == e.dst && w.distance == e.distance);
        if kept_verbatim {
            continue;
        }
        // Rewired: the consumer must receive the value from a copy chain
        // rooted at the producer. Parallel original edges (same endpoints,
        // different distances) are each rewired to their own delivery
        // edge, so match the delivery by distance rather than taking the
        // first chain into the consumer.
        let candidates: Vec<clasp_ddg::DepEdge> = wg
            .edges()
            .filter(|(_, w)| {
                w.dst == e.dst
                    && wg.op(w.src).kind.is_copy()
                    && chain_root(wg, w.src) == Some(e.src)
            })
            .map(|(_, w)| *w)
            .collect();
        if candidates.is_empty() {
            out.push(OracleViolation::CarriedDistanceSplit {
                producer: e.src,
                consumer: e.dst,
                detail: format!(
                    "carried distance {} lost: neither a verbatim edge nor a copy-chain delivery",
                    e.distance
                ),
            });
            continue;
        }
        let Some(delivery) = candidates.iter().find(|w| w.distance == e.distance) else {
            let seen: Vec<String> = candidates.iter().map(|w| w.distance.to_string()).collect();
            out.push(OracleViolation::CarriedDistanceSplit {
                producer: e.src,
                consumer: e.dst,
                detail: format!(
                    "delivery segment carries distance {} instead of {}",
                    seen.join("/"),
                    e.distance
                ),
            });
            continue;
        };
        let mut cur = delivery.src;
        while wg.op(cur).kind.is_copy() {
            let Some((_, feed)) = wg.pred_edges(cur).next() else {
                break; // chain_root already vetted the chain shape
            };
            if feed.distance != 0 {
                out.push(OracleViolation::CarriedDistanceSplit {
                    producer: e.src,
                    consumer: e.dst,
                    detail: format!(
                        "chain segment {} -> {} carries distance {} (must be 0)",
                        feed.src, feed.dst, feed.distance
                    ),
                });
            }
            cur = feed.src;
        }
    }
    out
}

/// Invariant 10 — per-hop link occupancy. On point-to-point fabrics
/// every copy claims exactly one link for the kernel row it issues in,
/// and a link moves one value per cycle; a multi-hop route therefore
/// holds one (link, row) slot per traversed hop. This recounts occupancy
/// directly from the final schedule and the copy metadata rather than
/// replaying an MRT, so it cross-checks the CountMrt/TimeMrt bookkeeping
/// instead of inheriting its bugs. Unscheduled copies are skipped —
/// invariant 3 already reports those.
fn check_link_occupancy(
    machine: &MachineSpec,
    map: &ClusterMap,
    sched: &Schedule,
) -> Vec<OracleViolation> {
    if !matches!(machine.interconnect(), Interconnect::PointToPoint { .. }) {
        return Vec::new();
    }
    let mut used: HashMap<(LinkId, u32), u32> = HashMap::new();
    for (copy, meta) in map.copies() {
        let Some(link) = meta.link else { continue };
        let Some(row) = sched.kernel_row(copy) else {
            continue;
        };
        *used.entry((link, row)).or_insert(0) += 1;
    }
    let mut out: Vec<OracleViolation> = used
        .into_iter()
        .filter(|&(_, n)| n > 1)
        .map(|((link, row), used)| OracleViolation::LinkOverCapacity { link, row, used })
        .collect();
    out.sort_by_key(|v| match v {
        OracleViolation::LinkOverCapacity { link, row, .. } => (*link, *row),
        _ => unreachable!("only link violations collected here"),
    });
    out
}

/// The exact backend's resource caps as the oracle uses them: the
/// tighter [`EXACT_ORACLE_NODE_CAP`] instead of the interactive default.
fn exact_oracle_config() -> clasp_exact::ExactConfig {
    clasp_exact::ExactConfig {
        max_nodes: EXACT_ORACLE_NODE_CAP,
        ..clasp_exact::ExactConfig::default()
    }
}

/// The provably minimal chain-free II of `g` on `machine`
/// (`clasp_exact::exact_ii`: a lifted heuristic schedule at MII, else the
/// search), or `None` when the instance is over the oracle's node cap,
/// the search blows its conflict budget, or no feasible II exists in the
/// search range. Used by invariant 9's comparison fallback, the fuzz
/// loop's hard-instance mining and the gap tables.
pub fn exact_minimal_ii(g: &Ddg, machine: &MachineSpec) -> Option<u32> {
    clasp_exact::exact_ii(g, machine, exact_oracle_config()).ok()
}

/// `None` when equal, otherwise a description of the first divergence.
fn diff_streams(got: &[StoreEvent], expected: &[StoreEvent]) -> Option<String> {
    if got.len() != expected.len() {
        return Some(format!(
            "{} store events, expected {}",
            got.len(),
            expected.len()
        ));
    }
    let index: HashMap<(NodeId, i64), u64> = expected
        .iter()
        .map(|e| ((e.node, e.iteration), e.value))
        .collect();
    for e in got {
        match index.get(&(e.node, e.iteration)) {
            Some(&v) if v == e.value => {}
            Some(&v) => {
                return Some(format!(
                    "store {} iteration {}: got {:#x}, expected {v:#x}",
                    e.node, e.iteration, e.value
                ))
            }
            None => {
                return Some(format!(
                    "unexpected store event for {} iteration {}",
                    e.node, e.iteration
                ))
            }
        }
    }
    None
}

/// Run every invariant against one (loop, machine) pair. Returns all
/// violations found (empty = the case is clean).
///
/// Structural violations (2-6) are collected together; the functional
/// stage (7) only runs when the assignment and schedule validate, since
/// emitting a kernel from a corrupt schedule exercises nothing but the
/// corruption.
pub fn check_case(
    g: &Ddg,
    machine: &MachineSpec,
    pipeline: PipelineFn,
    opts: &OracleOptions,
) -> Vec<OracleViolation> {
    let mut case = match pipeline(g, machine) {
        Ok(c) => c,
        Err(reason) => return vec![OracleViolation::PipelineFailed { reason }],
    };
    opts.fault.apply(&mut case, machine);

    let mut violations = Vec::new();
    let assignment_ok = match validate_assignment(g, machine, &case.assignment) {
        Ok(()) => true,
        Err(error) => {
            violations.push(OracleViolation::AssignmentInvalid { error });
            false
        }
    };
    let wg = &case.assignment.graph;
    let map = &case.assignment.map;
    let sched = &case.schedule;
    let ii = sched.ii();
    let schedule_ok = match validate_schedule(wg, machine, map, sched) {
        Ok(()) => true,
        Err(error) => {
            violations.push(OracleViolation::ScheduleInvalid { error });
            false
        }
    };

    let mii = machine.mii(g);
    if mii != u32::MAX && ii < mii {
        violations.push(OracleViolation::IiBelowMii { ii, mii });
    }
    let working_rec_mii = rec_mii(wg);
    if working_rec_mii > ii {
        violations.push(OracleViolation::CopyOnCriticalRecurrence {
            working_rec_mii,
            ii,
        });
    }
    let original_rec_mii = rec_mii(g);
    if working_rec_mii < original_rec_mii {
        violations.push(OracleViolation::RecMiiDropped {
            original: original_rec_mii,
            working: working_rec_mii,
        });
    }
    violations.extend(check_carried_chains(g, wg));
    violations.extend(check_link_occupancy(machine, map, sched));
    if let Some(unified) = unified_baseline_ii(g, machine) {
        if ii < unified && !projects_onto_unified(g, machine, sched) {
            violations.push(OracleViolation::ClusteredBeatsUnified {
                clustered: ii,
                unified,
            });
        }
    }

    // Invariant 9 — the exact encoding accepts every valid schedule it
    // can express: the case's own schedule must lift into it at its own
    // II. A schedule it cannot express literally (a second copy of one
    // value into a cluster, an unrouted link, a normalized cycle past the
    // horizon) falls back to comparing the II with the exact search's
    // proven minimum. Copy chains are outside the single-hop encoding,
    // and a refused or budget-blown lift convicts nobody.
    if opts.exact && assignment_ok && schedule_ok {
        use clasp_exact::LiftError;
        let config = exact_oracle_config();
        match clasp_exact::lift_witness(g, machine, &case.assignment, sched, config) {
            Err(LiftError::Rejected { ii }) => {
                violations.push(OracleViolation::ExactRejectsSchedule { ii, proven: None });
            }
            Err(LiftError::UnmodelledCopy { .. } | LiftError::OutsideHorizon { .. }) => {
                if let Some(proven) = exact_minimal_ii(g, machine).filter(|&e| ii < e) {
                    violations.push(OracleViolation::ExactRejectsSchedule {
                        ii,
                        proven: Some(proven),
                    });
                }
            }
            Ok(()) | Err(LiftError::CopyChain | LiftError::Invalid { .. } | LiftError::Budget) => {}
        }
    }

    if assignment_ok && schedule_ok {
        let reference = reference_stream(wg, opts.iterations);
        let mut streams: Vec<(&'static str, Option<Vec<StoreEvent>>)> = Vec::new();
        for (name, model) in [
            ("MVE", RegisterModel::mve(wg, sched)),
            ("rotating", RegisterModel::rotating(wg, sched)),
        ] {
            let program = emit_program_with(wg, map, sched, opts.iterations, &model);
            match run_program(wg, &program) {
                Ok(events) => {
                    if let Some(error) = diff_streams(&events, &reference) {
                        violations.push(OracleViolation::FunctionalMismatch { model: name, error });
                    }
                    streams.push((name, Some(events)));
                }
                Err(error) => {
                    violations.push(OracleViolation::FunctionalMismatch {
                        model: name,
                        error: error.to_string(),
                    });
                    streams.push((name, None));
                }
            }
        }
        if let [(_, Some(mve)), (_, Some(rot))] = &streams[..] {
            if diff_streams(mve, rot).is_some() {
                violations.push(OracleViolation::ModelDivergence {
                    mve_events: mve.len(),
                    rotating_events: rot.len(),
                });
            }
        }
    }
    violations
}
