//! The full two-phase compilation pipeline of the paper's Figure 5:
//! cluster assignment, then traditional modulo scheduling, escalating II
//! whenever either phase fails. One loop runs it for every heuristic
//! entry point, with the paper's assigner or the §1.4 post-scheduling
//! baseline as phase 1. The paper's escalation re-enters a per-loop
//! [`Assigner`] workspace that resets its working state in place and
//! recycles the failed attempt's buffers, rather than re-assigning from
//! scratch — with decisions bit-identical to a from-scratch run.
//!
//! Every failure reaching [`PipelineError`] is typed: scheduler failures
//! arrive as [`clasp_sched::SchedFailure`] (budget, window, resource —
//! with the blocking node), assignment failures as
//! [`clasp_core::AssignError`], and the unified baseline has its own
//! variant so baseline pathology is never mistaken for clustered-machine
//! exhaustion.

use clasp_core::{
    post_scheduling_assign_from, AssignConfig, AssignError, AssignTrace, Assigner, Assignment,
};
use clasp_ddg::{Ddg, LoopAnalysis};
use clasp_machine::MachineSpec;
use clasp_obs::{Counter, Obs};
use clasp_sched::{
    ii_search_range, schedule_unified, schedule_with_stats, AttemptStats, SchedFailure, Schedule,
    SchedulerConfig, SchedulerKind,
};
use std::fmt;

/// Configuration for the whole pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Phase 1 (cluster assignment) knobs.
    pub assign: AssignConfig,
    /// Phase 2 (modulo scheduling) knobs.
    pub sched: SchedulerConfig,
    /// Which phase-2 scheduler to run (iterative by default; the paper's
    /// own experiments used the iterative swing scheduler).
    pub scheduler: SchedulerKind,
}

impl From<clasp_core::Variant> for PipelineConfig {
    fn from(v: clasp_core::Variant) -> Self {
        PipelineConfig {
            assign: v.into(),
            sched: SchedulerConfig::default(),
            scheduler: SchedulerKind::default(),
        }
    }
}

/// A fully compiled loop: the cluster assignment and the modulo schedule
/// that realizes it.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// Phase-1 output: working graph (with copies) and cluster map.
    pub assignment: Assignment,
    /// Phase-2 output: issue cycles at `schedule.ii()`.
    pub schedule: Schedule,
}

impl CompiledLoop {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }
}

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The assignment phase failed outright.
    Assign(AssignError),
    /// No II up to the cap produced both a valid assignment and schedule.
    IiExhausted {
        /// Largest II *actually* attempted. Escalation advances by the
        /// assignment's achieved II plus one, which can skip values, so
        /// this is tracked per attempt rather than assumed to be the
        /// cap. When the escalation range was empty and no attempt ever
        /// ran (`last` is `None`), this falls back to the range cap.
        max_ii: u32,
        /// Why the scheduler rejected the final attempt (`None` when the
        /// escalation range was empty and no attempt ever ran).
        last: Option<SchedFailure>,
    },
    /// The *unified baseline* (the equally wide non-clustered machine the
    /// paper compares against) could not be scheduled — a corpus or
    /// machine-model pathology, distinct from clustered exhaustion. Also
    /// raised (as [`SchedFailure::MiiUnbounded`]) when the machine model
    /// cannot execute some operation class at all: the unified MII is
    /// unbounded, so no escalation range exists for any entry point.
    UnifiedBaselineFailed(SchedFailure),
    /// The emitted kernel diverged from sequential semantics under the
    /// functional simulator (driver verification stage).
    Verify(clasp_kernel::SimError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Assign(e) => write!(f, "assignment failed: {e}"),
            PipelineError::IiExhausted { max_ii, last } => {
                write!(f, "no schedule found up to II = {max_ii}")?;
                if let Some(last) = last {
                    write!(f, " (last failure: {last})")?;
                }
                Ok(())
            }
            PipelineError::UnifiedBaselineFailed(e) => {
                write!(f, "unified baseline failed: {e}")
            }
            PipelineError::Verify(e) => write!(f, "kernel verification failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AssignError> for PipelineError {
    fn from(e: AssignError) -> Self {
        PipelineError::Assign(e)
    }
}

/// Compile `g` for the clustered `machine`: assign clusters (inserting
/// copies), modulo schedule the annotated graph, and on a scheduling
/// failure restart assignment at a larger II (Figure 5).
///
/// # Errors
///
/// See [`PipelineError`].
///
/// # Examples
///
/// ```
/// use clasp::{compile_loop, PipelineConfig};
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
///
/// let mut g = Ddg::new("axpy");
/// let x = g.add(OpKind::Load);
/// let y = g.add(OpKind::Load);
/// let m = g.add(OpKind::FpMult);
/// let a = g.add(OpKind::FpAdd);
/// let s = g.add(OpKind::Store);
/// g.add_dep(x, m);
/// g.add_dep(m, a);
/// g.add_dep(y, a);
/// g.add_dep(a, s);
/// let machine = presets::two_cluster_gp(2, 1);
/// let compiled = compile_loop(&g, &machine, PipelineConfig::default())?;
/// assert!(compiled.ii() >= 1);
/// # Ok::<(), clasp::PipelineError>(())
/// ```
pub fn compile_loop(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
) -> Result<CompiledLoop, PipelineError> {
    // The source graph never changes across II escalations, so its
    // analysis (SCCs, swing order) is computed once and shared by every
    // assignment attempt. Each escalation's *working* graph is new (fresh
    // copies), so its analysis lives inside the scheduler's context.
    let analysis = LoopAnalysis::compute(g);
    escalate(
        g,
        machine,
        config,
        Phase1::Paper(&analysis),
        &Obs::disabled(),
        |_, _, _| {},
    )
}

/// Fold one scheduling attempt's deterministic statistics into the sink.
fn fold_sched_stats(obs: &Obs, stats: &AttemptStats) {
    obs.add(Counter::SchedAttempts, stats.attempts);
    obs.add(Counter::SchedPlacements, stats.placements);
    obs.add(Counter::SchedBacktracks, stats.backtracks);
    obs.add(Counter::SchedWindowRejections, stats.window_rejections);
    obs.add(Counter::SchedConflictMemory, stats.conflicts[0]);
    obs.add(Counter::SchedConflictInteger, stats.conflicts[1]);
    obs.add(Counter::SchedConflictFloat, stats.conflicts[2]);
    obs.add(Counter::SchedConflictTransport, stats.conflicts[3]);
}

/// Run one escalation attempt's assignment on the loop's carried
/// [`Assigner`] workspace, routing the assigner's decision log into the
/// sink when it records (the traced and untraced assigners are
/// decision-for-decision identical).
fn assign_observed(
    assigner: &mut Assigner<'_>,
    min_ii: u32,
    obs: &Obs,
) -> Result<Assignment, AssignError> {
    if !obs.is_enabled() {
        return assigner.assign_min(min_ii);
    }
    let mut trace = AssignTrace::default();
    let result = assigner.assign_min_traced(min_ii, &mut trace);
    obs.add(Counter::AssignEvents, trace.events.len() as u64);
    for ev in &trace.events {
        obs.event("assign", || ev.to_string());
    }
    result
}

/// Phase 1 of [`escalate`]: the pass that assigns clusters at each II.
pub(crate) enum Phase1<'a> {
    /// The paper's assigner over the loop's precomputed analysis. One
    /// [`Assigner`] workspace serves every attempt: a retry re-enters it
    /// at a larger II with the working state reset in place and the
    /// failed attempt's buffers recycled.
    Paper(&'a LoopAnalysis),
    /// The §1.4 post-scheduling partitioning baseline.
    Post,
}

/// The Figure 5 escalation loop: assign clusters with `phase1`, modulo
/// schedule the annotated graph, and on a scheduler failure restart one
/// II above the assignment's. Every attempt is reported to `on_attempt`
/// as `(requested II, assignment, scheduler failure)` — `None` on the
/// successful final attempt — and to `obs` as one `pipeline.attempt`
/// span carrying the requested II, the achieved II, the copies inserted
/// and the typed failure. The driver builds its II trajectory from these
/// callbacks; the other entry points pass a no-op.
pub(crate) fn escalate(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
    phase1: Phase1<'_>,
    obs: &Obs,
    mut on_attempt: impl FnMut(u32, &Assignment, Option<&SchedFailure>),
) -> Result<CompiledLoop, PipelineError> {
    // The range check runs before the assigner is built, so a machine
    // that cannot execute some operation reports its unbounded MII, not
    // the assigner's `InfeasibleOp`.
    let (start, cap) =
        ii_search_range(g, machine.unified_equivalent().mii(g), config.assign.max_ii)
            .map_err(PipelineError::UnifiedBaselineFailed)?;
    let mut assigner = match phase1 {
        Phase1::Paper(analysis) => Some(Assigner::with_analysis(
            g,
            machine,
            config.assign,
            analysis,
        )?),
        Phase1::Post => None,
    };
    let mut min_ii = start;
    let mut last = None;
    let mut attempted_max = None;
    while min_ii <= cap {
        let span = obs.begin("pipeline.attempt");
        let assigned = match &mut assigner {
            Some(assigner) => assign_observed(assigner, min_ii, obs),
            None => post_scheduling_assign_from(g, machine, config.assign, min_ii),
        };
        let assignment = match assigned {
            Ok(a) => a,
            Err(e) => {
                obs.end_with(span, || {
                    vec![
                        ("requested_ii", min_ii.to_string()),
                        ("result", format!("assign failed: {e}")),
                    ]
                });
                return Err(e.into());
            }
        };
        let (result, stats) = schedule_with_stats(
            config.scheduler,
            &assignment.graph,
            machine,
            &assignment.map,
            assignment.ii,
            config.sched,
        );
        obs.add(Counter::PipelineAttempts, 1);
        obs.add(Counter::AssignCopies, assignment.copy_count() as u64);
        fold_sched_stats(obs, &stats);
        attempted_max = Some(assignment.ii);
        obs.end_with(span, || {
            let mut args = vec![
                ("requested_ii", min_ii.to_string()),
                ("assigned_ii", assignment.ii.to_string()),
                ("copies", assignment.copy_count().to_string()),
                (
                    "result",
                    match &result {
                        Ok(_) => "ok".to_string(),
                        Err(f) => f.to_string(),
                    },
                ),
            ];
            if let Some(n) = result.as_ref().err().and_then(|f| f.blocking_node()) {
                args.push(("blocked_on", n.to_string()));
            }
            args
        });
        match result {
            Ok(schedule) => {
                on_attempt(min_ii, &assignment, None);
                return Ok(CompiledLoop {
                    assignment,
                    schedule,
                });
            }
            Err(failure) => {
                // Scheduler failed at the assignment's II: the paper
                // restarts the whole process one II higher (a fresh
                // assignment generally needs fewer copies at a larger II).
                on_attempt(min_ii, &assignment, Some(&failure));
                min_ii = assignment.ii + 1;
                if let Some(assigner) = &mut assigner {
                    assigner.recycle(assignment);
                }
                last = Some(failure);
            }
        }
    }
    Err(PipelineError::IiExhausted {
        max_ii: attempted_max.unwrap_or(cap),
        last,
    })
}

/// Compile with the *post-scheduling partitioning* baseline (Capitanio
/// et al., the paper's §1.4 foil) in place of the paper's assignment
/// pass: slice a unified-order schedule across clusters, insert copies
/// afterwards, and escalate II whenever the partition or the scheduler
/// fails. Exists for the `baseline-post` experiment.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_loop_post(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
) -> Result<CompiledLoop, PipelineError> {
    escalate(
        g,
        machine,
        config,
        Phase1::Post,
        &Obs::disabled(),
        |_, _, _| {},
    )
}

/// The paper's baseline: the II the same loop achieves on the equally
/// wide *unified* machine.
///
/// # Errors
///
/// Fails only on pathological inputs, with the typed reason: a
/// [`SchedFailure::MiiUnbounded`] machine model, an unusable annotation,
/// or a full-range exhaustion.
pub fn unified_ii(
    g: &Ddg,
    machine: &MachineSpec,
    sched: SchedulerConfig,
) -> Result<u32, SchedFailure> {
    schedule_unified(g, &machine.unified_equivalent(), sched).map(|s| s.ii())
}

/// Compile on the clustered machine *and* its unified equivalent,
/// returning `(clustered II, unified II)` — the pair every figure of the
/// paper's evaluation is built from.
///
/// # Errors
///
/// [`PipelineError::UnifiedBaselineFailed`] when the baseline itself
/// cannot be scheduled; otherwise see [`PipelineError`].
pub fn compare_with_unified(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
) -> Result<(u32, u32), PipelineError> {
    let unified =
        unified_ii(g, machine, config.sched).map_err(PipelineError::UnifiedBaselineFailed)?;
    let compiled = compile_loop(g, machine, config)?;
    Ok((compiled.ii(), unified))
}
