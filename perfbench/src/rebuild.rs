//! The Figure 5 escalation rebuilt from public layer calls, shared by
//! the traced runs of the two compile workloads: the driver's heuristic
//! backend and `compile_loop` run the same escalation.

use crate::common::{ratio, Layers};
use crate::trace::{SelfTimes, Tracer, ITEM};
use clasp::core::{Assigner, Assignment};
use clasp::ddg::{Ddg, LoopAnalysis};
use clasp::machine::MachineSpec;
use clasp::sched::{max_ii_bound, schedule_with_stats, AttemptStats, SchedFailure, Schedule};
use clasp::{IiStep, PipelineConfig, PipelineError};
use std::time::Duration;

/// Span names of the escalation, each reported by a layer metric.
pub const SPANS: [&str; 5] = [
    "ddg.analysis",
    "core.assigner",
    "core.assign",
    "core.recycle",
    "sched.schedule",
];

/// Counts gathered from the return values of layer calls.
#[derive(Debug, Default)]
pub struct Counts {
    /// Escalations run (memo misses on figures-sweep).
    pub compiles: u64,
    pub assign_calls: u64,
    pub sched_calls: u64,
    pub first_try: u64,
    pub copies: u64,
    /// Time in attempts whose schedule failed.
    pub wasted: Duration,
    pub stats: AttemptStats,
}

/// A successful escalation: the final assignment and schedule, and the
/// II trajectory as the driver reports it.
pub struct Escalated {
    pub assignment: Assignment,
    pub schedule: Schedule,
    pub trajectory: Vec<IiStep>,
}

/// Analysis, then assignment and modulo scheduling over one carried
/// assigner, restarting one II higher after each scheduler failure.
pub fn escalate(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
    tracer: &Tracer,
    i: usize,
    counts: &mut Counts,
) -> Result<Escalated, PipelineError> {
    let analysis = tracer.span("ddg.analysis", i, || LoopAnalysis::compute(g));
    let raw_mii = machine.unified_equivalent().mii(g);
    if raw_mii == u32::MAX {
        return Err(PipelineError::UnifiedBaselineFailed(
            SchedFailure::MiiUnbounded,
        ));
    }
    let start = raw_mii.max(1);
    let cap = config
        .assign
        .max_ii
        .unwrap_or_else(|| max_ii_bound(g, start));
    let mut assigner = tracer.span("core.assigner", i, || {
        Assigner::with_analysis(g, machine, config.assign, &analysis)
    })?;
    counts.compiles += 1;
    let mut trajectory = Vec::new();
    let mut min_ii = start;
    let mut last = None;
    let mut attempted_max = None;
    while min_ii <= cap {
        let (assigned, t_assign) =
            tracer.span_timed("core.assign", i, || assigner.assign_min(min_ii));
        counts.assign_calls += 1;
        let assignment = assigned?;
        let ((result, stats), t_sched) = tracer.span_timed("sched.schedule", i, || {
            schedule_with_stats(
                config.scheduler,
                &assignment.graph,
                machine,
                &assignment.map,
                assignment.ii,
                config.sched,
            )
        });
        counts.sched_calls += 1;
        counts.stats.merge(&stats);
        attempted_max = Some(assignment.ii);
        trajectory.push(IiStep {
            requested_ii: min_ii,
            assigned_ii: assignment.ii,
            copies: assignment.copy_count(),
            failure: result.as_ref().err().cloned(),
        });
        match result {
            Ok(schedule) => {
                if trajectory.len() == 1 {
                    counts.first_try += 1;
                }
                counts.copies += assignment.copy_count() as u64;
                return Ok(Escalated {
                    assignment,
                    schedule,
                    trajectory,
                });
            }
            Err(failure) => {
                min_ii = assignment.ii + 1;
                let ((), t_recycle) =
                    tracer.span_timed("core.recycle", i, || assigner.recycle(assignment));
                counts.wasted += t_assign + t_sched + t_recycle;
                last = Some(failure);
            }
        }
    }
    Err(PipelineError::IiExhausted {
        max_ii: attempted_max.unwrap_or(cap),
        last,
    })
}

impl Counts {
    /// The analysis, assignment, scheduling, escalation and glue metrics
    /// of a traced pass over `items` items. `glue` names the spans whose
    /// self time is driver composition rather than a layer's work.
    pub fn insert_layers(&self, l: &mut Layers, t: &SelfTimes, items: usize, glue: &[&str]) {
        let per = |v: u64| v as f64 / items as f64;
        l.insert("ddg.busy_ms", t.per_item_ms(&["ddg.analysis"]));
        l.insert("core.calls", per(self.assign_calls));
        l.insert(
            "core.busy_ms",
            t.per_item_ms(&["core.assigner", "core.assign", "core.recycle"]),
        );
        l.insert("core.copies", ratio(self.copies, self.compiles));
        l.insert("sched.calls", per(self.sched_calls));
        l.insert("sched.busy_ms", t.per_item_ms(&["sched.schedule"]));
        l.insert("sched.placements", per(self.stats.placements));
        l.insert("sched.backtracks", per(self.stats.backtracks));
        l.insert(
            "sched.backtrack_ratio",
            ratio(self.stats.backtracks, self.stats.placements),
        );
        l.insert("sched.transport_conflicts", per(self.stats.conflicts[3]));
        l.insert(
            "pipeline.attempts_per_item",
            ratio(self.sched_calls, self.compiles),
        );
        l.insert(
            "pipeline.first_try_frac",
            ratio(self.first_try, self.compiles),
        );
        l.insert(
            "pipeline.wasted_ms",
            self.wasted.as_secs_f64() * 1e3 / items as f64,
        );
        let mut glue_spans = vec![ITEM];
        glue_spans.extend_from_slice(glue);
        l.insert("driver.other_ms", t.per_item_ms(&glue_spans));
    }
}
