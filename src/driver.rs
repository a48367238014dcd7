//! The staged compile driver: one composition point from DDG to verified
//! kernel.
//!
//! [`compile_full`] runs every stage of the reproduction as an explicit,
//! reportable step — cluster assignment + modulo scheduling (the paper's
//! Figure 5 escalation loop), stage scheduling (Eichenberger & Davidson
//! 1995), register modelling (MVE kernel unroll or a rotating register
//! file), kernel emission, and optional functional verification against
//! sequential semantics — and returns a [`CompiledArtifact`] bundling the
//! outputs of every stage with a [`CompileReport`]: the II trajectory
//! with per-attempt failure reasons, per-stage timings, and copy /
//! register / unroll statistics.
//!
//! Consumers (the CLI, the experiments harness, the examples) compose
//! *nothing* by hand; they issue a [`CompileRequest`] and read the
//! artifact.

use crate::pipeline::{escalate, CompiledLoop, Phase1, PipelineConfig, PipelineError};
use clasp_core::Assignment;
use clasp_ddg::{Ddg, LoopAnalysis};
use clasp_exact::ExactConfig;
use clasp_kernel::{
    emit_program_with, kernel_table, lifetimes, max_live, register_requirement, stage_schedule,
    verify_program, MveInfo, Program, RegisterModel, RrfInfo,
};
use clasp_machine::MachineSpec;
use clasp_obs::{Counter, Obs};
use clasp_sched::{SchedFailure, Schedule, SchedulerKind};
use std::fmt;
use std::time::Duration;

/// Which register-naming model the driver should emit under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RegisterModelKind {
    /// Modulo variable expansion (Lam 1988): software renaming, kernel
    /// unrolled `unroll()` times.
    #[default]
    Mve,
    /// Rotating register file: hardware renaming, no unrolling.
    Rotating,
}

impl RegisterModelKind {
    /// The token naming this model on the wire, in the artifact codec and
    /// on the command line (`Display` spells `MVE` for reports).
    pub(crate) fn token(self) -> &'static str {
        match self {
            RegisterModelKind::Mve => "mve",
            RegisterModelKind::Rotating => "rotating",
        }
    }

    /// The model `token` names, or `None`.
    ///
    /// ```
    /// use clasp::RegisterModelKind;
    ///
    /// assert_eq!(RegisterModelKind::parse("rotating"), Some(RegisterModelKind::Rotating));
    /// assert_eq!(RegisterModelKind::parse("MVE"), None);
    /// ```
    pub fn parse(token: &str) -> Option<Self> {
        [RegisterModelKind::Mve, RegisterModelKind::Rotating]
            .into_iter()
            .find(|k| k.token() == token)
    }
}

impl fmt::Display for RegisterModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterModelKind::Mve => write!(f, "MVE"),
            RegisterModelKind::Rotating => write!(f, "rotating"),
        }
    }
}

/// Which phase-1+2 backend solves assignment and modulo scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's Figure 5 heuristic escalation loop.
    #[default]
    Heuristic,
    /// The exact SAT backend (`clasp-exact`): provably minimal II on
    /// small loops, [`SchedFailure::Budget`] past its resource caps.
    Exact,
}

impl BackendKind {
    /// The token naming this backend on the wire and on the command line.
    fn token(self) -> &'static str {
        match self {
            BackendKind::Heuristic => "heuristic",
            BackendKind::Exact => "exact",
        }
    }

    /// The backend `token` names (the inverse of `Display`), or `None`.
    ///
    /// ```
    /// use clasp::BackendKind;
    ///
    /// assert_eq!(BackendKind::parse("exact"), Some(BackendKind::Exact));
    /// assert_eq!(BackendKind::parse(&BackendKind::Heuristic.to_string()),
    ///            Some(BackendKind::Heuristic));
    /// assert_eq!(BackendKind::parse("sat"), None);
    /// ```
    pub fn parse(token: &str) -> Option<Self> {
        [BackendKind::Heuristic, BackendKind::Exact]
            .into_iter()
            .find(|k| k.token() == token)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The largest trip count a [`CompileRequest`] may carry from outside the
/// program: the daemon's request parser, every `clasp-cli --iterations`
/// and the artifact codec refuse more. Emission holds one instance per
/// working-graph node and iteration, so at the cap the largest shipped
/// loop (161 operations, 187 nodes with copies on `4c-gp`) simulates in
/// a 200 MB peak RSS (about 260 bytes an instance, measured on a
/// two-vCPU VM), and a loop at [`clasp_text::limits::MAX_NODES`] in about
/// 1.1 GB plus its copies.
pub const MAX_ITERATIONS: i64 = 4096;

/// What to compile and how. The driver's single input besides the loop
/// and the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileRequest {
    /// Which backend solves assignment + scheduling. The exact backend
    /// ignores the Figure 5 knobs in `pipeline.assign` and is only
    /// viable on small loops (see [`clasp_exact::ExactConfig`]).
    pub backend: BackendKind,
    /// Assignment + scheduling configuration (Figure 5 knobs).
    pub pipeline: PipelineConfig,
    /// Register-naming model for emission.
    pub register_model: RegisterModelKind,
    /// Run the stage scheduler between modulo scheduling and register
    /// modelling. Off preserves the raw modulo schedule bit-for-bit.
    pub restage: bool,
    /// Loop trip count for emission and verification (`0..=`
    /// [`MAX_ITERATIONS`] when it comes from outside the program).
    pub iterations: i64,
    /// Verify the emitted kernel against sequential semantics; a
    /// divergence fails compilation with [`PipelineError::Verify`].
    pub verify: bool,
}

impl Default for CompileRequest {
    fn default() -> Self {
        CompileRequest {
            backend: BackendKind::Heuristic,
            pipeline: PipelineConfig::default(),
            register_model: RegisterModelKind::Mve,
            restage: true,
            iterations: 16,
            verify: true,
        }
    }
}

/// One attempt of the Figure 5 escalation loop, as recorded in
/// [`CompileReport::trajectory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IiStep {
    /// II the attempt was asked to start from.
    pub requested_ii: u32,
    /// II the assignment phase actually settled on (>= requested).
    pub assigned_ii: u32,
    /// Copy operations the assignment inserted.
    pub copies: usize,
    /// Why the scheduler rejected this assignment; `None` on the
    /// successful final attempt.
    pub failure: Option<SchedFailure>,
}

/// Wall-clock time spent in each driver stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Source-graph analysis (SCCs, swing ordering).
    pub analysis: Duration,
    /// The assignment + modulo-scheduling escalation loop.
    pub assign_sched: Duration,
    /// Stage scheduling (zero when `restage` is off).
    pub restage: Duration,
    /// Register statistics and model construction.
    pub registers: Duration,
    /// Kernel emission.
    pub emit: Duration,
    /// Functional verification (zero when `verify` is off).
    pub verify: Duration,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        self.analysis + self.assign_sched + self.restage + self.registers + self.emit + self.verify
    }
}

/// Register-pressure statistics for one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterStats {
    /// MaxLive: peak simultaneously-live values.
    pub max_live: u32,
    /// Registers needed with per-lifetime rounding (MVE accounting).
    pub requirement: u32,
    /// MVE kernel unroll factor (lcm of per-value instance counts).
    pub unroll: u32,
    /// Rotating-register-file size for the same schedule.
    pub rrf_size: i64,
}

impl RegisterStats {
    fn compute(g: &Ddg, sched: &Schedule) -> RegisterStats {
        RegisterStats {
            max_live: max_live(g, sched),
            requirement: register_requirement(g, sched),
            unroll: MveInfo::compute(g, sched).unroll(),
            rrf_size: RrfInfo::compute(g, sched).size(),
        }
    }
}

/// Everything the driver observed while compiling one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReport {
    /// Name of the compiled loop.
    pub loop_name: String,
    /// Name of the target machine.
    pub machine_name: String,
    /// Phase-2 scheduler that ran.
    pub scheduler: SchedulerKind,
    /// Register model the kernel was emitted under.
    pub register_model: RegisterModelKind,
    /// Every Figure 5 attempt, in order; the last entry succeeded.
    pub trajectory: Vec<IiStep>,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Copy operations in the final assignment.
    pub copies: usize,
    /// Register statistics of the raw modulo schedule.
    pub registers_raw: RegisterStats,
    /// Register statistics of the emitted schedule (equals
    /// `registers_raw` when restaging is off).
    pub registers_final: RegisterStats,
    /// Operations moved by the stage scheduler (0 when off).
    pub stage_moves: usize,
    /// Total value lifetime before stage scheduling.
    pub lifetime_before: i64,
    /// Total value lifetime after stage scheduling.
    pub lifetime_after: i64,
    /// Kernel unroll factor actually emitted (1 for rotating).
    pub unroll: u32,
    /// Iterations the kernel was verified over; `None` when `verify`
    /// was off.
    pub verified_iterations: Option<i64>,
    /// Wall-clock per stage.
    pub timings: StageTimings,
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compile report: {} on {}",
            self.loop_name, self.machine_name
        )?;
        writeln!(
            f,
            "  scheduler {}, register model {}",
            self.scheduler, self.register_model
        )?;
        writeln!(f, "  II trajectory:")?;
        for step in &self.trajectory {
            match &step.failure {
                None => writeln!(
                    f,
                    "    II {:>3}: scheduled ({} copies)",
                    step.assigned_ii, step.copies
                )?,
                Some(why) => writeln!(
                    f,
                    "    II {:>3}: rejected — {why} ({} copies)",
                    step.assigned_ii, step.copies
                )?,
            }
        }
        writeln!(
            f,
            "  achieved II = {} after {} attempt(s); {} copies",
            self.ii,
            self.trajectory.len(),
            self.copies
        )?;
        writeln!(
            f,
            "  registers: MaxLive {}, requirement {} -> {} (stage scheduler moved {} ops, lifetime {} -> {})",
            self.registers_raw.max_live,
            self.registers_raw.requirement,
            self.registers_final.requirement,
            self.stage_moves,
            self.lifetime_before,
            self.lifetime_after
        )?;
        write!(f, "  kernel: unroll {}x", self.unroll)?;
        match self.verified_iterations {
            Some(n) => writeln!(f, ", verified over {n} iterations")?,
            None => writeln!(f, ", not verified")?,
        }
        let t = &self.timings;
        write!(
            f,
            "  timings: analysis {:?}, assign+sched {:?}, restage {:?}, registers {:?}, emit {:?}, verify {:?} (total {:?})",
            t.analysis, t.assign_sched, t.restage, t.registers, t.emit, t.verify,
            t.total()
        )
    }
}

/// The driver's output: every stage's product plus the report.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// Phase-1 output: working graph (with copies) and cluster map.
    pub assignment: Assignment,
    /// The schedule the kernel was emitted from (restaged when
    /// [`CompileRequest::restage`] is set, otherwise the raw modulo
    /// schedule).
    pub schedule: Schedule,
    /// The register-naming model used for emission.
    pub register_model: RegisterModel,
    /// The emitted kernel (prologue + kernel + epilogue bundles).
    pub program: Program,
    /// Everything observed along the way.
    pub report: CompileReport,
}

impl CompiledArtifact {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }

    /// Render the kernel as the paper-style modulo reservation table.
    pub fn kernel_table(&self, machine: &MachineSpec) -> String {
        kernel_table(
            &self.assignment.graph,
            &self.assignment.map,
            &self.schedule,
            machine.cluster_count(),
        )
    }
}

/// Compile `g` for `machine` through the full staged pipeline.
///
/// Stages run in a fixed order — analysis, assignment + modulo
/// scheduling (II escalation), optional stage scheduling, register
/// modelling, kernel emission, optional verification — and each failure
/// carries its typed reason in [`PipelineError`].
///
/// # Errors
///
/// See [`PipelineError`]; verification divergence surfaces as
/// [`PipelineError::Verify`].
///
/// # Examples
///
/// ```
/// use clasp::{compile_full, CompileRequest};
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
///
/// let mut g = Ddg::new("acc");
/// let x = g.add(OpKind::Load);
/// let a = g.add(OpKind::FpAdd);
/// let s = g.add(OpKind::Store);
/// g.add_dep(x, a);
/// g.add_dep_carried(a, a, 1);
/// g.add_dep(a, s);
/// let machine = presets::two_cluster_gp(2, 1);
/// let artifact = compile_full(&g, &machine, &CompileRequest::default())?;
/// assert_eq!(artifact.ii(), artifact.report.ii);
/// assert!(artifact.report.verified_iterations.is_some());
/// # Ok::<(), clasp::PipelineError>(())
/// ```
pub fn compile_full(
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
) -> Result<CompiledArtifact, PipelineError> {
    compile_full_observed(g, machine, req, &Obs::disabled())
}

/// [`compile_full`] recording into an observability sink: one span per
/// driver stage (replacing the report's hand-rolled stopwatch pairs —
/// the [`StageTimings`] now *are* the span durations), one
/// `pipeline.attempt` span per Figure 5 escalation, the assigner's
/// decision log as events, and the deterministic counters of
/// [`clasp_obs::Counter`]. With [`Obs::disabled`] this is exactly
/// [`compile_full`]: the sink records nothing and allocates nothing.
///
/// # Errors
///
/// See [`compile_full`].
pub fn compile_full_observed(
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
    obs: &Obs,
) -> Result<CompiledArtifact, PipelineError> {
    let compile_span = obs.begin("compile");

    let span = obs.begin("stage.analysis");
    let analysis = LoopAnalysis::compute(g);
    let analysis_t = obs.end(span);

    let span = obs.begin("stage.assign_sched");
    let mut trajectory = Vec::new();
    let result = match req.backend {
        BackendKind::Heuristic => escalate(
            g,
            machine,
            req.pipeline,
            Phase1::Paper(&analysis),
            obs,
            |requested_ii, assignment: &Assignment, failure: Option<&SchedFailure>| {
                trajectory.push(IiStep {
                    requested_ii,
                    assigned_ii: assignment.ii,
                    copies: assignment.copy_count(),
                    failure: failure.cloned(),
                });
            },
        ),
        BackendKind::Exact => compile_exact_observed(g, machine, obs, &mut trajectory),
    };
    let assign_sched_t = obs.end_with(span, || vec![("attempts", trajectory.len().to_string())]);
    let compiled = match result {
        Ok(c) => c,
        Err(e) => {
            obs.end_with(compile_span, || vec![("result", format!("failed: {e}"))]);
            return Err(e);
        }
    };
    let assignment = compiled.assignment;
    let raw = compiled.schedule;
    let wg = &assignment.graph;

    // Raw-schedule register statistics are recorded before restaging so
    // the report can show what the stage scheduler bought.
    let span = obs.begin("stage.registers_raw");
    let registers_raw = RegisterStats::compute(wg, &raw);
    let registers_raw_t = obs.end(span);

    let span = obs.begin("stage.restage");
    let (schedule, stage_moves, lifetime_before, lifetime_after) = if req.restage {
        let staged = stage_schedule(wg, &raw);
        (
            staged.schedule,
            staged.moves,
            staged.lifetime_before,
            staged.lifetime_after,
        )
    } else {
        let total: i64 = lifetimes(wg, &raw).iter().map(|lt| lt.len()).sum();
        (raw, 0, total, total)
    };
    let restage_t = obs.end(span);

    let span = obs.begin("stage.registers_model");
    let registers_final = if req.restage {
        RegisterStats::compute(wg, &schedule)
    } else {
        registers_raw
    };
    let model = match req.register_model {
        RegisterModelKind::Mve => RegisterModel::mve(wg, &schedule),
        RegisterModelKind::Rotating => RegisterModel::rotating(wg, &schedule),
    };
    let registers_t = registers_raw_t + obs.end(span);

    let span = obs.begin("stage.emit");
    let program = emit_program_with(wg, &assignment.map, &schedule, req.iterations, &model);
    let emit_t = obs.end(span);

    let span = obs.begin("stage.verify");
    let verified_iterations = if req.verify {
        match verify_program(wg, &program, req.iterations) {
            Ok(()) => {}
            Err(e) => {
                obs.end(span);
                obs.end_with(compile_span, || {
                    vec![("result", format!("verify failed: {e}"))]
                });
                return Err(PipelineError::Verify(e));
            }
        }
        Some(req.iterations)
    } else {
        None
    };
    let verify_t = obs.end(span);

    obs.end_with(compile_span, || {
        vec![
            ("loop", g.name().to_string()),
            ("machine", machine.name().to_string()),
            ("ii", schedule.ii().to_string()),
        ]
    });

    let report = CompileReport {
        loop_name: g.name().to_string(),
        machine_name: machine.name().to_string(),
        scheduler: req.pipeline.scheduler,
        register_model: req.register_model,
        trajectory,
        ii: schedule.ii(),
        copies: assignment.copy_count(),
        registers_raw,
        registers_final,
        stage_moves,
        lifetime_before,
        lifetime_after,
        unroll: model.unroll(),
        verified_iterations,
        timings: StageTimings {
            analysis: analysis_t,
            assign_sched: assign_sched_t,
            restage: restage_t,
            registers: registers_t,
            emit: emit_t,
            verify: verify_t,
        },
    };

    Ok(CompiledArtifact {
        assignment,
        schedule,
        register_model: model,
        program,
        report,
    })
}

/// The exact-backend counterpart of the heuristic `escalate`: iterate II
/// upward via [`clasp_exact::exact_schedule_with`], recording one
/// [`IiStep`] and one `pipeline.attempt` span per fixed-II attempt
/// (carrying the CNF size and conflict count instead of the heuristic's
/// copy statistics), then map the solver's terminal [`SchedFailure`]s
/// onto the pipeline's error shapes.
fn compile_exact_observed(
    g: &Ddg,
    machine: &MachineSpec,
    obs: &Obs,
    trajectory: &mut Vec<IiStep>,
) -> Result<CompiledLoop, PipelineError> {
    let config = ExactConfig::default();
    let result = clasp_exact::exact_schedule_with(g, machine, config, &mut |at| {
        let span = obs.begin("pipeline.attempt");
        obs.add(Counter::PipelineAttempts, 1);
        let failure = match at.outcome {
            clasp_exact::IiOutcome::Feasible => None,
            clasp_exact::IiOutcome::Infeasible => Some(SchedFailure::Infeasible { ii: at.ii }),
            clasp_exact::IiOutcome::Budget => Some(SchedFailure::Budget {
                conflicts: at.conflicts,
                nodes: g.node_count(),
            }),
        };
        trajectory.push(IiStep {
            requested_ii: at.ii,
            assigned_ii: at.ii,
            copies: 0,
            failure: failure.clone(),
        });
        obs.end_with(span, || {
            vec![
                ("requested_ii", at.ii.to_string()),
                ("assigned_ii", at.ii.to_string()),
                ("conflicts", at.conflicts.to_string()),
                ("vars", at.vars.to_string()),
                ("horizon", at.horizon.to_string()),
                (
                    "result",
                    match &failure {
                        None => "sat".to_string(),
                        Some(f) => format!("rejected: {f}"),
                    },
                ),
            ]
        });
    });
    match result {
        Ok((assignment, schedule)) => {
            if let Some(step) = trajectory.last_mut() {
                step.copies = assignment.copy_count();
            }
            obs.add(Counter::AssignCopies, assignment.copy_count() as u64);
            Ok(CompiledLoop {
                assignment,
                schedule,
            })
        }
        Err(SchedFailure::MiiUnbounded) => Err(PipelineError::UnifiedBaselineFailed(
            SchedFailure::MiiUnbounded,
        )),
        Err(SchedFailure::Exhausted { max_ii, last, .. }) => Err(PipelineError::IiExhausted {
            max_ii,
            last: last.map(|b| *b),
        }),
        // The size cap refuses before any II is tried.
        Err(failure) if trajectory.is_empty() => Err(PipelineError::Refused(failure)),
        Err(failure) => Err(PipelineError::IiExhausted {
            max_ii: trajectory.last().map_or(0, |s| s.assigned_ii),
            last: Some(failure),
        }),
    }
}

/// [`compile_full`] bound to the signature the differential fuzzing
/// oracle expects ([`clasp_oracle::PipelineFn`]): default request with
/// driver-side verification off, since the oracle performs its own
/// functional verification differentially over *both* register models.
///
/// Pass as `&clasp::oracle_pipeline` to [`clasp_oracle::run_fuzz`],
/// [`clasp_oracle::check_case`] or [`clasp_oracle::shrink_case`].
///
/// # Errors
///
/// The pipeline's [`PipelineError`], stringified (the oracle reports
/// pipeline failures, it never matches on them).
pub fn oracle_pipeline(
    g: &Ddg,
    machine: &MachineSpec,
) -> Result<clasp_oracle::CompiledCase, String> {
    let req = CompileRequest {
        verify: false,
        ..CompileRequest::default()
    };
    compile_full(g, machine, &req)
        .map(|artifact| clasp_oracle::CompiledCase {
            assignment: artifact.assignment,
            schedule: artifact.schedule,
        })
        .map_err(|e| e.to_string())
}
