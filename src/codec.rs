//! Versioned canonical serialization of compile results — the payload
//! format of the persistent cache tier and the `clasp-serve` wire
//! protocol's result body.
//!
//! # What is persisted, what is recomputed
//!
//! An encoded payload carries the *irreducible* outputs of a compile:
//! the working graph (with copies), the cluster map and copy transport
//! metadata, the final schedule, the II trajectory with typed failure
//! reasons, and the report's scalar statistics. The register model and
//! the emitted program are **recomputed on decode** — both are pure
//! deterministic functions of the working graph, the schedule, the
//! model kind, and the iteration count (all of which the payload
//! carries) — which keeps payloads small and sidesteps serializing the
//! bundle structures. Wall-clock [`StageTimings`] are deliberately
//! *not* persisted: they are the one nondeterministic field of a
//! report, so a decoded artifact carries zeroed timings and every
//! response derived from a persisted artifact is bit-identical to one
//! derived from a fresh compile (minus timing lines, which no gated
//! output prints).
//!
//! # Format
//!
//! Line-oriented UTF-8, space-separated tokens, names escaped with a
//! tiny `%xx` scheme so they tokenize safely. The first line is either
//! `artifact <version>` or `error <version>`; [`ARTIFACT_FORMAT`] names
//! the current version and doubles as the disk tier's format tag, so a
//! codec change invalidates persisted entries by tag mismatch (an
//! honest miss) rather than by parse failure. Pipeline errors are
//! encoded with their full typed structure — every variant of
//! [`PipelineError`], [`SchedFailure`], [`AssignError`] and friends
//! round-trips exactly, including the recursive `Exhausted` chain.

use crate::driver::{
    CompileReport, CompiledArtifact, IiStep, RegisterModelKind, RegisterStats, StageTimings,
    MAX_ITERATIONS,
};
use crate::pipeline::PipelineError;
use clasp_core::{AssignError, AssignFailure, AssignStats, Assignment};
use clasp_ddg::{Ddg, DepEdge, GraphError, NodeId, OpKind};
use clasp_kernel::{emit_program_with, RegisterModel, SimError};
use clasp_machine::{ClusterId, LinkId};
use clasp_mrt::{ClusterMap, CopyMeta};
use clasp_sched::{SchedFailure, Schedule, ScheduleError, SchedulerKind};
use clasp_text::limits::{MAX_DISTANCE, MAX_LATENCY};
use std::fmt;
use std::fmt::Write as _;

/// Version tag of the payload format. Used as the first-line version
/// marker *and* as the persistent tier's format tag; bump it whenever
/// the encoding (or anything it transitively renders) changes shape.
pub const ARTIFACT_FORMAT: &str = "clasp-artifact/3";

/// A payload that could not be decoded (wrong version, malformed line,
/// out-of-range value). The persistent tier treats this as corruption:
/// the lookup degrades to a recompute and `cache.disk_errors` ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---------------------------------------------------------------------
// Token-level helpers
// ---------------------------------------------------------------------

/// Escape a free-form name into one whitespace-free token.
fn escape_into(s: &str, out: &mut String) {
    if s.is_empty() {
        out.push_str("%e");
        return;
    }
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            _ => out.push(c),
        }
    }
}

fn unescape(token: &str) -> Result<String, CodecError> {
    if token == "%e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        match (hi, lo) {
            (Some(h), Some(l)) => {
                let byte = u8::from_str_radix(&format!("{h}{l}"), 16)
                    .map_err(|_| CodecError(format!("bad escape in {token:?}")))?;
                out.push(byte as char);
            }
            _ => return err(format!("truncated escape in {token:?}")),
        }
    }
    Ok(out)
}

fn kind_of(token: &str) -> Result<OpKind, CodecError> {
    OpKind::parse(token).ok_or_else(|| CodecError(format!("unknown op kind {token:?}")))
}

fn model_of(token: &str) -> Result<RegisterModelKind, CodecError> {
    RegisterModelKind::parse(token)
        .ok_or_else(|| CodecError(format!("unknown register model {token:?}")))
}

/// A cursor over one line's whitespace-separated tokens.
struct Tokens<'a> {
    line: &'a str,
    iter: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn of(line: &'a str) -> Tokens<'a> {
        Tokens {
            line,
            iter: line.split_ascii_whitespace(),
        }
    }

    fn next(&mut self) -> Result<&'a str, CodecError> {
        match self.iter.next() {
            Some(t) => Ok(t),
            None => err(format!("truncated line {:?}", self.line)),
        }
    }

    fn parse<T: std::str::FromStr>(&mut self) -> Result<T, CodecError> {
        let tok = self.next()?;
        tok.parse()
            .map_err(|_| CodecError(format!("bad number {tok:?} in {:?}", self.line)))
    }

    fn expect(&mut self, keyword: &str) -> Result<(), CodecError> {
        let tok = self.next()?;
        if tok == keyword {
            Ok(())
        } else {
            err(format!(
                "expected {keyword:?}, found {tok:?} in {:?}",
                self.line
            ))
        }
    }

    fn done(&mut self) -> Result<(), CodecError> {
        match self.iter.next() {
            None => Ok(()),
            Some(t) => err(format!("trailing token {t:?} in {:?}", self.line)),
        }
    }
}

/// A cursor over payload lines (split as [`str::lines`] splits them).
struct Lines<'a> {
    rest: &'a str,
}

impl<'a> Lines<'a> {
    fn of(payload: &'a str) -> Lines<'a> {
        Lines { rest: payload }
    }

    fn next(&mut self) -> Result<&'a str, CodecError> {
        if self.rest.is_empty() {
            return err("truncated payload");
        }
        let line = match self.rest.split_once('\n') {
            Some((line, rest)) => {
                self.rest = rest;
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.rest),
        };
        Ok(line)
    }

    /// `count`, if that many more lines could still follow (each takes at
    /// least one byte): a count read from the payload is checked here
    /// before anything is sized by it.
    fn bound(&self, count: usize, what: &str) -> Result<usize, CodecError> {
        if count > self.rest.len() {
            return err(format!("{what} count {count} exceeds the payload"));
        }
        Ok(count)
    }

    fn next_tokens(&mut self) -> Result<Tokens<'a>, CodecError> {
        Ok(Tokens::of(self.next()?))
    }
}

// ---------------------------------------------------------------------
// Typed failure expressions (single line, recursive descent)
// ---------------------------------------------------------------------

fn write_sched_failure(f: &SchedFailure, out: &mut String) {
    match f {
        SchedFailure::BudgetExhausted { ii, node } => {
            let _ = write!(out, "budget {ii} {}", node.0);
        }
        SchedFailure::ResourceImpossible { ii, node } => {
            let _ = write!(out, "resource {ii} {}", node.0);
        }
        SchedFailure::Budget { conflicts, nodes } => {
            let _ = write!(out, "solver-budget {conflicts} {nodes}");
        }
        SchedFailure::Infeasible { ii } => {
            let _ = write!(out, "infeasible {ii}");
        }
        SchedFailure::MiiUnbounded => {
            let _ = write!(out, "mii-unbounded");
        }
        SchedFailure::Invalid(e) => {
            let _ = write!(out, "invalid ");
            write_schedule_error(e, out);
        }
        SchedFailure::Exhausted {
            min_ii,
            max_ii,
            last,
        } => {
            let _ = write!(out, "exhausted {min_ii} {max_ii} ");
            match last {
                Some(inner) => write_sched_failure(inner, out),
                None => {
                    let _ = write!(out, "-");
                }
            }
        }
    }
}

fn read_sched_failure(t: &mut Tokens<'_>) -> Result<SchedFailure, CodecError> {
    Ok(match t.next()? {
        "budget" => SchedFailure::BudgetExhausted {
            ii: t.parse()?,
            node: NodeId(t.parse()?),
        },
        "resource" => SchedFailure::ResourceImpossible {
            ii: t.parse()?,
            node: NodeId(t.parse()?),
        },
        "solver-budget" => SchedFailure::Budget {
            conflicts: t.parse()?,
            nodes: t.parse()?,
        },
        "infeasible" => SchedFailure::Infeasible { ii: t.parse()? },
        "mii-unbounded" => SchedFailure::MiiUnbounded,
        "invalid" => SchedFailure::Invalid(read_schedule_error(t)?),
        "exhausted" => {
            let min_ii = t.parse()?;
            let max_ii = t.parse()?;
            // Peek: `-` terminates, anything else opens the inner failure.
            let last = {
                let mut probe = t.iter.clone();
                match probe.next() {
                    Some("-") => {
                        t.next()?;
                        None
                    }
                    _ => Some(Box::new(read_sched_failure(t)?)),
                }
            };
            SchedFailure::Exhausted {
                min_ii,
                max_ii,
                last,
            }
        }
        other => return err(format!("unknown sched failure {other:?}")),
    })
}

fn write_schedule_error(e: &ScheduleError, out: &mut String) {
    match e {
        ScheduleError::Unscheduled { node, op } => {
            let _ = write!(out, "unscheduled {} {}", node.0, op.token());
        }
        ScheduleError::DependenceViolated {
            src,
            src_op,
            src_cycle,
            dst,
            dst_op,
            dst_cycle,
            slack,
        } => {
            let _ = write!(
                out,
                "dep-violated {} {} {src_cycle} {} {} {dst_cycle} {slack}",
                src.0,
                src_op.token(),
                dst.0,
                dst_op.token()
            );
        }
        ScheduleError::ResourceOveruse { node, op, row } => {
            let _ = write!(out, "overuse {} {} {row}", node.0, op.token());
        }
        ScheduleError::MissingAssignment(n) => {
            let _ = write!(out, "missing-assignment {}", n.0);
        }
        ScheduleError::MissingCopyMeta(n) => {
            let _ = write!(out, "missing-copy-meta {}", n.0);
        }
    }
}

fn read_schedule_error(t: &mut Tokens<'_>) -> Result<ScheduleError, CodecError> {
    Ok(match t.next()? {
        "unscheduled" => ScheduleError::Unscheduled {
            node: NodeId(t.parse()?),
            op: kind_of(t.next()?)?,
        },
        "dep-violated" => ScheduleError::DependenceViolated {
            src: NodeId(t.parse()?),
            src_op: kind_of(t.next()?)?,
            src_cycle: t.parse()?,
            dst: NodeId(t.parse()?),
            dst_op: kind_of(t.next()?)?,
            dst_cycle: t.parse()?,
            slack: t.parse()?,
        },
        "overuse" => ScheduleError::ResourceOveruse {
            node: NodeId(t.parse()?),
            op: kind_of(t.next()?)?,
            row: t.parse()?,
        },
        "missing-assignment" => ScheduleError::MissingAssignment(NodeId(t.parse()?)),
        "missing-copy-meta" => ScheduleError::MissingCopyMeta(NodeId(t.parse()?)),
        other => return err(format!("unknown schedule error {other:?}")),
    })
}

fn write_assign_error(e: &AssignError, out: &mut String) {
    match e {
        AssignError::BadGraph(GraphError::DanglingEdge(edge)) => {
            let _ = write!(out, "bad-graph dangling-edge {}", edge.0);
        }
        AssignError::BadGraph(GraphError::IntraIterationCycle) => {
            let _ = write!(out, "bad-graph cycle");
        }
        AssignError::InfeasibleOp(n) => {
            let _ = write!(out, "infeasible-op {}", n.0);
        }
        AssignError::IiExhausted { max_ii, last } => {
            let _ = write!(out, "ii-exhausted {max_ii} ");
            match last {
                None => {
                    let _ = write!(out, "-");
                }
                Some(AssignFailure::BudgetExhausted { ii, node }) => {
                    let _ = write!(out, "budget {ii} {}", node.0);
                }
                Some(AssignFailure::NoFeasibleCluster { ii, node }) => {
                    let _ = write!(out, "no-feasible {ii} {}", node.0);
                }
                Some(AssignFailure::ForceFailed { ii, node }) => {
                    let _ = write!(out, "force-failed {ii} {}", node.0);
                }
            }
        }
    }
}

fn read_assign_error(t: &mut Tokens<'_>) -> Result<AssignError, CodecError> {
    Ok(match t.next()? {
        "bad-graph" => match t.next()? {
            "dangling-edge" => {
                AssignError::BadGraph(GraphError::DanglingEdge(clasp_ddg::EdgeId(t.parse()?)))
            }
            "cycle" => AssignError::BadGraph(GraphError::IntraIterationCycle),
            other => return err(format!("unknown graph error {other:?}")),
        },
        "infeasible-op" => AssignError::InfeasibleOp(NodeId(t.parse()?)),
        "ii-exhausted" => {
            let max_ii = t.parse()?;
            let last = match t.next()? {
                "-" => None,
                "budget" => Some(AssignFailure::BudgetExhausted {
                    ii: t.parse()?,
                    node: NodeId(t.parse()?),
                }),
                "no-feasible" => Some(AssignFailure::NoFeasibleCluster {
                    ii: t.parse()?,
                    node: NodeId(t.parse()?),
                }),
                "force-failed" => Some(AssignFailure::ForceFailed {
                    ii: t.parse()?,
                    node: NodeId(t.parse()?),
                }),
                other => return err(format!("unknown assign failure {other:?}")),
            };
            AssignError::IiExhausted { max_ii, last }
        }
        other => return err(format!("unknown assign error {other:?}")),
    })
}

fn write_pipeline_error(e: &PipelineError, out: &mut String) {
    match e {
        PipelineError::Assign(inner) => {
            let _ = write!(out, "assign ");
            write_assign_error(inner, out);
        }
        PipelineError::IiExhausted { max_ii, last } => {
            let _ = write!(out, "ii-exhausted {max_ii} ");
            match last {
                Some(f) => write_sched_failure(f, out),
                None => {
                    let _ = write!(out, "-");
                }
            }
        }
        PipelineError::UnifiedBaselineFailed(f) => {
            let _ = write!(out, "unified ");
            write_sched_failure(f, out);
        }
        PipelineError::Refused(f) => {
            let _ = write!(out, "refused ");
            write_sched_failure(f, out);
        }
        PipelineError::Verify(SimError::UninitializedRead { reg, cycle }) => {
            let _ = write!(
                out,
                "verify uninit {} {} {} {cycle}",
                reg.cluster.0, reg.def.0, reg.index
            );
        }
        PipelineError::Verify(SimError::Mismatch {
            node,
            iteration,
            got,
            expected,
        }) => {
            let _ = write!(
                out,
                "verify mismatch {} {iteration} {got} {expected}",
                node.0
            );
        }
        PipelineError::Verify(SimError::EventCount { got, expected }) => {
            let _ = write!(out, "verify event-count {got} {expected}");
        }
    }
}

fn read_pipeline_error(t: &mut Tokens<'_>) -> Result<PipelineError, CodecError> {
    Ok(match t.next()? {
        "assign" => PipelineError::Assign(read_assign_error(t)?),
        "ii-exhausted" => {
            let max_ii = t.parse()?;
            let last = {
                let mut probe = t.iter.clone();
                match probe.next() {
                    Some("-") => {
                        t.next()?;
                        None
                    }
                    _ => Some(read_sched_failure(t)?),
                }
            };
            PipelineError::IiExhausted { max_ii, last }
        }
        "unified" => PipelineError::UnifiedBaselineFailed(read_sched_failure(t)?),
        "refused" => PipelineError::Refused(read_sched_failure(t)?),
        "verify" => PipelineError::Verify(match t.next()? {
            "uninit" => SimError::UninitializedRead {
                reg: clasp_kernel::Reg {
                    cluster: ClusterId(t.parse()?),
                    def: NodeId(t.parse()?),
                    index: t.parse()?,
                },
                cycle: t.parse()?,
            },
            "mismatch" => SimError::Mismatch {
                node: NodeId(t.parse()?),
                iteration: t.parse()?,
                got: t.parse()?,
                expected: t.parse()?,
            },
            "event-count" => SimError::EventCount {
                got: t.parse()?,
                expected: t.parse()?,
            },
            other => return err(format!("unknown sim error {other:?}")),
        }),
        other => return err(format!("unknown pipeline error {other:?}")),
    })
}

// ---------------------------------------------------------------------
// Artifact body
// ---------------------------------------------------------------------

fn write_register_stats(tag: &str, r: &RegisterStats, out: &mut String) {
    let _ = writeln!(
        out,
        "{tag} {} {} {} {}",
        r.max_live, r.requirement, r.unroll, r.rrf_size
    );
}

fn read_register_stats(t: &mut Tokens<'_>) -> Result<RegisterStats, CodecError> {
    Ok(RegisterStats {
        max_live: t.parse()?,
        requirement: t.parse()?,
        unroll: t.parse()?,
        rrf_size: t.parse()?,
    })
}

/// Encode a compile result as a self-contained payload.
pub fn encode(result: &Result<CompiledArtifact, PipelineError>, iterations: i64) -> String {
    let mut out = String::new();
    match result {
        Err(e) => {
            let _ = writeln!(out, "error {ARTIFACT_FORMAT}");
            write_pipeline_error(e, &mut out);
            out.push('\n');
        }
        Ok(a) => {
            let _ = writeln!(out, "artifact {ARTIFACT_FORMAT}");
            let r = &a.report;
            let _ = write!(out, "loop ");
            escape_into(&r.loop_name, &mut out);
            out.push('\n');
            let _ = write!(out, "machine ");
            escape_into(&r.machine_name, &mut out);
            out.push('\n');
            let _ = writeln!(
                out,
                "config {} {} {iterations}",
                r.scheduler,
                r.register_model.token()
            );

            // Working graph (with copies), nodes and edges in id order.
            let wg = &a.assignment.graph;
            let _ = write!(out, "graph {} {} ", wg.node_count(), wg.edge_count());
            escape_into(wg.name(), &mut out);
            out.push('\n');
            for (n, op) in wg.nodes() {
                let _ = write!(out, "n {} {}", n.0, op.kind.token());
                if let Some(name) = &op.name {
                    out.push(' ');
                    escape_into(name, &mut out);
                }
                out.push('\n');
            }
            for (_, e) in wg.edges() {
                let _ = writeln!(
                    out,
                    "e {} {} {} {}",
                    e.src.0, e.dst.0, e.latency, e.distance
                );
            }

            // Cluster map + copy transport metadata (node order).
            let assigned: Vec<_> = a.assignment.map.iter().collect();
            let _ = writeln!(out, "map {}", assigned.len());
            for (n, c) in assigned {
                let _ = writeln!(out, "a {} {}", n.0, c.0);
            }
            let copies: Vec<_> = a.assignment.map.copies().collect();
            let _ = writeln!(out, "copies {}", copies.len());
            for (n, meta) in copies {
                let _ = write!(out, "c {} {}", n.0, meta.src.0);
                match meta.link {
                    Some(l) => {
                        let _ = write!(out, " {}", l.0);
                    }
                    None => {
                        let _ = write!(out, " -");
                    }
                }
                let _ = write!(out, " {}", meta.targets.len());
                for t in &meta.targets {
                    let _ = write!(out, " {}", t.0);
                }
                out.push('\n');
            }
            let s = &a.assignment.stats;
            let _ = writeln!(
                out,
                "assign {} {} {} {} {}",
                a.assignment.ii, s.ii_attempts, s.removals, s.forced, s.copies
            );

            // Final schedule, in node order (canonical form).
            let _ = writeln!(out, "sched {} {}", a.schedule.ii(), a.schedule.len());
            for (n, t) in a.schedule.iter() {
                let _ = writeln!(out, "t {} {t}", n.0);
            }

            // II trajectory with typed failures.
            let _ = writeln!(out, "traj {}", r.trajectory.len());
            for step in &r.trajectory {
                let _ = write!(
                    out,
                    "step {} {} {} ",
                    step.requested_ii, step.assigned_ii, step.copies
                );
                match &step.failure {
                    None => out.push_str("ok"),
                    Some(f) => {
                        out.push_str("fail ");
                        write_sched_failure(f, &mut out);
                    }
                }
                out.push('\n');
            }

            // Report scalars.
            let verified = match r.verified_iterations {
                Some(n) => n.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "report {} {} {} {} {} {} {verified}",
                r.ii, r.copies, r.stage_moves, r.lifetime_before, r.lifetime_after, r.unroll
            );
            write_register_stats("regraw", &r.registers_raw, &mut out);
            write_register_stats("regfin", &r.registers_final, &mut out);
            out.push_str("end\n");
        }
    }
    out
}

/// Decode a payload produced by [`encode`], recomputing the register
/// model and the emitted program from the persisted graph + schedule.
///
/// The payload is checked before anything is sized by it or rebuilt from
/// it: every count must fit in what remains of the payload, every node id
/// must name a node of the `graph` line, every node must have a cluster
/// and a cycle, every copy its transport metadata, the iteration count
/// must lie in `0..=`[`MAX_ITERATIONS`], every edge's latency and
/// distance within [`clasp_text::limits`], and the report's II must be
/// the schedule's.
///
/// # Errors
///
/// [`CodecError`] on any malformed, inconsistent or version-mismatched
/// payload; the caller degrades this to a cache miss.
pub fn decode(payload: &str) -> Result<Result<CompiledArtifact, PipelineError>, CodecError> {
    let mut lines = Lines::of(payload);
    let mut head = lines.next_tokens()?;
    match head.next()? {
        "error" => {
            if head.next()? != ARTIFACT_FORMAT {
                return err("format version mismatch");
            }
            head.done()?;
            let mut t = lines.next_tokens()?;
            let e = read_pipeline_error(&mut t)?;
            t.done()?;
            Ok(Err(e))
        }
        "artifact" => {
            if head.next()? != ARTIFACT_FORMAT {
                return err("format version mismatch");
            }
            head.done()?;
            decode_artifact(&mut lines).map(Ok)
        }
        other => err(format!("unknown payload head {other:?}")),
    }
}

/// A node id token, checked against the graph's node count.
fn node_of(t: &mut Tokens<'_>, node_count: usize) -> Result<NodeId, CodecError> {
    let id: u32 = t.parse()?;
    if id as usize >= node_count {
        return err(format!("node id {id} outside a {node_count}-node graph"));
    }
    Ok(NodeId(id))
}

fn decode_artifact(lines: &mut Lines<'_>) -> Result<CompiledArtifact, CodecError> {
    let mut t = lines.next_tokens()?;
    t.expect("loop")?;
    let loop_name = unescape(t.next()?)?;
    t.done()?;

    let mut t = lines.next_tokens()?;
    t.expect("machine")?;
    let machine_name = unescape(t.next()?)?;
    t.done()?;

    let mut t = lines.next_tokens()?;
    t.expect("config")?;
    let token = t.next()?;
    let scheduler = SchedulerKind::parse(token)
        .ok_or_else(|| CodecError(format!("unknown scheduler {token:?}")))?;
    let register_model = model_of(t.next()?)?;
    let iterations: i64 = t.parse()?;
    t.done()?;
    if iterations < 0 {
        return err(format!("negative iteration count {iterations}"));
    }
    if iterations > MAX_ITERATIONS {
        return err(format!(
            "iteration count {iterations} exceeds the limit of {MAX_ITERATIONS}"
        ));
    }

    // Working graph.
    let mut t = lines.next_tokens()?;
    t.expect("graph")?;
    let node_count: usize = t.parse()?;
    let edge_count: usize = t.parse()?;
    let graph_name = unescape(t.next()?)?;
    t.done()?;
    let mut wg = Ddg::new(graph_name);
    for i in 0..node_count {
        let mut t = lines.next_tokens()?;
        t.expect("n")?;
        let id: u32 = t.parse()?;
        if id as usize != i {
            return err(format!("non-dense node id {id} at position {i}"));
        }
        let kind = kind_of(t.next()?)?;
        let added = match t.iter.next() {
            Some(label) => wg.add_named(kind, unescape(label)?),
            None => wg.add(kind),
        };
        if added.0 != id {
            return err("node id mismatch on rebuild");
        }
    }
    for _ in 0..edge_count {
        let mut t = lines.next_tokens()?;
        t.expect("e")?;
        let src = NodeId(t.parse()?);
        let dst = NodeId(t.parse()?);
        let latency: u32 = t.parse()?;
        let distance: u32 = t.parse()?;
        t.done()?;
        if src.0 as usize >= node_count || dst.0 as usize >= node_count {
            return err("edge references unknown node");
        }
        for (what, value, limit) in [
            ("latency", latency, MAX_LATENCY),
            ("distance", distance, MAX_DISTANCE),
        ] {
            if value > limit {
                return err(format!("edge {what} {value} exceeds the limit of {limit}"));
            }
        }
        wg.add_edge(DepEdge {
            src,
            dst,
            latency,
            distance,
        });
    }

    // Cluster map.
    let mut t = lines.next_tokens()?;
    t.expect("map")?;
    let assigned: usize = t.parse()?;
    t.done()?;
    let mut map = ClusterMap::new();
    for _ in 0..assigned {
        let mut t = lines.next_tokens()?;
        t.expect("a")?;
        let n = node_of(&mut t, node_count)?;
        let c = ClusterId(t.parse()?);
        t.done()?;
        map.assign(n, c);
    }
    let mut t = lines.next_tokens()?;
    t.expect("copies")?;
    let copies: usize = t.parse()?;
    t.done()?;
    for _ in 0..copies {
        let mut t = lines.next_tokens()?;
        t.expect("c")?;
        let n = node_of(&mut t, node_count)?;
        let src = ClusterId(t.parse()?);
        let link = match t.next()? {
            "-" => None,
            tok => Some(LinkId(
                tok.parse()
                    .map_err(|_| CodecError(format!("bad link id {tok:?}")))?,
            )),
        };
        let target_count: usize = t.parse()?;
        if target_count > t.line.len() {
            return err(format!("copy target count {target_count} exceeds its line"));
        }
        let mut targets = Vec::with_capacity(target_count);
        for _ in 0..target_count {
            targets.push(ClusterId(t.parse()?));
        }
        t.done()?;
        map.set_copy_meta(n, CopyMeta { src, targets, link });
    }
    let mut t = lines.next_tokens()?;
    t.expect("assign")?;
    let assign_ii: u32 = t.parse()?;
    let stats = AssignStats {
        ii_attempts: t.parse()?,
        removals: t.parse()?,
        forced: t.parse()?,
        copies: t.parse()?,
    };
    t.done()?;

    // Schedule.
    let mut t = lines.next_tokens()?;
    t.expect("sched")?;
    let sched_ii: u32 = t.parse()?;
    if sched_ii == 0 {
        return err("schedule II must be positive");
    }
    let sched_len = lines.bound(t.parse()?, "schedule")?;
    t.done()?;
    let mut time = Vec::with_capacity(sched_len);
    for _ in 0..sched_len {
        let mut t = lines.next_tokens()?;
        t.expect("t")?;
        let n = node_of(&mut t, node_count)?;
        let cycle: i64 = t.parse()?;
        t.done()?;
        time.push((n, cycle));
    }
    let schedule = Schedule::new(sched_ii, time);
    // Emission and the register models read every node's cluster and
    // cycle and every copy's targets: a payload missing one is rejected
    // here rather than panicking there.
    for (n, op) in wg.nodes() {
        if map.cluster_of(n).is_none() {
            return err(format!("node {} has no cluster", n.0));
        }
        if schedule.start(n).is_none() {
            return err(format!("node {} has no cycle", n.0));
        }
        if op.kind.is_copy() && map.copy_meta(n).is_none() {
            return err(format!("copy {} has no transport metadata", n.0));
        }
    }

    // Trajectory.
    let mut t = lines.next_tokens()?;
    t.expect("traj")?;
    let steps = lines.bound(t.parse()?, "trajectory")?;
    t.done()?;
    let mut trajectory = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut t = lines.next_tokens()?;
        t.expect("step")?;
        let requested_ii: u32 = t.parse()?;
        let assigned_ii: u32 = t.parse()?;
        let copies: usize = t.parse()?;
        let failure = match t.next()? {
            "ok" => None,
            "fail" => Some(read_sched_failure(&mut t)?),
            other => return err(format!("unknown step outcome {other:?}")),
        };
        t.done()?;
        trajectory.push(IiStep {
            requested_ii,
            assigned_ii,
            copies,
            failure,
        });
    }

    // Report scalars.
    let mut t = lines.next_tokens()?;
    t.expect("report")?;
    let ii: u32 = t.parse()?;
    if ii != sched_ii {
        return err(format!(
            "report II {ii} is not the schedule's II {sched_ii}"
        ));
    }
    let report_copies: usize = t.parse()?;
    let stage_moves: usize = t.parse()?;
    let lifetime_before: i64 = t.parse()?;
    let lifetime_after: i64 = t.parse()?;
    let unroll: u32 = t.parse()?;
    let verified_iterations = match t.next()? {
        "-" => None,
        tok => Some(
            tok.parse()
                .map_err(|_| CodecError(format!("bad iteration count {tok:?}")))?,
        ),
    };
    t.done()?;
    let mut t = lines.next_tokens()?;
    t.expect("regraw")?;
    let registers_raw = read_register_stats(&mut t)?;
    t.done()?;
    let mut t = lines.next_tokens()?;
    t.expect("regfin")?;
    let registers_final = read_register_stats(&mut t)?;
    t.done()?;
    let mut t = lines.next_tokens()?;
    t.expect("end")?;
    t.done()?;

    // Recompute the derived stages: both are pure functions of what the
    // payload carries.
    let model = match register_model {
        RegisterModelKind::Mve => RegisterModel::mve(&wg, &schedule),
        RegisterModelKind::Rotating => RegisterModel::rotating(&wg, &schedule),
    };
    let program = emit_program_with(&wg, &map, &schedule, iterations, &model);

    let report = CompileReport {
        loop_name,
        machine_name,
        scheduler,
        register_model,
        trajectory,
        ii,
        copies: report_copies,
        registers_raw,
        registers_final,
        stage_moves,
        lifetime_before,
        lifetime_after,
        unroll,
        verified_iterations,
        // Wall-clock is volatile by definition; a decoded artifact
        // reports zero so persisted-warm responses match cold ones.
        timings: StageTimings::default(),
    };

    Ok(CompiledArtifact {
        assignment: Assignment {
            graph: wg,
            map,
            ii: assign_ii,
            stats,
        },
        schedule,
        register_model: model,
        program,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_full, CompileRequest};
    use clasp_machine::presets;

    fn zeroed_timings(mut a: CompiledArtifact) -> CompiledArtifact {
        a.report.timings = StageTimings::default();
        a
    }

    fn build(kinds: &[(OpKind, Option<&str>)], deps: &[(usize, usize, u32)]) -> Ddg {
        let mut g = Ddg::new("codec");
        let ids: Vec<NodeId> = kinds
            .iter()
            .map(|(k, name)| match name {
                Some(n) => g.add_named(*k, *n),
                None => g.add(*k),
            })
            .collect();
        for &(s, d, dist) in deps {
            if dist == 0 {
                g.add_dep(ids[s], ids[d]);
            } else {
                g.add_dep_carried(ids[s], ids[d], dist);
            }
        }
        g
    }

    #[test]
    fn artifact_round_trips_bit_exactly() {
        let g = build(
            &[
                (OpKind::Load, Some("x[i]")),
                (OpKind::FpMult, None),
                (OpKind::FpAdd, Some("weird \"name\" with spaces")),
                (OpKind::Store, None),
            ],
            &[(0, 1, 0), (1, 2, 0), (2, 2, 1), (2, 3, 0)],
        );
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let artifact = compile_full(&g, &m, &req).expect("compiles");
        let payload = encode(&Ok(artifact.clone()), req.iterations);
        let back = decode(&payload).expect("decodes").expect("is an artifact");
        // The decoded artifact re-encodes to the identical payload
        // (canonical form) and matches the original field-for-field
        // modulo wall-clock timings.
        assert_eq!(encode(&Ok(back.clone()), req.iterations), payload);
        let original = zeroed_timings(artifact);
        assert_eq!(back.report, original.report);
        assert_eq!(back.schedule, original.schedule);
        assert_eq!(back.program, original.program);
        assert_eq!(back.assignment.ii, original.assignment.ii);
        assert_eq!(back.assignment.stats, original.assignment.stats);
        assert_eq!(
            back.kernel_table(&m),
            original.kernel_table(&m),
            "kernel tables must agree"
        );
    }

    #[test]
    fn every_error_shape_round_trips() {
        let cases: Vec<PipelineError> = vec![
            PipelineError::Assign(AssignError::BadGraph(GraphError::IntraIterationCycle)),
            PipelineError::Assign(AssignError::BadGraph(GraphError::DanglingEdge(
                clasp_ddg::EdgeId(7),
            ))),
            PipelineError::Assign(AssignError::InfeasibleOp(NodeId(3))),
            PipelineError::Assign(AssignError::IiExhausted {
                max_ii: 64,
                last: Some(AssignFailure::ForceFailed {
                    ii: 17,
                    node: NodeId(2),
                }),
            }),
            PipelineError::Assign(AssignError::IiExhausted {
                max_ii: 9,
                last: None,
            }),
            PipelineError::IiExhausted {
                max_ii: 128,
                last: Some(SchedFailure::Exhausted {
                    min_ii: 4,
                    max_ii: 128,
                    last: Some(Box::new(SchedFailure::BudgetExhausted {
                        ii: 128,
                        node: NodeId(11),
                    })),
                }),
            },
            PipelineError::IiExhausted {
                max_ii: 5,
                last: None,
            },
            PipelineError::UnifiedBaselineFailed(SchedFailure::MiiUnbounded),
            PipelineError::UnifiedBaselineFailed(SchedFailure::Budget {
                conflicts: 200_000,
                nodes: 14,
            }),
            PipelineError::UnifiedBaselineFailed(SchedFailure::Budget {
                conflicts: 0,
                nodes: 40,
            }),
            PipelineError::Refused(SchedFailure::Budget {
                conflicts: 0,
                nodes: 22,
            }),
            PipelineError::IiExhausted {
                max_ii: 12,
                last: Some(SchedFailure::Exhausted {
                    min_ii: 3,
                    max_ii: 12,
                    last: Some(Box::new(SchedFailure::Infeasible { ii: 12 })),
                }),
            },
            PipelineError::UnifiedBaselineFailed(SchedFailure::Invalid(
                ScheduleError::DependenceViolated {
                    src: NodeId(1),
                    src_op: OpKind::FpMult,
                    src_cycle: 12,
                    dst: NodeId(2),
                    dst_op: OpKind::Store,
                    dst_cycle: 3,
                    slack: -9,
                },
            )),
            PipelineError::Verify(SimError::Mismatch {
                node: NodeId(4),
                iteration: 7,
                got: 123,
                expected: 456,
            }),
            PipelineError::Verify(SimError::UninitializedRead {
                reg: clasp_kernel::Reg {
                    cluster: ClusterId(1),
                    def: NodeId(9),
                    index: 2,
                },
                cycle: 40,
            }),
            PipelineError::Verify(SimError::EventCount {
                got: 10,
                expected: 12,
            }),
        ];
        for e in cases {
            let payload = encode(&Err(e.clone()), 16);
            let back = decode(&payload).expect("decodes").expect_err("is an error");
            assert_eq!(back, e, "payload: {payload}");
        }
    }

    #[test]
    fn malformed_payloads_fail_without_panicking() {
        for bad in [
            "",
            "garbage",
            "artifact clasp-artifact/0\n",
            "artifact clasp-artifact/1\nloop x\n",
            "error clasp-artifact/1\nnot-an-error\n",
            "artifact clasp-artifact/1\nloop a\nmachine b\nconfig iterative mve nope\n",
        ] {
            assert!(decode(bad).is_err(), "{bad:?} must not decode");
        }
        // A truncated real payload must also fail cleanly.
        let g = build(&[(OpKind::Load, None), (OpKind::Store, None)], &[(0, 1, 0)]);
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let artifact = compile_full(&g, &m, &req).expect("compiles");
        let payload = encode(&Ok(artifact), req.iterations);
        for cut in [payload.len() / 4, payload.len() / 2, payload.len() - 5] {
            let truncated = &payload[..cut];
            assert!(decode(truncated).is_err(), "truncation at {cut} must fail");
        }

        // A real payload with copies, mutated so that it still parses but
        // names nodes the graph lacks, leaves a node or copy uncovered,
        // contradicts itself, or announces more than it holds. Each must
        // fail with its own typed error before anything is sized by it or
        // rebuilt from it.
        let payload = payload_with_copies();
        let huge = "4611686018427387904";
        let cases = [
            ("a-id", set_token(&payload, "a", 1, "4294967295"), "outside"),
            ("c-id", set_token(&payload, "c", 1, "4294967295"), "outside"),
            ("t-id", set_token(&payload, "t", 1, "4294967295"), "outside"),
            ("no-a", drop_line(&payload, "a", "map"), "has no cluster"),
            ("no-t", drop_line(&payload, "t", "sched"), "has no cycle"),
            (
                "no-c",
                drop_line(&payload, "c", "copies"),
                "transport metadata",
            ),
            (
                "iterations",
                set_token(&payload, "config", 3, "-1"),
                "negative",
            ),
            (
                "iterations-cap",
                set_token(&payload, "config", 3, "100000000000"),
                "iteration count 100000000000 exceeds",
            ),
            (
                "e-latency",
                set_token(&payload, "e", 3, "4000000000"),
                "latency 4000000000 exceeds",
            ),
            (
                "e-distance",
                set_token(&payload, "e", 4, "100000000"),
                "distance 100000000 exceeds",
            ),
            (
                "report-ii",
                edit_line(&payload, "report", |t| {
                    t[1] = (t[1].parse::<u32>().unwrap() + 1).to_string();
                }),
                "report II",
            ),
            (
                "sched-count",
                set_token(&payload, "sched", 2, huge),
                "exceeds",
            ),
            (
                "traj-count",
                set_token(&payload, "traj", 1, huge),
                "exceeds",
            ),
            ("target-count", set_token(&payload, "c", 4, huge), "exceeds"),
        ];
        for (case, bad, why) in cases {
            assert_ne!(bad, payload, "{case} must change the payload");
            let e = decode(&bad).expect_err(case);
            assert!(e.to_string().contains(why), "{case}: {e}");
        }
    }

    /// Two load-multiply chains summed into a carried accumulator and
    /// stored, on two clusters: the chains split, and both the sum and
    /// one product cross clusters, so the payload carries copies.
    fn payload_with_copies() -> String {
        let g = build(
            &[
                (OpKind::Load, None),
                (OpKind::Load, None),
                (OpKind::FpMult, None),
                (OpKind::Load, None),
                (OpKind::Load, None),
                (OpKind::FpMult, None),
                (OpKind::FpAdd, None),
                (OpKind::Store, None),
            ],
            &[
                (0, 2, 0),
                (1, 2, 0),
                (3, 5, 0),
                (4, 5, 0),
                (2, 6, 0),
                (5, 6, 0),
                (6, 6, 1),
                (6, 7, 0),
            ],
        );
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let artifact = compile_full(&g, &m, &req).expect("compiles");
        assert!(artifact.assignment.map.copy_count() > 0);
        encode(&Ok(artifact), req.iterations)
    }

    /// `payload` with the tokens of its first line headed `head` passed
    /// through `edit`; a line left with no tokens is dropped.
    fn edit_line(payload: &str, head: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
        let mut lines: Vec<String> = payload.lines().map(str::to_string).collect();
        let at = lines
            .iter()
            .position(|l| l.split(' ').next() == Some(head))
            .unwrap_or_else(|| panic!("no {head:?} line"));
        let mut tokens: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
        edit(&mut tokens);
        if tokens.is_empty() {
            lines.remove(at);
        } else {
            lines[at] = tokens.join(" ");
        }
        lines.join("\n") + "\n"
    }

    /// `payload` with token `k` of its first `head` line set to `value`.
    fn set_token(payload: &str, head: &str, k: usize, value: &str) -> String {
        edit_line(payload, head, |t| t[k] = value.to_string())
    }

    /// `payload` without its first `head` line, and with the count that
    /// ends its `count` line lowered to match.
    fn drop_line(payload: &str, head: &str, count: &str) -> String {
        let dropped = edit_line(payload, head, Vec::clear);
        edit_line(&dropped, count, |t| {
            let n = t.last_mut().expect("a count");
            *n = (n.parse::<usize>().unwrap() - 1).to_string();
        })
    }

    #[test]
    fn restage_off_and_rotating_round_trip() {
        let g = build(
            &[
                (OpKind::Load, None),
                (OpKind::FpAdd, None),
                (OpKind::Store, None),
            ],
            &[(0, 1, 0), (1, 1, 1), (1, 2, 0)],
        );
        let m = presets::four_cluster_gp(4, 2);
        let req = CompileRequest {
            register_model: RegisterModelKind::Rotating,
            restage: false,
            verify: false,
            iterations: 8,
            ..CompileRequest::default()
        };
        let artifact = compile_full(&g, &m, &req).expect("compiles");
        let payload = encode(&Ok(artifact.clone()), req.iterations);
        let back = decode(&payload).expect("decodes").expect("artifact");
        assert_eq!(back.report, zeroed_timings(artifact).report);
        assert_eq!(encode(&Ok(back), req.iterations), payload);
    }
}
