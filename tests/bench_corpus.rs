//! The bench-corpus goldens: every loop of the 150-loop bench corpus,
//! one row per loop, compared byte for byte with a committed file.
//!
//! `results/bench-corpus-kernels.txt` compiles on `4c-gp`. A row pins
//! the clustered and unified IIs (`compare_with_unified`), the copy
//! count, the II and cluster map of one assignment from II 1
//! (`assign_from`), and the kernel table (hashed as `clasp-cli batch`
//! hashes it) and whole emitted program of `compile_full` with
//! restaging and verification off at 16 iterations.
//!
//! `results/bench-corpus-mesh3x3.txt` compiles on `mesh3x3`, where the
//! Figure 5 loop escalates and the post-scheduling baseline fails on
//! some loops. A row pins the driver's II trajectory (requested and
//! assigned II and the failure kind of every attempt), its final II,
//! copies and kernel hash, and `compile_loop_post`'s II, copies,
//! assignment II attempts and kernel hash, or its error.
//!
//! `results/bench-corpus-swing.txt` compiles under the swing scheduler
//! on `4c-gp` and on `mesh3x3`, one section per machine. A row pins the
//! driver's II trajectory, final II, copies and kernel hash, as in the
//! mesh golden.
//!
//! Each trailer pins the pipeline, assignment and scheduling counters
//! of the driver pass.
//!
//! On a mismatch the test names the first differing line and writes
//! the fresh rendering to `$CARGO_TARGET_TMPDIR/<golden file name>`.
//! To accept an intended change, copy that file over the committed one.

use std::fmt::Write as _;
use std::path::Path;

use clasp::obs::Obs;
use clasp::{
    compare_with_unified, compile_full_observed, compile_loop_post, CompileRequest, PipelineConfig,
};
use clasp_core::assign_from;
use clasp_ddg::Ddg;
use clasp_exec::CacheKey;
use clasp_kernel::kernel_table;
use clasp_machine::{presets, MachineSpec};
use clasp_sched::SchedulerKind;

mod common;
use common::bench_corpus;

fn hash(text: &str) -> CacheKey {
    CacheKey::of(&[text])
}

/// The driver request every golden compiles with.
fn request(config: PipelineConfig) -> CompileRequest {
    CompileRequest {
        pipeline: config,
        restage: false,
        iterations: 16,
        verify: false,
        ..CompileRequest::default()
    }
}

/// The trailer: the pipeline, assignment and scheduling counters.
fn counters(obs: &Obs, out: &mut String) {
    out.push_str("counters:\n");
    for (name, value) in obs.counters() {
        if ["pipeline.", "assign.", "sched."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            writeln!(out, "  {name} = {value}").unwrap();
        }
    }
}

fn render_4c_gp() -> String {
    let machine = presets::four_cluster_gp(4, 2);
    let config = PipelineConfig::default();
    let req = request(config);
    let obs = Obs::enabled();
    let mut out = String::new();
    for g in bench_corpus() {
        write!(out, "{:<10}", g.name()).unwrap();
        match compare_with_unified(&g, &machine, config) {
            Ok((ii, unified)) => write!(out, " II {ii:>2} (unified {unified:>2}),").unwrap(),
            Err(e) => write!(out, " pipeline error: {e},").unwrap(),
        }
        match assign_from(&g, &machine, config.assign, 1) {
            Ok(a) => {
                let cells: Vec<_> = a.map.iter().collect();
                let copies: Vec<_> = a.map.copies().collect();
                let map = hash(&format!("{cells:?} {copies:?}"));
                write!(out, " assign {:>2} map {map},", a.ii).unwrap();
            }
            Err(e) => write!(out, " assign error: {e},").unwrap(),
        }
        match compile_full_observed(&g, &machine, &req, &obs) {
            Ok(a) => writeln!(
                out,
                " {} copies, kernel {}, program {}",
                a.assignment.copy_count(),
                hash(&a.kernel_table(&machine)),
                hash(&format!("{:?}", a.program))
            )
            .unwrap(),
            Err(e) => writeln!(out, " compile error: {e}").unwrap(),
        }
    }
    counters(&obs, &mut out);
    out
}

/// The driver's II trajectory (requested and assigned II and the
/// failure kind of every attempt), final II, copies and kernel hash,
/// or its error.
fn trajectory_row(
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
    obs: &Obs,
    out: &mut String,
) {
    write!(out, "{:<10}", g.name()).unwrap();
    match compile_full_observed(g, machine, req, obs) {
        Ok(a) => {
            let steps: Vec<String> = a
                .report
                .trajectory
                .iter()
                .map(|s| {
                    let result = match &s.failure {
                        // The variant name, without the II and node.
                        Some(f) => format!("{f:?}").split([' ', '(']).next().unwrap().into(),
                        None => "ok".to_string(),
                    };
                    format!("{}>{} {result}", s.requested_ii, s.assigned_ii)
                })
                .collect();
            write!(
                out,
                " [{}] II {:>2}, {} copies, kernel {}",
                steps.join(", "),
                a.ii(),
                a.assignment.copy_count(),
                hash(&a.kernel_table(machine))
            )
            .unwrap();
        }
        Err(e) => write!(out, " compile error: {e}").unwrap(),
    }
}

fn render_mesh3x3() -> String {
    let machine = presets::mesh(3, 3);
    let config = PipelineConfig::default();
    let req = request(config);
    let obs = Obs::enabled();
    let mut out = String::new();
    for g in bench_corpus() {
        trajectory_row(&g, &machine, &req, &obs, &mut out);
        out.push(';');
        match compile_loop_post(&g, &machine, config) {
            Ok(c) => {
                let a = &c.assignment;
                let kernel = kernel_table(&a.graph, &a.map, &c.schedule, machine.cluster_count());
                writeln!(
                    out,
                    " post II {:>2}, {} copies, {} attempts, kernel {}",
                    c.ii(),
                    a.copy_count(),
                    a.stats.ii_attempts,
                    hash(&kernel)
                )
                .unwrap();
            }
            Err(e) => writeln!(out, " post error: {e}").unwrap(),
        }
    }
    counters(&obs, &mut out);
    out
}

fn render_swing() -> String {
    let config = PipelineConfig {
        scheduler: SchedulerKind::Swing,
        ..PipelineConfig::default()
    };
    let req = request(config);
    let mut out = String::new();
    for (name, machine) in [
        ("4c-gp", presets::four_cluster_gp(4, 2)),
        ("mesh3x3", presets::mesh(3, 3)),
    ] {
        writeln!(out, "{name}:").unwrap();
        let obs = Obs::enabled();
        for g in bench_corpus() {
            trajectory_row(&g, &machine, &req, &obs, &mut out);
            out.push('\n');
        }
        counters(&obs, &mut out);
    }
    out
}

/// Compare `fresh` with the committed `golden`; on a mismatch, write
/// `fresh` beside the test binary and name the first differing line.
fn check(golden: &str, fresh: String) {
    let committed = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(golden))
        .unwrap_or_default();
    if fresh == committed {
        return;
    }
    let name = Path::new(golden).file_name().unwrap();
    let rendered = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&rendered, &fresh).expect("write the fresh rendering");
    let now: Vec<&str> = fresh.lines().collect();
    let was: Vec<&str> = committed.lines().collect();
    let at = (0..now.len().max(was.len()))
        .find(|&i| now.get(i) != was.get(i))
        .unwrap_or(now.len());
    let eof = "<end of file>";
    panic!(
        "{golden} diverged at line {}\n  committed: {}\n  now:       {}\n\
         fresh rendering written to {}; copy it over {golden} to accept the change",
        at + 1,
        was.get(at).unwrap_or(&eof),
        now.get(at).unwrap_or(&eof),
        rendered.display()
    );
}

#[test]
fn bench_corpus_matches_the_committed_golden() {
    check("results/bench-corpus-kernels.txt", render_4c_gp());
}

#[test]
fn bench_corpus_on_mesh3x3_matches_the_committed_golden() {
    check("results/bench-corpus-mesh3x3.txt", render_mesh3x3());
}

#[test]
fn bench_corpus_under_swing_matches_the_committed_golden() {
    check("results/bench-corpus-swing.txt", render_swing());
}
