//! End-to-end tests of the staged compile driver: [`clasp::compile_full`]
//! from a DDG to a verified kernel, report invariants, and equivalence
//! with the hand-composed stage sequence the driver replaced.

use clasp::{
    compare_with_unified, compile_full, compile_loop, BackendKind, CompileRequest, PipelineConfig,
    PipelineError, RegisterModelKind,
};
use clasp_ddg::{Ddg, OpKind};
use clasp_kernel::{emit_program_with, RegisterModel};
use clasp_loopgen::{all_classics, generate_corpus, CorpusConfig};
use clasp_machine::{presets, ClusterSpec, Interconnect, MachineSpec};

mod common;
use common::bench_corpus;

/// A small, reproducible slice of the figures corpus plus the classic
/// kernels: enough shape variety (recurrences, wide loops, FP chains) to
/// exercise every driver stage.
fn sample() -> Vec<Ddg> {
    let mut loops = generate_corpus(CorpusConfig {
        loops: 30,
        scc_loops: 10,
        seed: 0x1998_C1A5,
    });
    loops.extend(all_classics());
    loops
}

#[test]
fn driver_compiles_and_verifies_under_both_register_models() {
    let machine = presets::two_cluster_gp(2, 1);
    for g in sample() {
        for model in [RegisterModelKind::Mve, RegisterModelKind::Rotating] {
            let req = CompileRequest {
                register_model: model,
                iterations: 12,
                ..CompileRequest::default()
            };
            let artifact = compile_full(&g, &machine, &req)
                .unwrap_or_else(|e| panic!("{} under {model:?}: {e}", g.name()));
            // `verify` defaults on: the driver already re-ran the emitted
            // kernel against sequential semantics.
            assert_eq!(artifact.report.verified_iterations, Some(12));
            assert_eq!(artifact.report.register_model, model);
            assert_eq!(artifact.ii(), artifact.report.ii);
            match model {
                RegisterModelKind::Rotating => assert_eq!(artifact.report.unroll, 1),
                RegisterModelKind::Mve => assert!(artifact.report.unroll >= 1),
            }
        }
    }
}

#[test]
fn report_trajectory_is_monotone_and_ends_at_achieved_ii() {
    let machine = presets::four_cluster_gp(4, 2);
    for g in sample() {
        let artifact = compile_full(&g, &machine, &CompileRequest::default())
            .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        let steps = &artifact.report.trajectory;
        assert!(!steps.is_empty(), "{}: empty trajectory", g.name());
        for pair in steps.windows(2) {
            assert!(
                pair[0].assigned_ii < pair[1].assigned_ii,
                "{}: trajectory not strictly increasing",
                g.name()
            );
        }
        for step in steps {
            assert!(step.requested_ii <= step.assigned_ii);
        }
        // Every failed attempt names its reason; only the last succeeds.
        let (last, failed) = steps.split_last().unwrap();
        assert!(last.failure.is_none());
        assert_eq!(last.assigned_ii, artifact.report.ii);
        assert_eq!(artifact.report.ii, artifact.ii());
        for step in failed {
            assert!(
                step.failure.is_some(),
                "{}: non-final attempt without a failure reason",
                g.name()
            );
        }
    }
}

/// The sequence the driver replaced in the CLI and experiments:
/// compile_loop, then register model, then emission. With restaging off
/// the driver must reproduce it exactly.
fn assert_driver_matches_glue(g: &Ddg, machine: &MachineSpec, iterations: i64) {
    let req = CompileRequest {
        restage: false,
        iterations,
        ..CompileRequest::default()
    };
    let artifact = compile_full(g, machine, &req).expect("driver");
    let compiled = compile_loop(g, machine, req.pipeline).expect("glue");
    assert_eq!(artifact.ii(), compiled.ii(), "{}: II diverged", g.name());
    let model = RegisterModel::mve(&compiled.assignment.graph, &compiled.schedule);
    let program = emit_program_with(
        &compiled.assignment.graph,
        &compiled.assignment.map,
        &compiled.schedule,
        iterations,
        &model,
    );
    assert_eq!(
        artifact.program,
        program,
        "{}: emitted kernel diverged",
        g.name()
    );
}

#[test]
fn driver_output_is_bit_identical_to_hand_composed_stages() {
    let two_cluster = presets::two_cluster_gp(2, 1);
    for g in sample() {
        assert_driver_matches_glue(&g, &two_cluster, 8);
    }
    let four_cluster = presets::four_cluster_gp(4, 2);
    for g in bench_corpus() {
        assert_driver_matches_glue(&g, &four_cluster, 16);
    }
}

#[test]
fn restaging_never_raises_the_register_requirement() {
    let machine = presets::two_cluster_gp(2, 1);
    for g in sample() {
        let artifact = compile_full(&g, &machine, &CompileRequest::default()).expect("driver");
        let r = &artifact.report;
        assert!(r.registers_final.requirement <= r.registers_raw.requirement);
        assert!(r.lifetime_after <= r.lifetime_before);
        assert_eq!(r.ii, artifact.schedule.ii(), "restaging must preserve II");
    }
}

#[test]
fn unified_baseline_failure_is_distinct_from_exhaustion() {
    // An FP op on a machine with no FP units: the unified baseline has an
    // unbounded MII. The old pipeline reported this as
    // `IiExhausted { max_ii: u32::MAX }`; it must now carry its own
    // variant with the typed scheduler reason.
    let mut g = Ddg::new("fp-on-intonly");
    g.add(OpKind::FpAdd);
    let machine = MachineSpec::new(
        "nofp",
        vec![ClusterSpec::specialized(1, 1, 0)],
        Interconnect::None,
    );
    match compare_with_unified(&g, &machine, PipelineConfig::default()) {
        Err(PipelineError::UnifiedBaselineFailed(reason)) => {
            assert_eq!(reason, clasp_sched::SchedFailure::MiiUnbounded);
        }
        other => panic!("expected UnifiedBaselineFailed, got {other:?}"),
    }
}

#[test]
fn exact_backend_compiles_verifies_and_lower_bounds_the_heuristic() {
    let machine = presets::two_cluster_gp(2, 1);
    for g in sample().into_iter().filter(|g| g.node_count() <= 12) {
        let exact_req = CompileRequest {
            backend: BackendKind::Exact,
            iterations: 8,
            ..CompileRequest::default()
        };
        let exact = compile_full(&g, &machine, &exact_req)
            .unwrap_or_else(|e| panic!("{} exact: {e}", g.name()));
        // The whole point of the exact backend: its kernel still passes
        // functional verification, and its II lower-bounds the heuristic's.
        assert_eq!(exact.report.verified_iterations, Some(8));
        let heuristic = compile_full(&g, &machine, &CompileRequest::default())
            .unwrap_or_else(|e| panic!("{} heuristic: {e}", g.name()));
        assert!(
            exact.ii() <= heuristic.ii(),
            "{}: exact II {} > heuristic II {}",
            g.name(),
            exact.ii(),
            heuristic.ii()
        );
        // Trajectory shape: failed attempts carry Infeasible (never a
        // budget blow on these tiny loops), the final attempt succeeds.
        let (last, failed) = exact.report.trajectory.split_last().unwrap();
        assert!(last.failure.is_none());
        assert_eq!(last.assigned_ii, exact.ii());
        for step in failed {
            assert!(matches!(
                step.failure,
                Some(clasp_sched::SchedFailure::Infeasible { .. })
            ));
        }
    }
}

#[test]
fn report_display_names_every_stage() {
    let machine = presets::two_cluster_gp(2, 1);
    let g = clasp_loopgen::classic("daxpy");
    let artifact = compile_full(&g, &machine, &CompileRequest::default()).expect("driver");
    let text = artifact.report.to_string();
    for needle in [
        "II trajectory",
        "achieved II",
        "registers:",
        "kernel:",
        "verified over",
        "timings:",
        "assign+sched",
    ] {
        assert!(text.contains(needle), "report missing `{needle}`:\n{text}");
    }
}
