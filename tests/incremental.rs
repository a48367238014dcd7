//! Incremental-vs-cold equivalence: the carried [`Assigner`] workspace
//! that serves a whole Figure-5 escalation must be *decision-identical*
//! to a from-scratch replay — same II trajectory, same cluster maps,
//! same working graphs, same kernels — on the full bench corpus and on
//! a long fuzz stream. The corpus sweep also runs on the deterministic
//! executor at 1 and N threads and compares digests, so thread count
//! cannot change any compiled output.

use std::hash::{Hash, Hasher};

use clasp::{compile_loop, oracle_pipeline, PipelineConfig};
use clasp_core::{assign_from, assign_traced, AssignError, Assigner, Assignment};
use clasp_ddg::Ddg;
use clasp_kernel::emit_program;
use clasp_machine::{presets, MachineSpec};
use clasp_oracle::{generate_case, run_fuzz, FuzzConfig};
use clasp_sched::{schedule_with_stats, Schedule};

mod common;
use common::bench_corpus;

/// Structural equality for working graphs. `Ddg` deliberately has no
/// `PartialEq` (its adjacency buffers may carry reusable slack after an
/// arena refill), so compare exactly what consumers read: name, nodes in
/// id order, edges in id order.
fn assert_graphs_identical(a: &Ddg, b: &Ddg, ctx: &str) {
    assert_eq!(a.name(), b.name(), "{ctx}: graph name");
    assert_eq!(a.node_count(), b.node_count(), "{ctx}: node count");
    assert_eq!(a.edge_count(), b.edge_count(), "{ctx}: edge count");
    for ((ia, oa), (ib, ob)) in a.nodes().zip(b.nodes()) {
        assert_eq!(ia, ib, "{ctx}: node id order");
        assert_eq!(oa, ob, "{ctx}: operation {ia}");
    }
    for ((ia, ea), (ib, eb)) in a.edges().zip(b.edges()) {
        assert_eq!(ia, ib, "{ctx}: edge id order");
        assert_eq!(ea, eb, "{ctx}: edge {ia}");
    }
}

fn assert_assignments_identical(inc: &Assignment, cold: &Assignment, ctx: &str) {
    assert_eq!(inc.ii, cold.ii, "{ctx}: achieved II");
    assert_eq!(inc.map, cold.map, "{ctx}: cluster map");
    assert_graphs_identical(&inc.graph, &cold.graph, ctx);
}

/// Issue cycles in node-id order — the schedule's identity.
fn schedule_times(s: &Schedule) -> Vec<(u32, i64)> {
    let mut v: Vec<(u32, i64)> = s.iter().map(|(n, t)| (n.0, t)).collect();
    v.sort_unstable();
    v
}

/// One escalation driven exactly as the pipeline drives it — a single
/// carried workspace, re-entered at `failed assignment II + 1` — with
/// every attempt checked against a from-scratch `assign_from` replay at
/// the same entry II. Returns a digest of the whole trajectory.
fn check_loop(g: &Ddg, machine: &MachineSpec, config: PipelineConfig) -> String {
    let mut digest = format!("{}:", g.name());
    let raw_mii = machine.unified_equivalent().mii(g);
    let Ok((start, cap)) = clasp_sched::ii_search_range(g, raw_mii, config.assign.max_ii) else {
        let err = compile_loop(g, machine, config).expect_err("unbounded MII cannot compile");
        return format!("{digest}unbounded:{err:?}");
    };

    let mut assigner = Assigner::new(g, machine, config.assign).expect("corpus graphs validate");
    let mut min_ii = start;
    let mut outcome = None;
    while min_ii <= cap {
        let ctx = format!("{} at min_ii {min_ii}", g.name());
        let incremental = assigner.assign_min(min_ii);
        let cold = assign_from(g, machine, config.assign, min_ii);
        let assignment = match (incremental, cold) {
            (Ok(inc), Ok(cold)) => {
                assert_assignments_identical(&inc, &cold, &ctx);
                inc
            }
            (Err(inc), Err(cold)) => {
                assert_eq!(format!("{inc:?}"), format!("{cold:?}"), "{ctx}: failure");
                outcome = Some(Err(inc));
                break;
            }
            (inc, cold) => panic!(
                "{ctx}: incremental {:?} vs cold {:?} disagree on success",
                inc.as_ref().map(|a| a.ii),
                cold.as_ref().map(|a| a.ii)
            ),
        };
        digest.push_str(&format!(
            " ({min_ii}->{},{}cp)",
            assignment.ii,
            assignment.copy_count()
        ));
        let (result, _) = schedule_with_stats(
            config.scheduler,
            &assignment.graph,
            machine,
            &assignment.map,
            assignment.ii,
            config.sched,
        );
        match result {
            Ok(schedule) => {
                outcome = Some(Ok((assignment, schedule)));
                break;
            }
            Err(_) => {
                min_ii = assignment.ii + 1;
                assigner.recycle(assignment);
            }
        }
    }

    // Tie the manual escalation to the real pipeline: `compile_loop`
    // (which carries its own workspace internally) must land on the same
    // final II, issue cycles, and emitted kernel.
    let compiled = compile_loop(g, machine, config);
    match (outcome, compiled) {
        (Some(Ok((assignment, schedule))), Ok(compiled)) => {
            let ctx = format!("{} final", g.name());
            assert_assignments_identical(&assignment, &compiled.assignment, &ctx);
            assert_eq!(
                schedule_times(&schedule),
                schedule_times(&compiled.schedule),
                "{ctx}: issue cycles"
            );
            let kernel = emit_program(&assignment.graph, &assignment.map, &schedule, 8);
            let replay = emit_program(
                &compiled.assignment.graph,
                &compiled.assignment.map,
                &compiled.schedule,
                8,
            );
            assert_eq!(kernel, replay, "{ctx}: emitted kernel");
            let mut h = std::hash::DefaultHasher::new();
            format!("{kernel:?}").hash(&mut h);
            digest.push_str(&format!(" ii={} k={:016x}", schedule.ii(), h.finish()));
        }
        (None, Err(_)) | (Some(Err(_)), Err(_)) => digest.push_str(" exhausted"),
        (manual, compiled) => panic!(
            "{}: manual escalation ({}) and compile_loop ({}) disagree",
            g.name(),
            match &manual {
                Some(Ok(_)) => "ok",
                Some(Err(_)) | None => "failed",
            },
            match &compiled {
                Ok(_) => "ok",
                Err(e) => return format!("{digest} mismatch:{e}"),
            }
        ),
    }
    digest
}

#[test]
fn corpus_incremental_matches_cold_replay_and_is_thread_invariant() {
    let corpus = bench_corpus();
    let machine = presets::four_cluster_gp(4, 2);
    let sweep = |threads: usize| -> Vec<String> {
        clasp_exec::try_sweep(threads, &corpus, |_, g| {
            check_loop(g, &machine, PipelineConfig::default())
        })
        .into_iter()
        .map(|r| r.expect("no equivalence check may panic"))
        .collect()
    };
    let single = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        single, parallel,
        "corpus digests must not depend on thread count"
    );
}

#[test]
fn fuzz_stream_incremental_matches_cold_replay() {
    const CASES: usize = 500;
    let indices: Vec<usize> = (0..CASES).collect();
    let digests: Vec<String> = clasp_exec::try_sweep(0, &indices, |_, &i| {
        let case = generate_case(0, i);
        check_loop(&case.graph, &case.machine, PipelineConfig::default())
    })
    .into_iter()
    .map(|r| r.expect("no equivalence check may panic"))
    .collect();
    assert_eq!(digests.len(), CASES);
}

#[test]
fn fuzz_oracle_invariants_hold_on_incremental_path() {
    // The full differential oracle (structural + functional invariants)
    // over the carried-workspace pipeline: every violation is a real
    // incremental-escalation bug.
    let report = run_fuzz(
        &FuzzConfig {
            seed: 0,
            cases: 500,
            ..FuzzConfig::default()
        },
        &oracle_pipeline,
    );
    assert_eq!(report.checked, 500);
    assert!(
        report.is_clean(),
        "oracle violations on the incremental path: {:?}",
        report
            .failures
            .iter()
            .map(|f| (f.case.index, &f.violations))
            .collect::<Vec<_>>()
    );
}

/// Traced and untraced assignment must make identical decisions on a
/// point-to-point (grid) fabric. The pre-rewrite assigner consulted
/// hash-ordered sets on the p2p copy-routing path, so the *same binary*
/// could pick different clusters run to run (per-process hasher seeds);
/// the dense, id-ordered structures make the decision sequence a pure
/// function of the input. This pins that: any reintroduced iteration-
/// order dependence shows up as a traced/untraced divergence.
#[test]
fn grid_machine_assignment_is_order_independent() {
    let corpus = bench_corpus();
    let machine = presets::four_cluster_grid(2);
    let config = PipelineConfig::default();
    let unified = machine.unified_equivalent();
    let mut checked = 0;
    for g in corpus.iter().take(60) {
        let mii = unified.mii(g);
        if mii == u32::MAX {
            continue;
        }
        let min_ii = mii.max(1);
        let untraced = assign_from(g, &machine, config.assign, min_ii);
        let (traced, _) = assign_traced(g, &machine, config.assign, min_ii);
        match (untraced, traced) {
            (Ok(a), Ok(b)) => assert_assignments_identical(&a, &b, g.name()),
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", g.name()),
            _ => panic!("{}: traced and untraced assignment disagree", g.name()),
        }
        checked += 1;
    }
    assert!(checked >= 40, "grid corpus too small: {checked}");
}

/// The escalation's re-entry contract: a workspace that has already
/// served a larger II must still replay smaller-II requests identically
/// (the pipeline never does this, but `recycle` + `reset` must not make
/// the workspace order-sensitive).
#[test]
fn workspace_reentry_order_does_not_change_results() {
    let corpus = bench_corpus();
    let machine = presets::four_cluster_gp(4, 2);
    let config = PipelineConfig::default();
    for g in corpus.iter().take(40) {
        if machine.unified_equivalent().mii(g) == u32::MAX {
            continue;
        }
        let mut assigner = Assigner::new(g, &machine, config.assign).expect("valid graph");
        let up: Vec<Result<Assignment, AssignError>> = [1u32, 3, 6]
            .iter()
            .map(|&m| assigner.assign_min(m))
            .collect();
        let mut assigner = Assigner::new(g, &machine, config.assign).expect("valid graph");
        let down: Vec<Result<Assignment, AssignError>> = [6u32, 3, 1]
            .iter()
            .map(|&m| assigner.assign_min(m))
            .collect();
        for (a, b) in up.iter().zip(down.iter().rev()) {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_assignments_identical(a, b, g.name()),
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                _ => panic!("{}: re-entry order changed the outcome", g.name()),
            }
        }
    }
}
