//! Integration tests: the oracle against the real `compile_full`
//! pipeline (`clasp::oracle_pipeline`, dev-dependency binding).
//!
//! Covers the PR's acceptance criteria end to end: a deterministic
//! seed-0 case stream with zero violations, deliberate fault injection
//! that the oracle detects, shrinking of a faulty case to a handful of
//! nodes, and bit-for-bit deterministic replay from reproducer text.

use clasp::oracle_pipeline;
use clasp_ddg::{Ddg, OpKind};
use clasp_machine::presets;
use clasp_oracle::{
    check_case, generate_case, run_fuzz, run_fuzz_with_repros, shrink_case, CompiledCase, Fault,
    FuzzConfig, OracleOptions, EXACT_ORACLE_NODE_CAP,
};
use clasp_text::{parse_loop, parse_machine, write_loop, write_machine};

/// sum += x[i] * y[i], the crate-level doctest loop: small, has a
/// recurrence, crosses clusters under any two-cluster split.
fn dot_product() -> Ddg {
    let mut g = Ddg::new("dot");
    let x = g.add(OpKind::Load);
    let y = g.add(OpKind::Load);
    let m = g.add(OpKind::FpMult);
    let s = g.add(OpKind::FpAdd);
    let st = g.add(OpKind::Store);
    g.add_dep(x, m);
    g.add_dep(y, m);
    g.add_dep(m, s);
    g.add_dep(s, st);
    g.add_dep_carried(s, s, 1);
    g
}

#[test]
fn seed_zero_stream_is_clean() {
    // A slice of the CI smoke job's stream (which runs 500 via the CLI);
    // enough to cover every generator style in-process.
    let config = FuzzConfig {
        seed: 0,
        cases: 120,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config, &oracle_pipeline);
    assert_eq!(report.checked, 120);
    for failure in &report.failures {
        eprintln!(
            "case {} ({} nodes, machine {}):",
            failure.case.index,
            failure.case.graph.node_count(),
            failure.case.machine.name()
        );
        for v in &failure.violations {
            eprintln!("  [{}] {v}", v.kind());
        }
    }
    assert!(
        report.is_clean(),
        "{} violating cases",
        report.failures.len()
    );
}

#[test]
fn skew_fault_is_detected() {
    let g = dot_product();
    let machine = presets::two_cluster_gp(2, 1);
    let opts = OracleOptions {
        fault: Fault::SkewSchedule,
        ..OracleOptions::default()
    };
    let violations = check_case(&g, &machine, &oracle_pipeline, &opts);
    assert!(
        violations.iter().any(|v| v.kind() == "schedule-invalid"),
        "skew must break a dependence: {violations:?}"
    );
}

#[test]
fn misplace_fault_is_detected() {
    let g = dot_product();
    let machine = presets::two_cluster_gp(2, 1);
    let opts = OracleOptions {
        fault: Fault::MisplaceNode,
        ..OracleOptions::default()
    };
    let violations = check_case(&g, &machine, &oracle_pipeline, &opts);
    assert!(
        !violations.is_empty(),
        "moving node 0 across clusters must violate an invariant"
    );
}

#[test]
fn skew_fault_shrinks_small_and_replays_deterministically() {
    let g = dot_product();
    let machine = presets::two_cluster_gp(2, 1);
    let opts = OracleOptions {
        fault: Fault::SkewSchedule,
        ..OracleOptions::default()
    };

    let outcome = shrink_case(&g, &machine, &oracle_pipeline, &opts)
        .expect("faulty case must have something to shrink");
    assert_eq!(outcome.kind, "schedule-invalid");
    assert!(
        outcome.graph.node_count() <= 8,
        "shrinker left {} nodes",
        outcome.graph.node_count()
    );

    // Determinism: a second shrink of the same case lands on the same
    // reduced pair, textually.
    let again = shrink_case(&g, &machine, &oracle_pipeline, &opts).unwrap();
    assert_eq!(write_loop(&again.graph), write_loop(&outcome.graph));
    assert_eq!(
        write_machine(&again.machine),
        write_machine(&outcome.machine)
    );

    // Replay: the reduced pair survives a text round-trip and still
    // exhibits the same violation class.
    let replayed_g = parse_loop(&write_loop(&outcome.graph)).unwrap();
    let replayed_m = parse_machine(&write_machine(&outcome.machine)).unwrap();
    let replayed = check_case(&replayed_g, &replayed_m, &oracle_pipeline, &opts);
    assert!(
        replayed.iter().any(|v| v.kind() == outcome.kind),
        "reproducer must replay the original violation class: {replayed:?}"
    );
}

#[test]
fn faulty_fuzz_run_writes_reproducers() {
    let dir = std::env::temp_dir().join("clasp-oracle-test-repros");
    let _ = std::fs::remove_dir_all(&dir);
    let config = FuzzConfig {
        seed: 7,
        cases: 6,
        fault: Fault::SkewSchedule,
        ..FuzzConfig::default()
    };
    let report = run_fuzz_with_repros(&config, &oracle_pipeline, &dir).unwrap();
    assert!(!report.is_clean(), "skewed schedules must fail the oracle");
    assert_eq!(report.repro_files.len(), report.failures.len() * 2);
    for path in &report.repro_files {
        assert!(path.exists(), "missing reproducer {}", path.display());
    }
    // Reproducer loops parse back (comment header included).
    let loop_file = report
        .repro_files
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "clasp"))
        .unwrap();
    let text = std::fs::read_to_string(loop_file).unwrap();
    assert!(text.starts_with("# fuzz reproducer"));
    parse_loop(&text).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three clusters in a line (C0 - C1 - C2) with memory units only on C0
/// and float units only on C2: any load -> float value must ride a
/// two-hop copy chain through C1.
fn three_cluster_line() -> clasp_machine::MachineSpec {
    use clasp_machine::{ClusterId, ClusterSpec, Interconnect, Link, MachineSpec};
    MachineSpec::new(
        "3c-line",
        vec![
            ClusterSpec::specialized(2, 2, 0), // C0: memory + integer
            ClusterSpec::specialized(0, 2, 0), // C1: integer only
            ClusterSpec::specialized(0, 2, 2), // C2: integer + float
        ],
        Interconnect::PointToPoint {
            links: vec![
                Link {
                    a: ClusterId(0),
                    b: ClusterId(1),
                },
                Link {
                    a: ClusterId(1),
                    b: ClusterId(2),
                },
            ],
            read_ports: 2,
            write_ports: 2,
        },
    )
}

/// A loop whose carried load -> fadd edge is forced across the full
/// line: the load can only live on C0, the fadd only on C2.
fn line_carried_loop() -> (Ddg, clasp_ddg::NodeId, clasp_ddg::NodeId) {
    let mut g = Ddg::new("line-carried");
    let ld = g.add(OpKind::Load);
    let f = g.add(OpKind::FpAdd);
    let st = g.add(OpKind::Store);
    g.add_dep_carried(ld, f, 2); // multi-hop carried crossing
    g.add_dep_carried(f, f, 1); // recurrence: RecMII is nontrivial
    g.add_dep(f, st);
    (g, ld, f)
}

/// Regression (carried distance across multi-hop chains): the original
/// distance lands on exactly the final delivery -> consumer segment of
/// the chain, every upstream segment is distance 0, and the working
/// graph's RecMII never drops below the original loop's.
#[test]
fn multi_hop_carried_chain_keeps_distance_on_final_segment() {
    use clasp_ddg::rec_mii;

    let (g, ld, f) = line_carried_loop();
    let m = three_cluster_line();
    let compiled = oracle_pipeline(&g, &m).expect("line machine must compile the loop");
    let wg = &compiled.assignment.graph;

    // The carried edge was rewired: its delivery into `f` keeps the full
    // distance, and its source is a copy.
    let delivery = wg
        .edges()
        .find(|(_, e)| e.dst == f && e.distance == 2)
        .map(|(_, e)| *e)
        .expect("carried delivery edge into the fadd");
    assert!(
        wg.op(delivery.src).kind.is_copy(),
        "carried crossing edge must be fed by a copy"
    );

    // Walk the chain back to the producer: >= 2 copies (multi-hop), and
    // every feed segment is distance 0.
    let mut cur = delivery.src;
    let mut hops = 0;
    while wg.op(cur).kind.is_copy() {
        let (_, feed) = wg.pred_edges(cur).next().expect("copy has a feed edge");
        assert_eq!(
            feed.distance, 0,
            "chain segment {} -> {} must carry distance 0",
            feed.src, feed.dst
        );
        cur = feed.src;
        hops += 1;
    }
    assert_eq!(cur, ld, "chain must be rooted at the load");
    assert!(hops >= 2, "C0 -> C2 needs at least two hops, got {hops}");

    // RecMII preserved (the f -> f recurrence survives verbatim).
    assert!(rec_mii(wg) >= rec_mii(&g));

    // And the oracle agrees the case is clean end to end.
    let violations = check_case(&g, &m, &oracle_pipeline, &OracleOptions::default());
    assert!(violations.is_empty(), "{violations:?}");
}

/// Regression (case 0199 of the seed-0 stream): an edge whose latency
/// exceeds its producer's kind latency — casegen's perturbations make
/// these — must not lose the excess when rewired through a copy chain.
/// The feed edge only carries the kind latency, so `materialize` tops up
/// the delivery edge; dropping the excess shortened a carried dependence
/// and let the working graph's RecMII fall below the loop's true bound.
#[test]
fn perturbed_edge_latency_survives_chain_rewiring() {
    use clasp_ddg::{rec_mii, DepEdge};

    let m = three_cluster_line();
    let mut g = Ddg::new("perturbed");
    let ld = g.add(OpKind::Load);
    let f = g.add(OpKind::FpAdd);
    let st = g.add(OpKind::Store);
    let perturbed = OpKind::Load.latency() + 7;
    g.add_edge(DepEdge {
        src: ld,
        dst: f,
        latency: perturbed,
        distance: 2,
    });
    g.add_dep_carried(f, f, 1);
    g.add_dep(f, st);

    let compiled = oracle_pipeline(&g, &m).expect("line machine must compile the loop");
    let wg = &compiled.assignment.graph;

    // Sum the rewired chain's latency end to end: delivery into `f`,
    // then feed segments back to the load.
    let delivery = wg
        .edges()
        .find(|(_, e)| e.dst == f && e.distance == 2)
        .map(|(_, e)| *e)
        .expect("carried delivery edge into the fadd");
    let mut total = delivery.latency;
    let mut cur = delivery.src;
    while wg.op(cur).kind.is_copy() {
        let (_, feed) = wg.pred_edges(cur).next().expect("copy has a feed edge");
        total += feed.latency;
        cur = feed.src;
    }
    assert_eq!(cur, ld);
    assert!(
        total >= perturbed,
        "chain latency {total} dropped below the original edge's {perturbed}"
    );
    assert!(rec_mii(wg) >= rec_mii(&g));

    let violations = check_case(&g, &m, &oracle_pipeline, &OracleOptions::default());
    assert!(violations.is_empty(), "{violations:?}");
}

/// Regression (per-hop link occupancy): on mesh/torus presets — 1-wide
/// PEs, so crossings are constant and routes are multi-hop — every
/// compiled case passes the oracle, including invariant 10's direct
/// per-(link, row) recount of copy link claims.
#[test]
fn mesh_presets_never_oversubscribe_links() {
    use clasp_loopgen::rng::Rng;
    use clasp_loopgen::{generate_stratum, Stratum};

    let opts = OracleOptions::default();
    for machine in [presets::mesh(3, 3), presets::torus(3, 3)] {
        let loops = generate_stratum(Stratum::CopyBound, 6, 0xFAB);
        for g in loops.iter().chain(std::iter::once(&dot_product())) {
            let violations = check_case(g, &machine, &oracle_pipeline, &opts);
            assert!(
                violations.is_empty(),
                "{} on {}: {violations:?}",
                g.name(),
                machine.name()
            );
        }
    }
    // A couple of random shapes for edge-case coverage beyond the stratum.
    let mut rng = Rng::seed_from_u64(0xFAB);
    let m = presets::mesh(3, 3);
    for _ in 0..4 {
        let mut g = Ddg::new("mesh-rand");
        let n = 6 + rng.below(6);
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add(match i % 4 {
                    0 => OpKind::Load,
                    1 => OpKind::IntAlu,
                    2 => OpKind::FpAdd,
                    _ => OpKind::Store,
                })
            })
            .collect();
        for b in 1..n {
            let a = rng.below(b);
            g.add_dep(ids[a], ids[b]);
        }
        if g.validate().is_err() {
            continue;
        }
        let violations = check_case(&g, &m, &oracle_pipeline, &opts);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

/// The oracle's invariant 10 is a direct recount, so it must fire even
/// when handed a schedule the MRT never saw: compile on the mesh, then
/// retime one link-claiming copy onto another's kernel row on the same
/// link.
#[test]
fn link_collision_trips_the_occupancy_invariant() {
    use clasp_ddg::NodeId;
    use clasp_sched::Schedule;
    use std::collections::HashMap;

    let m = presets::mesh(3, 3);
    let g = dot_product();
    let collide = |g: &Ddg, m: &clasp_machine::MachineSpec| {
        let mut case = oracle_pipeline(g, m)?;
        // Pick any copy holding a link, then force a second copy onto the
        // same link and kernel row.
        let copies: Vec<(NodeId, clasp_machine::LinkId)> = case
            .assignment
            .map
            .copies()
            .filter_map(|(n, meta)| meta.link.map(|l| (n, l)))
            .collect();
        let Some(&(victim, link)) = copies.first() else {
            return Err("no link copies to collide".to_string());
        };
        let Some((other, _)) = copies.iter().find(|&&(n, _)| n != victim) else {
            return Err("need two link copies".to_string());
        };
        let other = *other;
        case.assignment.map.copy_meta_mut(other).unwrap().link = Some(link);
        let row = case.schedule.kernel_row(victim).unwrap();
        let mut time: HashMap<NodeId, i64> = case.schedule.iter().collect();
        time.insert(other, i64::from(row));
        case.schedule = Schedule::new(case.schedule.ii(), time);
        Ok(case)
    };
    let violations = check_case(&g, &m, &collide, &OracleOptions::default());
    assert!(
        violations.iter().any(|v| v.kind() == "link-over-capacity"),
        "a shared (link, row) slot must trip invariant 10: {violations:?}"
    );
}

/// The smear fault moves carried distance one segment up the chain
/// without changing total cycle distance — only the oracle's
/// carried-distance invariant can catch that.
#[test]
fn smear_fault_is_detected() {
    let (g, _, _) = line_carried_loop();
    let m = three_cluster_line();
    let opts = OracleOptions {
        fault: Fault::SmearDistance,
        ..OracleOptions::default()
    };
    let violations = check_case(&g, &m, &oracle_pipeline, &opts);
    assert!(
        violations
            .iter()
            .any(|v| v.kind() == "carried-distance-split"),
        "smeared distance must trip the carried-distance invariant: {violations:?}"
    );
}

/// Invariant 9 on the seed-0 stream's small cases: every valid,
/// chain-free schedule lifts into the exact encoding at its own II.
#[test]
fn small_seed_zero_cases_pass_the_exact_invariant() {
    let opts = OracleOptions {
        exact: true,
        ..OracleOptions::default()
    };
    let mut checked = 0usize;
    for index in 0..60 {
        let case = generate_case(0, index);
        if case.graph.node_count() > EXACT_ORACLE_NODE_CAP {
            continue;
        }
        let violations = check_case(&case.graph, &case.machine, &oracle_pipeline, &opts);
        assert!(violations.is_empty(), "case {index}: {violations:?}");
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} small cases in the slice");
}

/// Five chained single-cycle ops on a one-wide machine at II 5, issued in
/// rows 0, 4, 3, 2, 1: a valid schedule that needs 17 cycles, past the
/// exact encoding's 13-cycle horizon. Invariant 9 cannot lift it, falls
/// back to comparing II 5 with the proven minimum (also 5), and passes.
#[test]
fn a_schedule_past_the_exact_horizon_takes_the_comparison_fallback() {
    use clasp_exact::{lift_witness, ExactConfig, LiftError};
    use clasp_sched::Schedule;

    let mut g = Ddg::new("chain5");
    let ids: Vec<clasp_ddg::NodeId> = (0..5).map(|_| g.add(OpKind::IntAlu)).collect();
    for w in ids.windows(2) {
        g.add_dep(w[0], w[1]);
    }
    let m = presets::unified_gp(1);
    let case = CompiledCase {
        assignment: clasp_core::Assignment {
            graph: g.clone(),
            map: clasp_sched::unified_map(&g, &m),
            ii: 5,
            stats: clasp_core::AssignStats::default(),
        },
        schedule: Schedule::new(5, ids.into_iter().zip([0, 4, 8, 12, 16])),
    };
    assert!(matches!(
        lift_witness(
            &g,
            &m,
            &case.assignment,
            &case.schedule,
            ExactConfig::default()
        ),
        Err(LiftError::OutsideHorizon { .. })
    ));
    let pipeline = |_: &Ddg, _: &clasp_machine::MachineSpec| Ok(case.clone());
    let opts = OracleOptions {
        exact: true,
        ..OracleOptions::default()
    };
    let violations = check_case(&g, &m, &pipeline, &opts);
    assert!(violations.is_empty(), "{violations:?}");
}
