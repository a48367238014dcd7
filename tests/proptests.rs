//! Randomized property tests over generated loops and reservation
//! sequences: the core invariants of every layer.
//!
//! The build container has no crates-registry access, so instead of
//! `proptest` these drive each property over a deterministic stream of
//! random cases from the workspace's own SplitMix64 generator
//! ([`clasp_loopgen::rng::Rng`]). Failures print the offending case seed;
//! rerun with that seed to reproduce.

use clasp::oracle_pipeline;
use clasp_core::validate_assignment;
use clasp_ddg::{find_sccs, rec_mii, rec_mii_bruteforce, swing_order, Ddg, NodeId, OpKind};
use clasp_loopgen::rng::Rng;
use clasp_machine::{presets, ClusterId, LinkId, MachineSpec};
use clasp_mrt::{CopyMeta, CountMrt, PlaceOutcome, SlotRequest, TimeMrt};
use clasp_oracle::{check_case, OracleOptions};
use clasp_sched::validate_schedule;

const KINDS: [OpKind; 9] = [
    OpKind::IntAlu,
    OpKind::Shift,
    OpKind::Branch,
    OpKind::Load,
    OpKind::Store,
    OpKind::FpAdd,
    OpKind::FpMult,
    OpKind::FpDiv,
    OpKind::FpSqrt,
];

/// A random valid loop: forward data edges plus a few loop-carried edges
/// (the same shape the proptest strategy generated).
fn random_ddg(rng: &mut Rng, max_nodes: usize) -> Ddg {
    let n = rng.range_inclusive(2, max_nodes);
    let mut g = Ddg::new("prop");
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            // Keep at least one producer at the front.
            let mut k = KINDS[rng.below(KINDS.len())];
            if i == 0 && !k.produces_value() {
                k = OpKind::Load;
            }
            g.add(k)
        })
        .collect();
    let fwd = rng.range_inclusive(1, 2 * n);
    for _ in 0..fwd {
        let (a, b) = (rng.below(n), rng.below(n));
        let (a, b) = (a.min(b), a.max(b));
        if a != b {
            g.add_dep(ids[a], ids[b]);
        }
    }
    let carried = rng.below(4);
    for _ in 0..carried {
        let (a, b) = (rng.below(n), rng.below(n));
        let d = rng.range_inclusive(1, 3) as u32;
        g.add_dep_carried(ids[a], ids[b], d);
    }
    g
}

fn random_machine(rng: &mut Rng) -> MachineSpec {
    match rng.below(6) {
        0 => presets::two_cluster_gp(2, 1),
        1 => presets::four_cluster_gp(4, 2),
        2 => presets::two_cluster_fs(2, 1),
        3 => presets::four_cluster_fs(4, 2),
        4 => presets::four_cluster_grid(2),
        _ => presets::unified_gp(8),
    }
}

/// Drive `body` over `cases` random cases; each case gets its own seeded
/// generator so a failure message pinpoints one reproducible case.
fn for_cases(test_seed: u64, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case;
        let mut rng = Rng::seed_from_u64(seed);
        body(&mut rng);
    }
}

/// `prop_assume!`-style guard: skip graphs the generator made invalid
/// (e.g. a zero-distance cycle out of carried edges).
fn valid(g: &Ddg) -> bool {
    g.validate().is_ok()
}

#[test]
fn recmii_matches_bruteforce() {
    for_cases(1, 96, |rng| {
        let g = random_ddg(rng, 8);
        if !valid(&g) {
            return;
        }
        assert_eq!(rec_mii(&g), rec_mii_bruteforce(&g));
    });
}

#[test]
fn swing_order_is_a_permutation() {
    for_cases(2, 96, |rng| {
        let g = random_ddg(rng, 24);
        if !valid(&g) {
            return;
        }
        let mut order = swing_order(&g);
        assert_eq!(order.len(), g.node_count());
        order.sort();
        order.dedup();
        assert_eq!(order.len(), g.node_count());
    });
}

#[test]
fn scc_partition_is_total_and_disjoint() {
    for_cases(3, 96, |rng| {
        let g = random_ddg(rng, 24);
        let sccs = find_sccs(&g);
        let total: usize = sccs.sccs.iter().map(|s| s.len()).sum();
        assert_eq!(total, g.node_count());
        let mut seen = vec![false; g.node_count()];
        for scc in &sccs.sccs {
            for n in &scc.nodes {
                assert!(!seen[n.index()], "node in two components");
                seen[n.index()] = true;
            }
        }
    });
}

#[test]
fn assignment_validates_on_random_loops() {
    for_cases(4, 96, |rng| {
        let g = random_ddg(rng, 16);
        let m = random_machine(rng);
        if !valid(&g) {
            return;
        }
        let asg = clasp_core::assign(&g, &m, Default::default());
        let asg = asg.expect("assignment must succeed on feasible machines");
        assert!(validate_assignment(&g, &m, &asg).is_ok());
        // II never below the unified machine's lower bound.
        assert!(asg.ii >= m.unified_equivalent().mii(&g));
    });
}

/// The heavy pipeline properties, routed through the differential
/// oracle: one [`check_case`] call per case covers assignment validity,
/// schedule validity, II lower bounds, copies-off-critical-recurrences,
/// the unified-baseline comparison, and functional equivalence of the
/// emitted kernels under *both* register models. Any failure arrives as
/// a typed violation naming the offending op and cycle.
#[test]
fn full_pipeline_passes_the_oracle() {
    let opts = OracleOptions::default();
    for_cases(5, 96, |rng| {
        let g = random_ddg(rng, 14);
        let m = random_machine(rng);
        if !valid(&g) {
            return;
        }
        let violations = check_case(&g, &m, &oracle_pipeline, &opts);
        assert!(
            violations.is_empty(),
            "oracle violations on preset machine {}: {violations:?}",
            m.name()
        );
    });
}

/// The same oracle pass over the fuzzer's own *random* machine models
/// (cluster counts, FU mixes, bus vs point-to-point fabrics), not just
/// the six presets.
#[test]
fn full_pipeline_passes_the_oracle_on_random_machines() {
    let opts = OracleOptions::default();
    let mut index = 0usize;
    for_cases(14, 64, |rng| {
        let g = random_ddg(rng, 12);
        index += 1;
        if !valid(&g) {
            return;
        }
        let m = clasp_oracle::random_machine(rng, index);
        let violations = check_case(&g, &m, &oracle_pipeline, &opts);
        assert!(
            violations.is_empty(),
            "oracle violations on random machine {}: {violations:?}",
            m.name()
        );
    });
}

#[test]
fn count_mrt_release_restores_capacity() {
    for_cases(6, 96, |rng| {
        let ii = rng.range_inclusive(1, 5) as u32;
        let n_ops = rng.range_inclusive(1, 23);
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = CountMrt::new(&m, ii);
        let baseline: Vec<u32> = m.cluster_ids().map(|c| mrt.free_fu_slots(c)).collect();
        let mut held = Vec::new();
        for _ in 0..n_ops {
            let cl = ClusterId(rng.below(2) as u32);
            let kind = KINDS[rng.below(KINDS.len())];
            if kind.fu_class().is_none() {
                continue;
            }
            if mrt.reserve_op(cl, kind).is_ok() {
                held.push((cl, kind));
            }
        }
        for (cl, kind) in held {
            mrt.release_op(cl, kind);
        }
        let after: Vec<u32> = m.cluster_ids().map(|c| mrt.free_fu_slots(c)).collect();
        assert_eq!(baseline, after);
    });
}

#[test]
fn copy_reservations_roundtrip() {
    for_cases(7, 96, |rng| {
        let ii = rng.range_inclusive(1, 4) as u32;
        let n_pairs = rng.range_inclusive(1, 11);
        let m = presets::four_cluster_gp(4, 2);
        let mut mrt = CountMrt::new(&m, ii);
        let bus0 = mrt.free_bus_slots();
        let mut held = Vec::new();
        for _ in 0..n_pairs {
            let (s, t) = (rng.below(4) as u32, rng.below(4) as u32);
            if s == t {
                continue;
            }
            let (s, t) = (ClusterId(s), ClusterId(t));
            if mrt.reserve_copy(s, &[t], None).is_ok() {
                held.push((s, t));
            }
        }
        for (s, t) in held {
            mrt.release_copy(s, &[t], None);
        }
        assert_eq!(mrt.free_bus_slots(), bus0);
        for c in m.cluster_ids() {
            assert_eq!(mrt.free_read_slots(c), m.interconnect().read_ports() * ii);
            assert_eq!(mrt.free_write_slots(c), m.interconnect().write_ports() * ii);
        }
    });
}

/// An owned `TimeMrt` request.
enum Request {
    Op(ClusterId, OpKind),
    Copy(CopyMeta),
}

impl Request {
    fn slot(&self) -> SlotRequest<'_> {
        match self {
            Request::Op(cluster, kind) => SlotRequest::Fu {
                cluster: *cluster,
                kind: *kind,
            },
            Request::Copy(meta) => SlotRequest::Copy(meta),
        }
    }
}

/// A random request for a `TimeMrt` on `m`: an op of a random kind on a
/// random cluster, or a copy. A copy reads a random cluster and writes one
/// or two random others over a bus, or crosses one link of a
/// point-to-point fabric. On a machine without a fabric it stays a
/// request no table can grant.
fn random_request(rng: &mut Rng, m: &MachineSpec) -> Request {
    let n = m.cluster_count();
    if rng.chance(0.6) {
        let kind = KINDS[rng.below(KINDS.len())];
        return Request::Op(ClusterId(rng.below(n) as u32), kind);
    }
    let links = m.interconnect().links();
    if !links.is_empty() {
        let k = rng.below(links.len());
        let (src, dst) = if rng.chance(0.5) {
            (links[k].a, links[k].b)
        } else {
            (links[k].b, links[k].a)
        };
        return Request::Copy(CopyMeta {
            src,
            targets: vec![dst],
            link: Some(LinkId(k as u32)),
        });
    }
    let src = rng.below(n);
    let targets = (0..rng.range_inclusive(1, 2))
        .map(|_| ClusterId(((src + rng.range_inclusive(1, n.max(2) - 1)) % n) as u32))
        .collect();
    Request::Copy(CopyMeta {
        src: ClusterId(src as u32),
        targets,
        link: None,
    })
}

type Probe = (NodeId, u32, Request);

/// How `mrt` answers each probe, asked of a clone so the table itself is
/// untouched: the outcome, and when blocked, the nodes a forced placement
/// evicts.
fn answers(mrt: &TimeMrt, probes: &[Probe]) -> Vec<(PlaceOutcome, Vec<NodeId>)> {
    probes
        .iter()
        .map(|(node, row, req)| {
            let mut t = mrt.clone();
            let outcome = t.try_place(*node, *row, &req.slot());
            let mut evicted = Vec::new();
            if outcome == PlaceOutcome::Blocked {
                t.place_evicting_into(*node, *row, &req.slot(), &mut evicted);
            }
            (outcome, evicted)
        })
        .collect()
}

#[test]
fn time_mrt_remove_restores_every_probe() {
    // The table records no placement of its own: naming a node and its
    // row to `remove` must undo exactly what placing it did.
    for_cases(15, 96, |rng| {
        let m = random_machine(rng);
        let ii = rng.range_inclusive(1, 4) as u32;
        let probes: Vec<Probe> = (0..8)
            .map(|k| {
                let row = rng.below(ii as usize) as u32;
                (NodeId(1000 + k), row, random_request(rng, &m))
            })
            .collect();
        let mut mrt = TimeMrt::new(&m, ii);
        let mut placed = Vec::new();
        for k in 0..rng.range_inclusive(1, 24) as u32 {
            let req = random_request(rng, &m);
            let row = rng.below(ii as usize) as u32;
            let before = answers(&mrt, &probes);
            if mrt.try_place(NodeId(k), row, &req.slot()) == PlaceOutcome::Placed {
                placed.push((NodeId(k), row, before));
            } else {
                assert_eq!(
                    answers(&mrt, &probes),
                    before,
                    "a refused probe left a trace"
                );
            }
        }
        for (node, row, before) in placed.iter().rev() {
            mrt.remove(*node, *row);
            assert_eq!(
                answers(&mrt, &probes),
                *before,
                "removing {node} at row {row}"
            );
        }
        // Refill, then reset to the same II: the table answers like new.
        for (k, (_, row, req)) in probes.iter().enumerate() {
            let _ = mrt.try_place(NodeId(k as u32), *row, &req.slot());
        }
        mrt.reset(ii);
        assert_eq!(
            answers(&mrt, &probes),
            answers(&TimeMrt::new(&m, ii), &probes)
        );
    });
}

#[test]
fn schedule_rows_stay_inside_ii() {
    for_cases(8, 96, |rng| {
        let g = random_ddg(rng, 12);
        if !valid(&g) {
            return;
        }
        let m = presets::unified_gp(4);
        let s = clasp_sched::schedule_unified(&g, &m, Default::default())
            .expect("unified scheduling succeeds");
        for n in g.node_ids() {
            let row = s.kernel_row(n).unwrap();
            assert!(row < s.ii());
        }
    });
}

#[test]
fn machine_text_roundtrips_exactly() {
    // `parse(write(m)) == m`, structurally, over the fuzzer's machine
    // population — the exactness contract `clasp_text::write_machine`
    // documents.
    let mut index = 0usize;
    for_cases(9, 200, |rng| {
        index += 1;
        let m = clasp_oracle::random_machine(rng, index);
        let text = clasp_text::write_machine(&m);
        let back = clasp_text::parse_machine(&text).expect("written machine parses");
        assert_eq!(back, m, "round-trip changed the machine:\n{text}");
    });
}

#[test]
fn stage_scheduling_preserves_validity_and_never_hurts() {
    for_cases(10, 96, |rng| {
        let g = random_ddg(rng, 12);
        if !valid(&g) {
            return;
        }
        let m = presets::unified_gp(4);
        let map = clasp_sched::unified_map(&g, &m);
        let s = clasp_sched::schedule_unified(&g, &m, Default::default()).unwrap();
        let staged = clasp_kernel::stage_schedule(&g, &s);
        assert!(staged.lifetime_after <= staged.lifetime_before);
        assert!(validate_schedule(&g, &m, &map, &staged.schedule).is_ok());
        for n in g.node_ids() {
            assert_eq!(s.kernel_row(n), staged.schedule.kernel_row(n));
        }
    });
}

#[test]
fn text_format_roundtrips() {
    for_cases(11, 96, |rng| {
        let g = random_ddg(rng, 20);
        if !valid(&g) {
            return;
        }
        let text = clasp_text::write_loop(&g);
        let back = clasp_text::parse_loop(&text).expect("round-trip parses");
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(rec_mii(&back), rec_mii(&g));
        // Kinds survive.
        for (n, op) in g.nodes() {
            assert_eq!(back.op(n).kind, op.kind);
        }
        // Edge multiset survives.
        let mut a: Vec<_> = g
            .edges()
            .map(|(_, e)| (e.src, e.dst, e.latency, e.distance))
            .collect();
        let mut b: Vec<_> = back
            .edges()
            .map(|(_, e)| (e.src, e.dst, e.latency, e.distance))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    });
}

#[test]
fn swing_and_iterative_schedulers_agree_on_feasibility() {
    for_cases(12, 96, |rng| {
        let g = random_ddg(rng, 10);
        if !valid(&g) {
            return;
        }
        let m = presets::unified_gp(4);
        let map = clasp_sched::unified_map(&g, &m);
        let mii = m.mii(&g);
        let cap = clasp_sched::max_ii_bound(&g, mii);
        let cfg = clasp_sched::SchedulerConfig::default();
        let it =
            (mii..=cap).find(|&ii| clasp_sched::iterative_schedule(&g, &m, &map, ii, cfg).is_ok());
        let sw = (mii..=cap).find(|&ii| clasp_sched::swing_schedule(&g, &m, &map, ii, cfg).is_ok());
        let (it, sw) = (
            it.expect("iterative finds an II"),
            sw.expect("swing finds an II"),
        );
        assert!(it.abs_diff(sw) <= 1, "iterative {} vs swing {}", it, sw);
    });
}

#[test]
fn context_sweep_is_identical_to_per_ii_recompute() {
    // The amortized SchedContext sweep must be decision-identical to
    // attempting each II with a fresh scheduler (the seed's code path).
    for_cases(13, 64, |rng| {
        let g = random_ddg(rng, 12);
        if !valid(&g) {
            return;
        }
        let m = presets::unified_gp(4);
        let map = clasp_sched::unified_map(&g, &m);
        let mii = m.mii(&g);
        let cap = clasp_sched::max_ii_bound(&g, mii);
        let cfg = clasp_sched::SchedulerConfig::default();
        let fresh = (mii.max(1)..=cap)
            .find_map(|ii| clasp_sched::iterative_schedule(&g, &m, &map, ii, cfg).ok());
        let mut ctx = clasp_sched::SchedContext::new(&g, &m, &map).unwrap();
        let swept = ctx.schedule_in_range(mii, cap, cfg).ok();
        match (fresh, swept) {
            (Some(a), Some(b)) => {
                assert_eq!(a.ii(), b.ii());
                for n in g.node_ids() {
                    assert_eq!(a.start(n), b.start(n));
                }
            }
            (a, b) => panic!("feasibility diverged: fresh={:?} swept={:?}", a, b),
        }
    });
}
