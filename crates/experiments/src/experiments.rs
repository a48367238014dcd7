//! One function per paper table/figure, plus the ablations.

use crate::runner::{
    print_series, run_experiment, run_gap_experiment, write_csv, Series, SeriesSpec,
};
use clasp::PipelineConfig;
use clasp_core::{AssignConfig, Ordering, Variant};
use clasp_ddg::{Ddg, OpKind};
use clasp_loopgen::corpus_stats;
use clasp_machine::presets;

fn cfg(v: Variant) -> PipelineConfig {
    PipelineConfig::from(v)
}

fn full() -> PipelineConfig {
    cfg(Variant::HeuristicIterative)
}

/// Run one experiment's sweep, exiting the process with the panicking
/// case's label if any compile dies — the typed [`clasp_exec::SweepPanic`]
/// replaces the old chunked map's anonymous whole-sweep abort.
fn run_or_die(id: &str, corpus: &[Ddg], specs: &[SeriesSpec]) -> Vec<Series> {
    match run_experiment(corpus, specs) {
        Ok(series) => series,
        Err(panic) => {
            eprintln!("experiment {id} failed: {panic}");
            std::process::exit(1);
        }
    }
}

fn run_and_report(id: &str, title: &str, corpus: &[Ddg], specs: Vec<SeriesSpec>) {
    let t0 = std::time::Instant::now();
    let series = run_or_die(id, corpus, &specs);
    print_series(title, &series);
    println!(
        "[{id}] {} loops x {} series in {:.1?}",
        corpus.len(),
        specs.len(),
        t0.elapsed()
    );
    if let Err(e) = write_csv(id, &series) {
        eprintln!("warning: could not write results/{id}.csv: {e}");
    }
}

/// Table 1: loop statistics of the corpus.
pub fn table1(corpus: &[Ddg]) {
    println!("\n=== Table 1: loop statistics (paper: 2/17.5/161 nodes, 0/0.4/6 SCCs, 2/9.0/48 SCC nodes, 1/22.5/232 edges) ===");
    println!("{}", corpus_stats(corpus));
}

/// Table 2: operation latencies (static, read back from the op model).
pub fn table2() {
    println!("\n=== Table 2: operation latencies ===");
    println!("{:<42} Latency", "Operation");
    let groups: [(&str, OpKind); 10] = [
        ("ALU", OpKind::IntAlu),
        ("Shift", OpKind::Shift),
        ("Branch", OpKind::Branch),
        ("Store", OpKind::Store),
        ("FP-Add", OpKind::FpAdd),
        ("Copy", OpKind::Copy),
        ("Load", OpKind::Load),
        ("FP-Mult", OpKind::FpMult),
        ("FP-Div", OpKind::FpDiv),
        ("FP-SQRT", OpKind::FpSqrt),
    ];
    for (name, k) in groups {
        println!("{:<42} {} cycle(s)", name, k.latency());
    }
}

/// Figure 12: the four heuristic variants on the 2-cluster GP machine
/// (2 buses, 1 port).
pub fn fig12(corpus: &[Ddg]) {
    let m = presets::two_cluster_gp(2, 1);
    let specs = Variant::ALL
        .iter()
        .map(|&v| (v.label().to_string(), m.clone(), cfg(v)))
        .collect();
    run_and_report(
        "fig12",
        "Figure 12: heuristics, 2 clusters x 4 GP (2 buses, 1 port)",
        corpus,
        specs,
    )
}

/// Figure 13: the four variants on the 4-cluster GP machine (4 buses,
/// 2 ports).
pub fn fig13(corpus: &[Ddg]) {
    let m = presets::four_cluster_gp(4, 2);
    let specs = Variant::ALL
        .iter()
        .map(|&v| (v.label().to_string(), m.clone(), cfg(v)))
        .collect();
    run_and_report(
        "fig13",
        "Figure 13: heuristics, 4 clusters x 4 GP (4 buses, 2 ports)",
        corpus,
        specs,
    )
}

/// Optimality-gap table: the Fig. 12/13 heuristic variants against the
/// exact SAT backend's proven minimal II, on the corpus's small loops
/// (the exact bound is only tractable up to
/// [`clasp::oracle::EXACT_ORACLE_NODE_CAP`] nodes). Deviation buckets
/// are `heuristic II - exact II`: the x=0 column is the fraction of
/// small loops each variant schedules provably optimally.
pub fn gap(corpus: &[Ddg]) {
    let cap = clasp::oracle::EXACT_ORACLE_NODE_CAP;
    let small: Vec<Ddg> = corpus
        .iter()
        .filter(|g| g.node_count() <= cap)
        .cloned()
        .collect();
    println!(
        "\ngap: {} of {} corpus loops have <= {cap} nodes",
        small.len(),
        corpus.len()
    );
    for (id, title, m) in [
        (
            "gap12",
            "Gap vs exact: 2 clusters x 4 GP (2 buses, 1 port), small loops",
            presets::two_cluster_gp(2, 1),
        ),
        (
            "gap13",
            "Gap vs exact: 4 clusters x 4 GP (4 buses, 2 ports), small loops",
            presets::four_cluster_gp(4, 2),
        ),
    ] {
        let specs: Vec<SeriesSpec> = Variant::ALL
            .iter()
            .map(|&v| (v.label().to_string(), m.clone(), cfg(v)))
            .collect();
        let t0 = std::time::Instant::now();
        let series = match run_gap_experiment(&small, &specs) {
            Ok(series) => series,
            Err(panic) => {
                eprintln!("experiment {id} failed: {panic}");
                std::process::exit(1);
            }
        };
        print_series(title, &series);
        println!(
            "[{id}] {} loops x {} series in {:.1?}",
            small.len(),
            specs.len(),
            t0.elapsed()
        );
        if let Err(e) = write_csv(id, &series) {
            eprintln!("warning: could not write results/{id}.csv: {e}");
        }
    }
}

/// Figure 14: bus count sweep on the 2-cluster GP machine.
pub fn fig14(corpus: &[Ddg]) {
    let specs = [1u32, 2, 4]
        .iter()
        .map(|&b| {
            (
                format!("{b} bus(es)"),
                presets::two_cluster_gp(b, 1),
                full(),
            )
        })
        .collect();
    run_and_report(
        "fig14",
        "Figure 14: varying buses, 2 clusters x 4 GP (1 port)",
        corpus,
        specs,
    )
}

/// Figure 15: port count sweep on the 2-cluster GP machine (2 buses).
pub fn fig15(corpus: &[Ddg]) {
    let specs = [1u32, 2, 4]
        .iter()
        .map(|&p| {
            (
                format!("{p} port(s)"),
                presets::two_cluster_gp(2, p),
                full(),
            )
        })
        .collect();
    run_and_report(
        "fig15",
        "Figure 15: varying ports, 2 clusters x 4 GP (2 buses)",
        corpus,
        specs,
    )
}

/// Figure 16: bus count sweep on the 4-cluster GP machine (2 ports).
pub fn fig16(corpus: &[Ddg]) {
    let specs = [2u32, 4, 8]
        .iter()
        .map(|&b| (format!("{b} buses"), presets::four_cluster_gp(b, 2), full()))
        .collect();
    run_and_report(
        "fig16",
        "Figure 16: varying buses, 4 clusters x 4 GP (2 ports)",
        corpus,
        specs,
    )
}

/// Figure 17: port count sweep on the 4-cluster GP machine (4 buses).
pub fn fig17(corpus: &[Ddg]) {
    let specs = [1u32, 2, 4]
        .iter()
        .map(|&p| {
            (
                format!("{p} port(s)"),
                presets::four_cluster_gp(4, p),
                full(),
            )
        })
        .collect();
    run_and_report(
        "fig17",
        "Figure 17: varying ports, 4 clusters x 4 GP (4 buses)",
        corpus,
        specs,
    )
}

/// Figure 18: bus count sweep on the 2-cluster FS machine.
pub fn fig18(corpus: &[Ddg]) {
    let specs = [1u32, 2, 4]
        .iter()
        .map(|&b| {
            (
                format!("{b} bus(es)"),
                presets::two_cluster_fs(b, 1),
                full(),
            )
        })
        .collect();
    run_and_report(
        "fig18",
        "Figure 18: varying buses, 2 clusters x 4 FS (1 port)",
        corpus,
        specs,
    )
}

/// Figure 19: bus count sweep on the 4-cluster FS machine.
pub fn fig19(corpus: &[Ddg]) {
    let specs = [2u32, 4, 8]
        .iter()
        .map(|&b| (format!("{b} buses"), presets::four_cluster_fs(b, 2), full()))
        .collect();
    run_and_report(
        "fig19",
        "Figure 19: varying buses, 4 clusters x 4 FS (2 ports)",
        corpus,
        specs,
    )
}

/// Table 3: percent-of-unified at the diminishing-returns bus/port point
/// for 2, 4, 6, and 8 clusters (paper: 99.7 / 97.5 / 96.5 / 99.5).
pub fn table3(corpus: &[Ddg]) {
    println!("\n=== Table 3: bus/port resource comparison ===");
    println!(
        "{:<10} {:>6} {:>6} {:>20}",
        "Clusters", "Buses", "Ports", "Percent of Unified"
    );
    for (clusters, buses, ports) in [(2u32, 2u32, 1u32), (4, 4, 2), (6, 6, 3), (8, 7, 3)] {
        let m = presets::n_cluster_gp(clusters, buses, ports);
        let series = run_or_die("table3", corpus, &[("t3".into(), m, full())]);
        println!(
            "{:<10} {:>6} {:>6} {:>19.1}%",
            clusters,
            buses,
            ports,
            series[0].pct_at(0)
        );
        let _ = write_csv(&format!("table3-{clusters}c"), &series);
    }
}

/// §6 grid result: the 4-cluster 2x2 point-to-point machine (paper: 92%
/// at x=0, 98% within one cycle).
pub fn grid(corpus: &[Ddg]) {
    let specs = vec![(
        "4-cluster grid (p2p)".to_string(),
        presets::four_cluster_grid(2),
        full(),
    )];
    run_and_report(
        "grid",
        "Grid: 4 clusters x 3 FS, point-to-point neighbours only",
        corpus,
        specs,
    )
}

/// Ablation: ordering strategy (SCC-first swing vs flat swing vs
/// bottom-up strawman) on both bused GP machines.
pub fn ablate_order(corpus: &[Ddg]) {
    for (id, m, title) in [
        (
            "ablate-order-2c",
            presets::two_cluster_gp(2, 1),
            "Ablation: node ordering, 2 clusters x 4 GP",
        ),
        (
            "ablate-order-4c",
            presets::four_cluster_gp(4, 2),
            "Ablation: node ordering, 4 clusters x 4 GP",
        ),
    ] {
        let specs = [
            ("SCC-first + swing (paper)", Ordering::SccSwing),
            ("swing only", Ordering::SwingOnly),
            ("bottom-up (strawman)", Ordering::BottomUp),
        ]
        .iter()
        .map(|&(label, ord)| {
            let mut c = full();
            c.assign = AssignConfig {
                ordering: ord,
                ..c.assign
            };
            (label.to_string(), m.clone(), c)
        })
        .collect();
        run_and_report(id, title, corpus, specs);
    }
}

/// Ablation: the PCR <= MRC predicted-copy selection (Fig. 10 line 6)
/// on/off.
pub fn ablate_pcr(corpus: &[Ddg]) {
    for (id, m, title) in [
        (
            "ablate-pcr-2c",
            presets::two_cluster_gp(2, 1),
            "Ablation: copy prediction (PCR/MRC), 2 clusters x 4 GP",
        ),
        (
            "ablate-pcr-4c",
            presets::four_cluster_gp(4, 2),
            "Ablation: copy prediction (PCR/MRC), 4 clusters x 4 GP",
        ),
    ] {
        let specs = [("PCR on (paper)", true), ("PCR off", false)]
            .iter()
            .map(|&(label, pcr)| {
                let mut c = full();
                c.assign = AssignConfig {
                    pcr_prediction: pcr,
                    ..c.assign
                };
                (label.to_string(), m.clone(), c)
            })
            .collect();
        run_and_report(id, title, corpus, specs);
    }
}

/// Ablation: phase-2 scheduler (Rau iterative vs iterative swing — the
/// paper used the latter).
pub fn ablate_sched(corpus: &[Ddg]) {
    use clasp_sched::SchedulerKind;
    for (id, m, title) in [
        (
            "ablate-sched-2c",
            presets::two_cluster_gp(2, 1),
            "Ablation: phase-2 scheduler, 2 clusters x 4 GP",
        ),
        (
            "ablate-sched-4c",
            presets::four_cluster_gp(4, 2),
            "Ablation: phase-2 scheduler, 4 clusters x 4 GP",
        ),
    ] {
        let specs = [
            ("Rau iterative", SchedulerKind::Iterative),
            ("iterative swing (paper)", SchedulerKind::Swing),
        ]
        .iter()
        .map(|&(label, kind)| {
            let mut c = full();
            c.scheduler = kind;
            (label.to_string(), m.clone(), c)
        })
        .collect();
        run_and_report(id, title, corpus, specs);
    }
}

/// Beyond the paper: register pressure across the corpus, and how much
/// the stage-scheduling pass (Eichenberger & Davidson 1995) recovers.
pub fn registers(corpus: &[Ddg]) {
    use clasp::{compile_full, CompileRequest};
    println!("\n=== Registers: pressure and stage scheduling (beyond the paper) ===");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12} {:>8} {:>9}",
        "machine", "MaxLive", "MVE regs", "restaged", "improved-on", "unroll", "RRF size"
    );
    for m in [
        presets::two_cluster_gp(2, 1),
        presets::four_cluster_gp(4, 2),
        presets::four_cluster_grid(2),
    ] {
        let mut sum_live = 0u64;
        let mut sum_req = 0u64;
        let mut sum_after = 0u64;
        let mut improved = 0usize;
        let mut sum_unroll = 0u64;
        let mut sum_rrf = 0u64;
        let mut n = 0usize;
        // One driver request per loop: restaging on, so the report's
        // raw/final register statistics are exactly the before/after pair
        // this table compares.
        let req = CompileRequest {
            pipeline: full(),
            restage: true,
            iterations: 1,
            verify: false,
            ..CompileRequest::default()
        };
        for g in corpus {
            let Ok(a) = compile_full(g, &m, &req) else {
                continue;
            };
            let r = &a.report;
            sum_live += u64::from(r.registers_raw.max_live);
            sum_req += u64::from(r.registers_raw.requirement);
            sum_after += u64::from(r.registers_final.requirement);
            if r.registers_final.requirement < r.registers_raw.requirement {
                improved += 1;
            }
            sum_unroll += u64::from(r.registers_raw.unroll);
            sum_rrf += r.registers_raw.rrf_size as u64;
            n += 1;
        }
        let avg = |x: u64| x as f64 / n.max(1) as f64;
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>11.1}% {:>8.2} {:>9.1}",
            m.name(),
            avg(sum_live),
            avg(sum_req),
            avg(sum_after),
            100.0 * improved as f64 / n.max(1) as f64,
            avg(sum_unroll),
            avg(sum_rrf)
        );
    }
}

/// Related-work baseline (§1.4): post-scheduling partitioning (Capitanio
/// et al.) vs the paper's pre-scheduling assignment, on the recurrence
/// subset where the difference is structural.
pub fn baseline_post(corpus: &[Ddg]) {
    use clasp::{compile_loop, compile_loop_post, unified_ii};
    println!(
        "\n=== Baseline: post-scheduling partitioning (Capitanio) vs pre-scheduling assignment ==="
    );
    for m in [
        presets::two_cluster_gp(2, 1),
        presets::four_cluster_gp(4, 2),
    ] {
        let mut hist_pre = std::collections::BTreeMap::new();
        let mut hist_post = std::collections::BTreeMap::new();
        let mut n = 0usize;
        for g in corpus {
            let Ok(u) = unified_ii(g, &m, Default::default()) else {
                continue;
            };
            let (Ok(pre), Ok(post)) = (
                compile_loop(g, &m, full()),
                compile_loop_post(g, &m, full()),
            ) else {
                continue;
            };
            *hist_pre
                .entry((i64::from(pre.ii()) - i64::from(u)).min(5))
                .or_insert(0usize) += 1;
            *hist_post
                .entry((i64::from(post.ii()) - i64::from(u)).min(5))
                .or_insert(0usize) += 1;
            n += 1;
        }
        let pct = |h: &std::collections::BTreeMap<i64, usize>, d: i64| {
            100.0 * *h.get(&d).unwrap_or(&0) as f64 / n.max(1) as f64
        };
        println!(
            "{}: {:<26} x=0 {:>5.1}%  x=1 {:>5.1}%  x=2 {:>5.1}%  x>=3 {:>5.1}%",
            m.name(),
            "pre-scheduling (paper)",
            pct(&hist_pre, 0),
            pct(&hist_pre, 1),
            pct(&hist_pre, 2),
            (100.0 - pct(&hist_pre, 0) - pct(&hist_pre, 1) - pct(&hist_pre, 2)).max(0.0)
        );
        println!(
            "{}: {:<26} x=0 {:>5.1}%  x=1 {:>5.1}%  x=2 {:>5.1}%  x>=3 {:>5.1}%",
            m.name(),
            "post-scheduling partition",
            pct(&hist_post, 0),
            pct(&hist_post, 1),
            pct(&hist_post, 2),
            (100.0 - pct(&hist_post, 0) - pct(&hist_post, 1) - pct(&hist_post, 2)).max(0.0)
        );
    }
}

/// Ablation: iteration budget sweep.
pub fn ablate_budget(corpus: &[Ddg]) {
    let m = presets::four_cluster_gp(4, 2);
    let specs = [1u32, 2, 4, 6, 8]
        .iter()
        .map(|&b| {
            let mut c = full();
            c.assign = AssignConfig {
                budget_factor: b,
                ..c.assign
            };
            (format!("budget {b}x nodes"), m.clone(), c)
        })
        .collect();
    run_and_report(
        "ablate-budget",
        "Ablation: iteration budget, 4 clusters x 4 GP",
        corpus,
        specs,
    );
}
