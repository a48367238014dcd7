//! `exact-gap`: the exact backend's minimal-II search
//! (`clasp::oracle::exact_minimal_ii`, 12-node cap) over the ≤12-node
//! slice of the paper corpus, on the two-cluster GP and FS machines.
//!
//! Unlike the other workloads, the instance set does not change with
//! the seed: it is always the slice of the paper corpus at the default
//! seed, the set `results/gap12.csv` scores. A few instances need
//! 100-450 ms of the solver where the median needs under 1 ms, and which
//! instances those are changes with the corpus, so a run-sized sample of
//! seeded instances cannot give a steady solve rate (across six corpus
//! seeds one pass took 2.2-3.5 s). The seed permutes the solve order.

use crate::common::{
    committed_rows, histogram_mismatch, histogram_rows, repeated_setup, run_passes, timed_ms,
    Layers, Measured, RunOptions, SplitMix64, Verdicts,
};
use crate::trace::{SelfTimes, Tracer, ITEM};
use clasp::core::Variant;
use clasp::ddg::Ddg;
use clasp::exact::{exact_schedule_with, ExactConfig, IiOutcome};
use clasp::loopgen::{generate_corpus, CorpusConfig};
use clasp::machine::{presets, MachineSpec};
use clasp::oracle::{exact_minimal_ii, EXACT_ORACLE_NODE_CAP};
use clasp::{compile_loop, PipelineConfig};
use std::time::{Duration, Instant};

/// The committed optimality-gap table of the 2c-gp machine.
const GAP12: &str = include_str!("../../results/gap12.csv");

/// The series of `results/gap12.csv` this workload reproduces.
const GAP_SERIES: &str = "Heuristic Iterative";

/// The generated inputs: the small-loop slice on both machines,
/// machine-major, with the heuristic II of every item as its upper
/// bound, and the seeded solve order.
pub struct Corpus {
    pub loops: Vec<Ddg>,
    pub machines: Vec<MachineSpec>,
    /// Heuristic-iterative II per item (`None` when it failed).
    pub heuristic: Vec<Option<u32>>,
    /// Item ids in solve order.
    pub order: Vec<usize>,
}

impl Corpus {
    /// The instance set in the order `seed` gives, with the loop
    /// generation time in ms (the heuristic references are not counted).
    pub fn generate(seed: u64) -> (Corpus, f64) {
        let (loops, loopgen_ms) = timed_ms(|| -> Vec<Ddg> {
            generate_corpus(CorpusConfig::default())
                .into_iter()
                .filter(|g| g.node_count() <= EXACT_ORACLE_NODE_CAP)
                .collect()
        });
        let machines = vec![presets::two_cluster_gp(2, 1), presets::two_cluster_fs(2, 1)];
        let config = PipelineConfig::from(Variant::HeuristicIterative);
        let heuristic: Vec<Option<u32>> = machines
            .iter()
            .flat_map(|m| {
                loops
                    .iter()
                    .map(move |g| compile_loop(g, m, config).ok().map(|c| c.ii()))
            })
            .collect();
        let mut order: Vec<usize> = (0..heuristic.len()).collect();
        let mut draws = SplitMix64::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, draws.below(i + 1));
        }
        let corpus = Corpus {
            loops,
            machines,
            heuristic,
            order,
        };
        (corpus, loopgen_ms)
    }

    pub fn items(&self) -> usize {
        self.loops.len() * self.machines.len()
    }

    pub fn item(&self, i: usize) -> (&Ddg, &MachineSpec) {
        let n = self.loops.len();
        (&self.loops[i % n], &self.machines[i / n])
    }

    pub fn label(&self, i: usize) -> String {
        let (g, m) = self.item(i);
        format!("{} on {}", g.name(), m.name())
    }
}

/// Output check: `MachineSpec::mii <= exact II <= heuristic II` for
/// every item and the 2c-gp gap histogram equal to the committed
/// `Heuristic Iterative` rows of `results/gap12.csv`; a mismatching
/// histogram fails every 2c-gp item. `exact` is indexed by item id.
pub fn check(corpus: &Corpus, exact: &[Option<u32>]) -> Verdicts {
    let mut verdicts = bound_check(corpus, exact);
    if let Some(why) = gap_mismatch(corpus, exact) {
        for l in 0..corpus.loops.len() {
            verdicts.fail(l, || format!("gap12 `{GAP_SERIES}`: {why}"));
        }
    }
    verdicts
}

/// `MachineSpec::mii <= exact II <= heuristic II`, item by item; an
/// undecided search is a failure too.
pub fn bound_check(corpus: &Corpus, exact: &[Option<u32>]) -> Verdicts {
    let mut verdicts = Verdicts::new(exact.len());
    for (i, e) in exact.iter().enumerate() {
        let (g, m) = corpus.item(i);
        let mii = m.mii(g);
        match (e, corpus.heuristic[i]) {
            (None, _) => verdicts.fail(i, || "exact search undecided (budget-out)".to_string()),
            (Some(e), _) if *e < mii => {
                verdicts.fail(i, || format!("exact II {e} below MII {mii}"))
            }
            (Some(e), Some(h)) if *e > h => verdicts.fail(i, || {
                format!("exact II {e} above the heuristic's {h}: not minimal")
            }),
            (Some(_), None) => verdicts.fail(i, || "heuristic reference failed".to_string()),
            _ => {}
        }
    }
    verdicts
}

/// The 2c-gp gap histogram (heuristic II - exact II) against the
/// committed rows; `None` when equal.
pub fn gap_mismatch(corpus: &Corpus, exact: &[Option<u32>]) -> Option<String> {
    let n = corpus.loops.len();
    let gaps = (0..n).map(|l| match (corpus.heuristic[l], exact[l]) {
        (Some(h), Some(e)) => Some(i64::from(h) - i64::from(e)),
        _ => None,
    });
    let rows = histogram_rows(GAP_SERIES, gaps, n);
    histogram_mismatch(&rows, &committed_rows(GAP12, GAP_SERIES))
}

/// The exact oracle's caps: the default conflict budget, 12 nodes.
fn oracle_config() -> ExactConfig {
    ExactConfig {
        max_nodes: EXACT_ORACLE_NODE_CAP,
        ..ExactConfig::default()
    }
}

/// The untraced run.
pub fn measure(opts: &RunOptions) -> (Measured, Corpus, Vec<Option<u32>>) {
    let mut generate_ms = 0.0;
    let (corpus, setup_s) = repeated_setup(
        || {
            let (c, ms) = Corpus::generate(opts.seed);
            generate_ms = ms;
            c
        },
        drop,
    );
    let n = corpus.items();
    let mut m = Measured {
        setup_s,
        corpus: format!(
            "{} loops of <= {EXACT_ORACLE_NODE_CAP} nodes (paper corpus, default seed) x {} machines = {n} items per pass, order from seed {:#x}",
            corpus.loops.len(),
            corpus.machines.len(),
            opts.seed
        ),
        ..Measured::default()
    };
    let mut reference: Vec<Option<u32>> = Vec::new();
    let mut diverged = Vec::new();
    let (passes, timed_s) = run_passes(opts.seconds, |pass| {
        let mut results = vec![None; n];
        let t0 = Instant::now();
        for &i in &corpus.order {
            let (g, machine) = corpus.item(i);
            let s = Instant::now();
            let r = exact_minimal_ii(g, machine);
            m.latencies_ms.push(s.elapsed().as_secs_f64() * 1e3);
            results[i] = r;
        }
        let took = t0.elapsed();
        m.last_pass = Some((took.as_secs_f64(), n));
        if pass == 0 {
            reference = results;
        } else {
            diverged.extend(
                (0..n)
                    .filter(|&i| results[i] != reference[i])
                    .map(|i| (i, pass)),
            );
        }
        took
    });
    m.timed_s = timed_s;
    m.loopgen_ms = generate_ms;
    let mut verdicts = check(&corpus, &reference);
    for (i, pass) in diverged {
        verdicts.fail(i, || format!("pass {pass} result differs from pass 0"));
    }
    for (i, e) in reference.iter().enumerate() {
        if let Some(e) = e {
            let (g, machine) = corpus.item(i);
            for _ in 0..passes {
                m.ii_over_mii.add_ratio(*e, machine.mii(g));
            }
        }
    }
    m.checks.push(
        "MII <= exact II <= heuristic II on every item; 2c-gp gap histogram compared with results/gap12.csv"
            .to_string(),
    );
    m.checks.push(format!(
        "{} later pass(es) compared with pass 0",
        passes - 1
    ));
    let bad = verdicts.bad_count();
    verdicts.fold_into(&mut m, &vec![passes as u64; n], |i| corpus.label(i));
    m.checks.push(format!("{bad} distinct item(s) failed"));
    (m, corpus, reference)
}

/// The traced run: every item re-solved through `exact_schedule_with`,
/// one span per II rung between observer callbacks (tagged with the
/// rung's verdict) and one for decoding the model.
pub fn traced(
    corpus: &Corpus,
    reference: &[Option<u32>],
    tracer: &Tracer,
) -> Result<(Layers, Duration, usize), String> {
    let n = corpus.items();
    let obs = tracer.obs();
    let (mut rungs, mut conflicts, mut vars, mut budget_outs) = (0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for &i in &corpus.order {
        let (g, machine) = corpus.item(i);
        let result = tracer.span(ITEM, i, || {
            let mut open = Some(obs.begin("exact.rung"));
            let result = exact_schedule_with(g, machine, oracle_config(), &mut |at| {
                let verdict = match at.outcome {
                    IiOutcome::Feasible => "sat",
                    IiOutcome::Infeasible => "unsat",
                    IiOutcome::Budget => "budget",
                };
                if let Some(span) = open.take() {
                    obs.end_with(span, || {
                        vec![("item", i.to_string()), ("outcome", verdict.to_string())]
                    });
                }
                rungs += 1;
                conflicts += at.conflicts;
                vars += at.vars as u64;
                if at.outcome == IiOutcome::Budget {
                    budget_outs += 1;
                }
                // What runs until the next callback or the return: the
                // next rung, decoding the model, or the budget-out exit.
                open = Some(obs.begin(match at.outcome {
                    IiOutcome::Feasible => "exact.decode",
                    IiOutcome::Infeasible => "exact.rung",
                    IiOutcome::Budget => "exact.tail",
                }));
            });
            if let Some(span) = open.take() {
                obs.end_with(span, || vec![("item", i.to_string())]);
            }
            result
        });
        let got = result.ok().map(|(a, _)| a.ii);
        if got != reference[i] {
            return Err(format!(
                "traced solve of {} gave {got:?}, the oracle gave {:?}",
                corpus.label(i),
                reference[i]
            ));
        }
    }
    let wall = t0.elapsed();
    let t = SelfTimes::fold(&tracer.spans())?;
    let known = [
        "exact.rung.sat",
        "exact.rung.unsat",
        "exact.rung.budget",
        "exact.rung",
        "exact.decode",
        "exact.tail",
    ];
    if let Some(name) = t.unreported(&known).next() {
        return Err(format!("span `{name}` has no layer metric"));
    }
    let per = |v: u64| v as f64 / n as f64;
    let mut l = Layers::new();
    l.insert("exact.rungs_per_item", per(rungs));
    l.insert(
        "exact.unsat_ms",
        t.per_item_ms(&[
            "exact.rung.unsat",
            "exact.rung.budget",
            "exact.rung",
            "exact.tail",
        ]),
    );
    l.insert(
        "exact.sat_ms",
        t.per_item_ms(&["exact.rung.sat", "exact.decode"]),
    );
    l.insert("exact.conflicts", per(conflicts));
    l.insert(
        "exact.vars_per_rung",
        if rungs == 0 {
            0.0
        } else {
            vars as f64 / rungs as f64
        },
    );
    l.insert("exact.budget_outs", budget_outs as f64);
    l.insert("driver.other_ms", t.per_item_ms(&[ITEM]));
    Ok((l, wall, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_orders_a_fixed_instance_set() {
        let (a, _) = Corpus::generate(1);
        let (b, _) = Corpus::generate(1);
        let (c, _) = Corpus::generate(2);
        assert_eq!(a.order, b.order);
        assert_ne!(a.order, c.order);
        let mut sorted = c.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.items()).collect::<Vec<_>>());
        assert!(a
            .loops
            .iter()
            .all(|g| g.node_count() <= EXACT_ORACLE_NODE_CAP));
        assert_eq!(a.heuristic.len(), a.items());
    }

    #[test]
    fn an_exact_ii_above_the_heuristic_is_caught() {
        let (mut corpus, _) = Corpus::generate(11);
        corpus.loops.truncate(8);
        corpus.machines.truncate(1);
        corpus.heuristic.truncate(8);
        corpus.order = (0..8).rev().collect();
        let exact: Vec<Option<u32>> = (0..corpus.items())
            .map(|i| {
                let (g, m) = corpus.item(i);
                exact_minimal_ii(g, m)
            })
            .collect();
        assert_eq!(bound_check(&corpus, &exact).bad_count(), 0);
        let mut raised = exact.clone();
        raised[3] = Some(corpus.heuristic[3].unwrap() + 1);
        let v = bound_check(&corpus, &raised);
        assert!(v.is_bad(3));
        assert_eq!(v.bad_count(), 1);
        // Eight loops cannot reproduce the committed 673-loop histogram.
        assert!(gap_mismatch(&corpus, &exact).is_some());
        assert_eq!(check(&corpus, &exact).bad_count(), 8);
        // The traced solve agrees with the oracle, and refuses a wrong
        // reference.
        let (layers, _, _) = traced(&corpus, &exact, &Tracer::new()).unwrap();
        assert!(layers["exact.rungs_per_item"] >= 1.0);
        assert!(traced(&corpus, &raised, &Tracer::new()).is_err());
    }
}
