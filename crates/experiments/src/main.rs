//! CLASP experiment harness.
//!
//! Regenerates every table and figure of Nystrom & Eichenberger (MICRO
//! 1998). Run with `cargo run -p clasp-experiments --release -- <id>`,
//! where `<id>` is one of:
//!
//! `table1 table2 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 gap
//! table3 grid ablate-order ablate-pcr ablate-budget ablate-sched registers
//! baseline-post all quick`
//!
//! `gap` is the optimality table: the Fig. 12/13 variants' II gap
//! against the exact SAT backend's proven minimum on small loops
//! (`results/gap12.csv`, `results/gap13.csv`).
//!
//! Options: `--loops N` (corpus subset), `--seed S` (corpus seed),
//! `--threads T` (sweep workers, 0 = one per hardware thread; results
//! are bit-identical for every T). CSV output lands in `results/`.

mod experiments;
mod runner;

use clasp_ddg::Ddg;
use clasp_loopgen::{generate_corpus, CorpusConfig};

/// One experiment: it prints its table and writes its CSVs.
type Run = fn(&[Ddg]);

/// Every experiment `all` runs, in its order. `gap` and `quick` are
/// named extras outside it.
const EXPERIMENTS: [(&str, Run); 18] = [
    ("table1", experiments::table1),
    ("table2", |_| experiments::table2()),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
    ("fig14", experiments::fig14),
    ("fig15", experiments::fig15),
    ("fig16", experiments::fig16),
    ("fig17", experiments::fig17),
    ("fig18", experiments::fig18),
    ("fig19", experiments::fig19),
    ("table3", experiments::table3),
    ("grid", experiments::grid),
    ("ablate-order", experiments::ablate_order),
    ("ablate-pcr", experiments::ablate_pcr),
    ("ablate-budget", experiments::ablate_budget),
    ("ablate-sched", experiments::ablate_sched),
    ("registers", experiments::registers),
    ("baseline-post", experiments::baseline_post),
];

/// The run an id names: one of [`EXPERIMENTS`], `all` of them, or a
/// named extra — the optimality-gap tables, or a smoke-test subset of
/// the headline experiments.
fn experiment(id: &str) -> Option<Run> {
    Some(match id {
        "gap" => experiments::gap,
        "quick" => |corpus| {
            experiments::table1(corpus);
            experiments::fig12(corpus);
            experiments::grid(corpus);
        },
        "all" => |corpus| EXPERIMENTS.iter().for_each(|(_, run)| run(corpus)),
        id => EXPERIMENTS.iter().find(|(name, _)| *name == id)?.1,
    })
}

fn corpus(loops: Option<usize>, seed: Option<u64>) -> Vec<Ddg> {
    let mut cfg = CorpusConfig::default();
    if let Some(n) = loops {
        // Keep the paper's 301/1327 recurrence fraction.
        cfg.scc_loops = (n * 301).div_ceil(1327).min(n);
        cfg.loops = n;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    generate_corpus(cfg)
}

/// The value after `flag`, as a number; anything else is a usage error.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} takes a number"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut runs: Vec<Run> = Vec::new();
    let (mut loops, mut seed) = (None, None);
    while let Some(arg) = args.next() {
        let read = match arg.as_str() {
            "--loops" => number(&mut args, &arg).map(|n| loops = Some(n)),
            "--seed" => number(&mut args, &arg).map(|s| seed = Some(s)),
            "--threads" => number(&mut args, &arg).map(runner::set_threads),
            id => experiment(id)
                .map(|run| runs.push(run))
                .ok_or_else(|| format!("unknown experiment id: {id}")),
        };
        if let Err(e) = read {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    if runs.is_empty() {
        runs.push(experiment("all").expect("`all` is an id"));
    }

    let t0 = std::time::Instant::now();
    let corpus = corpus(loops, seed);
    println!(
        "corpus: {} loops generated in {:.1?}",
        corpus.len(),
        t0.elapsed()
    );
    for run in runs {
        run(&corpus);
    }
    println!("\ntotal: {:.1?}", t0.elapsed());
}
