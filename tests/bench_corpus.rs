//! The bench-corpus golden: every loop of the 150-loop bench corpus
//! compiled on `4c-gp`, one row per loop, compared byte for byte with
//! the committed `results/bench-corpus-kernels.txt`.
//!
//! A row pins the clustered and unified IIs (`compare_with_unified`),
//! the copy count, the II and cluster map of one assignment from II 1
//! (`assign_from`), and the kernel table (hashed as `clasp-cli batch`
//! hashes it) and whole emitted program of `compile_full` with
//! restaging and verification off at 16 iterations. The trailer pins
//! the pipeline, assignment and scheduling counters of that compile
//! pass.
//!
//! On a mismatch the test names the first differing line and writes
//! the fresh rendering to `$CARGO_TARGET_TMPDIR/bench-corpus-kernels.txt`.
//! To accept an intended change, copy that file over the committed one.

use std::fmt::Write as _;
use std::path::Path;

use clasp::obs::Obs;
use clasp::{compare_with_unified, compile_full_observed, CompileRequest, PipelineConfig};
use clasp_core::assign_from;
use clasp_exec::CacheKey;
use clasp_machine::presets;

mod common;
use common::bench_corpus;

const GOLDEN: &str = "results/bench-corpus-kernels.txt";

fn hash(text: &str) -> CacheKey {
    CacheKey::of(&[text])
}

fn render() -> String {
    let machine = presets::four_cluster_gp(4, 2);
    let config = PipelineConfig::default();
    let req = CompileRequest {
        pipeline: config,
        restage: false,
        iterations: 16,
        verify: false,
        ..CompileRequest::default()
    };
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
    out.push_str("counters:\n");
    for (name, value) in obs.counters() {
        if ["pipeline.", "assign.", "sched."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            writeln!(out, "  {name} = {value}").unwrap();
        }
    }
    out
}

#[test]
fn bench_corpus_matches_the_committed_golden() {
    let fresh = render();
    let committed = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN))
        .unwrap_or_default();
    if fresh == committed {
        return;
    }
    let rendered = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-corpus-kernels.txt");
    std::fs::write(&rendered, &fresh).expect("write the fresh rendering");
    let now: Vec<&str> = fresh.lines().collect();
    let was: Vec<&str> = committed.lines().collect();
    let at = (0..now.len().max(was.len()))
        .find(|&i| now.get(i) != was.get(i))
        .unwrap_or(now.len());
    let eof = "<end of file>";
    panic!(
        "{GOLDEN} diverged at line {}\n  committed: {}\n  now:       {}\n\
         fresh rendering written to {}; copy it over {GOLDEN} to accept the change",
        at + 1,
        was.get(at).unwrap_or(&eof),
        now.get(at).unwrap_or(&eof),
        rendered.display()
    );
}
